package vertexfile

import (
	"bytes"
	"path/filepath"
	"testing"
)

// evolve runs two committed supersteps over f so its columns carry a
// non-trivial mix of payloads and active flags: step 0 updates the even
// vertices, step 1 updates multiples of three.
func evolve(t *testing.T, f *File) {
	t.Helper()
	for step := int64(0); step < 2; step++ {
		if err := f.Begin(step, true); err != nil {
			t.Fatalf("Begin(%d): %v", step, err)
		}
		for v := int64(0); v < f.NumVertices(); v++ {
			if (step == 0 && v%2 == 0) || (step == 1 && v%3 == 0) {
				write(f, step, v, uint64(100*step+v))
			}
		}
		if err := f.Commit(step, true, true); err != nil {
			t.Fatalf("Commit(%d): %v", step, err)
		}
	}
}

func TestExtractAdoptRoundTrip(t *testing.T) {
	const n = 64
	src := create(t, n, func(v int64) (uint64, bool) { return uint64(v), v%2 == 0 })
	defer src.Close()
	evolve(t, src)

	blob, err := src.ExtractInterval(16, 48)
	if err != nil {
		t.Fatalf("ExtractInterval: %v", err)
	}
	epoch, first, slots, err := DecodeInterval(blob)
	if err != nil {
		t.Fatalf("DecodeInterval: %v", err)
	}
	if epoch != 2 || first != 16 || len(slots) != 32 {
		t.Fatalf("decoded (epoch=%d, first=%d, count=%d), want (2, 16, 32)", epoch, first, len(slots))
	}

	dst := create(t, n, func(v int64) (uint64, bool) { return 999, true })
	defer dst.Close()
	if err := dst.FastForward(2, true); err != nil {
		t.Fatalf("FastForward: %v", err)
	}
	if err := dst.AdoptInterval(blob, true); err != nil {
		t.Fatalf("AdoptInterval: %v", err)
	}

	dcol, ucol := DispatchCol(2), UpdateCol(2)
	for v := int64(16); v < 48; v++ {
		want := src.Load(dcol, v)
		if got := dst.Load(dcol, v); got != want {
			t.Fatalf("vertex %d dispatch slot: got %#x, want %#x (flags included)", v, got, want)
		}
		if got, want := dst.Load(ucol, v), Payload(want)|StaleBit; got != want {
			t.Fatalf("vertex %d update slot: got %#x, want stale copy %#x", v, got, want)
		}
	}
	// Vertices outside the adopted range keep their inert fast-forwarded
	// state: initial payload, both columns stale.
	for _, v := range []int64{0, 15, 48, 63} {
		if got := dst.Load(dcol, v); got != 999|StaleBit {
			t.Fatalf("untouched vertex %d: got %#x, want stale initial", v, got)
		}
	}
}

func TestExtractRejectsInProgressAndBadRange(t *testing.T) {
	f := create(t, 8, nil)
	defer f.Close()
	for _, r := range [][2]int64{{-1, 4}, {0, 9}, {4, 4}, {5, 3}} {
		if _, err := f.ExtractInterval(r[0], r[1]); err == nil {
			t.Fatalf("ExtractInterval(%d, %d) on 8 vertices succeeded", r[0], r[1])
		}
	}
	if err := f.Begin(0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExtractInterval(0, 4); err == nil {
		t.Fatal("ExtractInterval succeeded mid-superstep; migration must be barrier-only")
	}
}

func TestAdoptRejectsEpochMismatchAndInProgress(t *testing.T) {
	src := create(t, 8, nil)
	defer src.Close()
	blob, err := src.ExtractInterval(0, 8)
	if err != nil {
		t.Fatal(err)
	}

	dst := create(t, 8, nil)
	defer dst.Close()
	if err := dst.FastForward(2, false); err != nil {
		t.Fatal(err)
	}
	if err := dst.AdoptInterval(blob, false); err == nil {
		t.Fatal("adopt of epoch-0 blob into epoch-2 file succeeded")
	}

	dst2 := create(t, 8, nil)
	defer dst2.Close()
	if err := dst2.Begin(0, false); err != nil {
		t.Fatal(err)
	}
	if err := dst2.AdoptInterval(blob, false); err == nil {
		t.Fatal("adopt mid-superstep succeeded; migration must be barrier-only")
	}

	small := create(t, 4, nil)
	defer small.Close()
	if err := small.AdoptInterval(blob, false); err == nil {
		t.Fatal("adopt of 8-vertex blob into 4-vertex file succeeded")
	}
}

func TestAdoptRejectsCorruption(t *testing.T) {
	src := create(t, 32, func(v int64) (uint64, bool) { return uint64(v) * 7, v%3 == 0 })
	defer src.Close()
	evolve(t, src)
	blob, err := src.ExtractInterval(4, 28)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func(t *testing.T) *File {
		t.Helper()
		f := create(t, 32, nil)
		if err := f.FastForward(2, false); err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Truncations, including torn mid-slot.
	for _, cut := range []int{0, 10, intervalHeaderBytes, len(blob) - 1, len(blob) - 8, len(blob) - 3} {
		f := fresh(t)
		if err := f.AdoptInterval(blob[:cut], false); err == nil {
			t.Fatalf("adopt of blob truncated to %d bytes succeeded", cut)
		}
		closeQuietlyTest(t, f)
	}
	// A single flipped bit anywhere must be rejected.
	for off := 0; off < len(blob); off++ {
		mut := bytes.Clone(blob)
		mut[off] ^= 0x10
		f := fresh(t)
		if err := f.AdoptInterval(mut, false); err == nil {
			t.Fatalf("adopt of blob with bit flipped at byte %d succeeded", off)
		}
		closeQuietlyTest(t, f)
	}
	// Padding past the declared count.
	f := fresh(t)
	defer f.Close()
	if err := f.AdoptInterval(append(bytes.Clone(blob), 0, 0, 0, 0, 0, 0, 0, 0), false); err == nil {
		t.Fatal("adopt of padded blob succeeded")
	}
}

func closeQuietlyTest(t *testing.T, f *File) {
	t.Helper()
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestAdoptThenReopen(t *testing.T) {
	dir := t.TempDir()
	src, err := Create(filepath.Join(dir, "src.gpvf"), 24, func(v int64) (uint64, bool) { return uint64(v), true })
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	evolve(t, src)
	blob, err := src.ExtractInterval(0, 24)
	if err != nil {
		t.Fatal(err)
	}

	dstPath := filepath.Join(dir, "dst.gpvf")
	dst, err := Create(dstPath, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.FastForward(2, true); err != nil {
		t.Fatal(err)
	}
	if err := dst.AdoptInterval(blob, true); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen must pass the header checksum and column digest checks: adopt
	// re-sealed both with the data-before-header ordering.
	re, err := Open(dstPath)
	if err != nil {
		t.Fatalf("Open after adopt: %v", err)
	}
	defer re.Close()
	if re.Torn() || re.Epoch() != 2 {
		t.Fatalf("reopened file: torn=%v epoch=%d, want clean epoch 2", re.Torn(), re.Epoch())
	}
	for v := int64(0); v < 24; v++ {
		if got, want := re.Value(v), src.Value(v); got != want {
			t.Fatalf("vertex %d after reopen: got %d, want %d", v, got, want)
		}
	}
}

func TestFastForwardOddEpochReopens(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "join.gpvf")
	f, err := Create(path, 16, func(v int64) (uint64, bool) { return uint64(v), true })
	if err != nil {
		t.Fatal(err)
	}
	// Odd epoch: the dispatch/update roles swap relative to Create's
	// layout, and both columns must read stale or the first-message rule
	// of superstep 3 would misfire.
	if err := f.FastForward(3, true); err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 16; v++ {
		if !Stale(f.Load(0, v)) || !Stale(f.Load(1, v)) {
			t.Fatalf("vertex %d not fully stale after fast-forward", v)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatalf("Open after fast-forward: %v", err)
	}
	defer re.Close()
	if re.Epoch() != 3 || re.InProgress() {
		t.Fatalf("reopened: epoch=%d inProgress=%v, want clean epoch 3", re.Epoch(), re.InProgress())
	}
}

func TestFastForwardRejects(t *testing.T) {
	f := create(t, 8, nil)
	defer f.Close()
	if err := f.FastForward(-1, false); err == nil {
		t.Fatal("fast-forward to negative epoch succeeded")
	}
	if err := f.FastForward(0, false); err != nil {
		t.Fatalf("fast-forward to epoch 0 should be a no-op, got %v", err)
	}
	if err := f.Begin(0, false); err != nil {
		t.Fatal(err)
	}
	if err := f.FastForward(2, false); err == nil {
		t.Fatal("fast-forward of an in-progress file succeeded")
	}
	if err := f.Commit(0, true, false); err != nil {
		t.Fatal(err)
	}
	if err := f.FastForward(2, false); err == nil {
		t.Fatal("fast-forward of a non-zero-epoch file succeeded")
	}
}

// FuzzAdoptInterval feeds arbitrary bytes to the adopt path: it must
// never panic, and a blob it accepts must decode consistently.
func FuzzAdoptInterval(f *testing.F) {
	src, err := NewMemory(16, func(v int64) (uint64, bool) { return uint64(v), v%2 == 0 })
	if err != nil {
		f.Fatal(err)
	}
	valid, err := src.ExtractInterval(2, 14)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:intervalHeaderBytes])
	f.Add([]byte{})
	mut := bytes.Clone(valid)
	mut[33] ^= 0x80 // digest
	f.Add(mut)
	f.Fuzz(func(t *testing.T, blob []byte) {
		dst, err := NewMemory(16, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.AdoptInterval(blob, false); err != nil {
			return
		}
		// Accepted: the blob must decode, target epoch 0, and land within
		// range.
		epoch, first, slots, err := DecodeInterval(blob)
		if err != nil {
			t.Fatalf("adopted blob fails DecodeInterval: %v", err)
		}
		if epoch != 0 {
			t.Fatalf("adopted blob claims epoch %d into an epoch-0 file", epoch)
		}
		if first < 0 || first+int64(len(slots)) > 16 {
			t.Fatalf("adopted blob range [%d,+%d) out of bounds", first, len(slots))
		}
		for i, slot := range slots {
			if got := dst.Load(DispatchCol(0), first+int64(i)); got != slot {
				t.Fatalf("slot %d: file holds %#x, blob carries %#x", i, got, slot)
			}
		}
	})
}

// FuzzExtractDecode round-trips extraction over fuzzed ranges.
func FuzzExtractDecode(f *testing.F) {
	f.Add(int64(0), int64(16))
	f.Add(int64(3), int64(9))
	f.Add(int64(-1), int64(5))
	f.Add(int64(5), int64(100))
	f.Fuzz(func(t *testing.T, first, end int64) {
		src, err := NewMemory(16, func(v int64) (uint64, bool) { return uint64(v) * 3, v%2 == 1 })
		if err != nil {
			t.Fatal(err)
		}
		blob, err := src.ExtractInterval(first, end)
		if err != nil {
			return
		}
		epoch, gotFirst, slots, err := DecodeInterval(blob)
		if err != nil {
			t.Fatalf("extracted blob fails DecodeInterval: %v", err)
		}
		if epoch != 0 || gotFirst != first || int64(len(slots)) != end-first {
			t.Fatalf("round-trip mismatch: (%d, %d, %d), want (0, %d, %d)", epoch, gotFirst, len(slots), first, end-first)
		}
		for i, slot := range slots {
			if want := src.Load(DispatchCol(0), first+int64(i)); slot != want {
				t.Fatalf("slot %d: blob carries %#x, source holds %#x", i, slot, want)
			}
		}
	})
}
