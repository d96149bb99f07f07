package vertexfile

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// validFileBytes builds a well-formed value file on disk and returns its
// bytes. When running is true the file records an in-progress superstep.
func validFileBytes(tb testing.TB, running bool) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "v.gpvf")
	f, err := Create(path, 8, func(v int64) (uint64, bool) { return uint64(100 + v), v%2 == 0 })
	if err != nil {
		tb.Fatal(err)
	}
	if running {
		if err := f.Begin(0, true); err != nil {
			tb.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func corrupt(b []byte, off int, val byte) []byte {
	c := append([]byte(nil), b...)
	if off < len(c) {
		c[off] ^= val
	}
	return c
}

// FuzzOpen feeds arbitrary bytes to Open: it must never panic, and any
// file it accepts must satisfy the header invariants — in particular a
// torn header (checksum or state-word damage) must have been rolled back
// to a clean state.
func FuzzOpen(f *testing.F) {
	valid := validFileBytes(f, false)
	running := validFileBytes(f, true)
	f.Add(valid)
	f.Add(running)
	f.Add([]byte{})
	f.Add(valid[:10])               // truncated mid-magic
	f.Add(valid[:63])               // truncated header
	f.Add(valid[:64])               // header only, no slots
	f.Add(valid[:len(valid)-8])     // one slot short
	f.Add(corrupt(valid, 0, 0xFF))  // bad magic
	f.Add(corrupt(valid, 4, 0xFF))  // bad version
	f.Add(corrupt(valid, 8, 0xFF))  // absurd vertex count
	f.Add(corrupt(valid, 16, 0x01)) // corrupted epoch
	f.Add(corrupt(valid, 24, 0x07)) // corrupted state word
	f.Add(corrupt(valid, 32, 0x01)) // corrupted checksum
	f.Add(corrupt(running, 35, 0x80))
	// Write-order shuffle seeds: a clean file whose slot bytes disagree
	// with the sealed digest (simulating a header synced before its
	// columns), and a running file with a damaged active-set bitmap
	// (recoverable, but only conservatively). 8 vertices put the bitmap
	// at offset 128 and the first slot at 136.
	f.Add(corrupt(valid, 136, 0x01))
	f.Add(corrupt(running, 128, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.gpvf")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		vf, err := Open(path)
		if err != nil {
			return // rejecting bad input is always fine
		}
		defer vf.Close()
		n := vf.NumVertices()
		if n <= 0 || n > maxVertices {
			t.Fatalf("accepted absurd vertex count %d", n)
		}
		if vf.Torn() && vf.InProgress() {
			t.Fatal("torn file still marked in progress after Open")
		}
		if !vf.headerValid() {
			t.Fatal("accepted file has invalid header checksum")
		}
		// Any accepted file with a sealed digest must have a dispatch
		// column that matches it — Open may never trust a header whose
		// column bytes did not reach the file.
		if want := vf.header[hdrColDigest]; want != 0 {
			if got := vf.colDigest(DispatchCol(vf.Epoch())); got != want {
				t.Fatalf("accepted file: column digest %#x, header sealed %#x", got, want)
			}
		}
		for v := int64(0); v < n; v++ {
			_ = vf.Value(v)
		}
	})
}

// TestOpenRollsBackTornChecksum crashes a run mid-commit by hand: the
// header says running and its checksum is damaged, exactly what a torn
// flush leaves behind. Open must detect it, roll back to the dispatch
// column, and preserve every payload.
func TestOpenRollsBackTornChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.gpvf")
	f, err := Create(path, 16, func(v int64) (uint64, bool) { return uint64(1000 + v), true })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	// Partial superstep: some update-column writes that must be discarded.
	for v := int64(0); v < 8; v++ {
		write(f, 0, v, uint64(9999))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[32] ^= 0x01 // tear the checksum word
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	vf, err := Open(path)
	if err != nil {
		t.Fatalf("Open torn file: %v", err)
	}
	defer vf.Close()
	if !vf.Torn() {
		t.Fatal("Torn() = false for a damaged header")
	}
	if vf.InProgress() {
		t.Fatal("torn file still in progress after rollback")
	}
	if vf.Epoch() != 0 {
		t.Fatalf("epoch = %d after rollback, want 0", vf.Epoch())
	}
	for v := int64(0); v < 16; v++ {
		if got := Payload(vf.Load(DispatchCol(0), v)); got != uint64(1000+v) {
			t.Fatalf("vertex %d payload = %d after rollback, want %d", v, got, 1000+v)
		}
		if !Stale(vf.Load(UpdateCol(0), v)) {
			t.Fatalf("vertex %d update slot not reset to stale", v)
		}
	}
}

// TestOpenRollsBackBadStateWord damages the state word instead; the
// checksum no longer matches, so Open must take the same rollback path.
func TestOpenRollsBackBadStateWord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.gpvf")
	f, err := Create(path, 4, func(v int64) (uint64, bool) { return uint64(v), true })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(b[24:], 7) // neither clean nor running
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	vf, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer vf.Close()
	if !vf.Torn() || vf.InProgress() {
		t.Fatalf("Torn=%v InProgress=%v, want true/false", vf.Torn(), vf.InProgress())
	}
}

// TestOpenKeepsIntactRunningHeader: a valid header that records an
// in-progress superstep is NOT torn — it must survive Open untouched so
// the caller can decide when to Recover.
func TestOpenKeepsIntactRunningHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.gpvf")
	f, err := Create(path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	vf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	if vf.Torn() {
		t.Fatal("intact running header reported torn")
	}
	if !vf.InProgress() {
		t.Fatal("running state lost across Open")
	}
}
