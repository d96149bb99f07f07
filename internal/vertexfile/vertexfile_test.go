package vertexfile

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func writeBytes(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }

func create(t *testing.T, n int64, init func(v int64) (uint64, bool)) *File {
	t.Helper()
	if init == nil {
		init = func(v int64) (uint64, bool) { return uint64(v), true }
	}
	f, err := Create(filepath.Join(t.TempDir(), "values.gpvf"), n, init)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// write stores val as vertex v's value in superstep step through the
// update path (Updater.Apply), as a computing actor would.
func write(f *File, step, v int64, val uint64) {
	u := f.Updater(step)
	u.Apply(v, val, func(_ int64, _, msg uint64, _ bool) (uint64, bool, bool) { return msg, true, false })
	u.Publish()
}

func TestPackUnpack(t *testing.T) {
	s := Pack(42, true)
	if !Stale(s) || Payload(s) != 42 {
		t.Fatalf("Pack(42, true) = %#x", s)
	}
	s = Pack(42, false)
	if Stale(s) || Payload(s) != 42 {
		t.Fatalf("Pack(42, false) = %#x", s)
	}
	// Payload overflowing into the flag bit is masked off.
	s = Pack(1<<63|7, false)
	if Stale(s) || Payload(s) != 7 {
		t.Fatalf("Pack with overflowing payload = %#x", s)
	}
}

func TestPackFloat64(t *testing.T) {
	for _, v := range []float64{0, 0.15, 1, 1e100, math.Pi} {
		p, err := PackFloat64(v)
		if err != nil {
			t.Fatalf("PackFloat64(%g): %v", v, err)
		}
		if p&StaleBit != 0 {
			t.Fatalf("PackFloat64(%g) uses flag bit", v)
		}
		if got := UnpackFloat64(p); got != v {
			t.Fatalf("round trip %g -> %g", v, got)
		}
	}
	if _, err := PackFloat64(-1); err == nil {
		t.Fatal("PackFloat64(-1) succeeded")
	}
	if _, err := PackFloat64(math.Copysign(0, -1)); err == nil {
		t.Fatal("PackFloat64(-0) succeeded")
	}
	// Stale-flagged slots still decode to the value.
	p, _ := PackFloat64(2.5)
	if got := UnpackFloat64(p | StaleBit); got != 2.5 {
		t.Fatalf("UnpackFloat64 of stale slot = %g", got)
	}
}

func TestCreateInitializesBothColumns(t *testing.T) {
	f := create(t, 4, func(v int64) (uint64, bool) { return uint64(100 + v), v == 2 })
	for v := int64(0); v < 4; v++ {
		for col := 0; col < 2; col++ {
			slot := f.Load(col, v)
			if Payload(slot) != uint64(100+v) {
				t.Fatalf("slot(%d,%d) payload = %d", v, col, Payload(slot))
			}
			// Column 0 (superstep 0's dispatch column) is fresh for
			// active vertices; column 1 (the update column) is always
			// stale so first messages are detected.
			wantStale := v != 2 || col == 1
			if Stale(slot) != wantStale {
				t.Fatalf("slot(%d,%d) stale = %v, want %v", v, col, Stale(slot), wantStale)
			}
		}
	}
	if f.Epoch() != 0 || f.InProgress() {
		t.Fatalf("fresh file epoch=%d inProgress=%v", f.Epoch(), f.InProgress())
	}
}

func TestCreateRejectsBadCount(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "x"), 0, nil); err == nil {
		t.Fatal("Create with 0 vertices succeeded")
	}
}

func TestColumnsAlternate(t *testing.T) {
	if DispatchCol(0) != 0 || UpdateCol(0) != 1 || DispatchCol(1) != 1 || UpdateCol(1) != 0 {
		t.Fatal("column alternation wrong")
	}
	for s := int64(0); s < 10; s++ {
		if DispatchCol(s) == UpdateCol(s) {
			t.Fatalf("step %d: dispatch and update columns collide", s)
		}
	}
}

func TestBeginCommitEpochs(t *testing.T) {
	f := create(t, 2, nil)
	if err := f.Begin(1, true); err == nil {
		t.Fatal("Begin with wrong step succeeded")
	}
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	if !f.InProgress() {
		t.Fatal("not in progress after Begin")
	}
	if err := f.Commit(5, true, true); err == nil {
		t.Fatal("Commit with wrong step succeeded")
	}
	if err := f.Commit(0, true, true); err != nil {
		t.Fatal(err)
	}
	if f.Epoch() != 1 || f.InProgress() {
		t.Fatalf("after commit: epoch=%d inProgress=%v", f.Epoch(), f.InProgress())
	}
}

func TestReconcilePropagatesNewestValues(t *testing.T) {
	// Vertex 0 updated in superstep 0, vertex 1 idle. After commit, the
	// next dispatch column must hold 0's new value and 1's original.
	f := create(t, 2, func(v int64) (uint64, bool) { return uint64(10 + v), true })
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	write(f, 0, 0, 99) // compute updated vertex 0
	if err := f.Commit(0, true, true); err != nil {
		t.Fatal(err)
	}
	if got := f.Value(0); got != 99 {
		t.Fatalf("Value(0) = %d, want 99", got)
	}
	if got := f.Value(1); got != 11 {
		t.Fatalf("Value(1) = %d, want 11 (reconcile failed)", got)
	}
	// Vertex 0 fresh for the next dispatch, vertex 1 stale.
	d := DispatchCol(1)
	if Stale(f.Load(d, 0)) {
		t.Fatal("updated vertex is stale in next dispatch column")
	}
	if !Stale(f.Load(d, 1)) {
		t.Fatal("idle vertex is fresh in next dispatch column")
	}
}

func TestIdleVertexSurvivesManySupersteps(t *testing.T) {
	// The failure mode of the paper's literal protocol: an idle vertex's
	// newest value must survive arbitrarily many supersteps.
	f := create(t, 1, func(int64) (uint64, bool) { return 7, true })
	for step := int64(0); step < 6; step++ {
		if err := f.Begin(step, true); err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			write(f, 0, 0, 55)
		}
		if err := f.Commit(step, true, true); err != nil {
			t.Fatal(err)
		}
		if got := f.Value(0); got != 55 && step >= 0 {
			t.Fatalf("after superstep %d: Value = %d, want 55", step, got)
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.gpvf")
	f, err := Create(path, 3, func(v int64) (uint64, bool) { return uint64(v * 2), true })
	if err != nil {
		t.Fatal(err)
	}
	f.Begin(0, true)
	write(f, 0, 1, 111)
	f.Commit(0, true, true)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.NumVertices() != 3 || g.Epoch() != 1 {
		t.Fatalf("reopened: n=%d epoch=%d", g.NumVertices(), g.Epoch())
	}
	if g.Value(1) != 111 || g.Value(0) != 0 || g.Value(2) != 4 {
		t.Fatalf("values = %v", g.Values())
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad")
	f, err := Create(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Too-short file.
	short := filepath.Join(t.TempDir(), "short")
	if err := writeBytes(short, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); err == nil {
		t.Fatal("Open of truncated file succeeded")
	}
}

func TestRecoverRollsBackCrashedSuperstep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.gpvf")
	f, err := Create(path, 3, func(v int64) (uint64, bool) { return uint64(v + 1), true })
	if err != nil {
		t.Fatal(err)
	}
	// Superstep 0 completes: all values doubled.
	f.Begin(0, true)
	for v := int64(0); v < 3; v++ {
		write(f, 0, v, uint64(v+1)*2)
	}
	f.Commit(0, true, true)
	// Superstep 1 crashes midway: vertex 0 got a partial update, and a
	// dispatcher already consumed vertex 1's fresh mark.
	f.Begin(1, true)
	write(f, 1, 0, 12345)
	d := DispatchCol(1)
	f.Store(d, 1, f.Load(d, 1)|StaleBit)
	f.Sync()
	f.Close() // "crash": state still running on disk

	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if !g.InProgress() {
		t.Fatal("crashed file not marked in progress")
	}
	step, err := g.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if step != 1 {
		t.Fatalf("Recover resumes at %d, want 1", step)
	}
	// State must equal end of superstep 0: values 2, 4, 6, all fresh in
	// the dispatch column of superstep 1.
	for v := int64(0); v < 3; v++ {
		slot := g.Load(DispatchCol(1), v)
		if Payload(slot) != uint64(v+1)*2 {
			t.Fatalf("vertex %d payload = %d, want %d", v, Payload(slot), (v+1)*2)
		}
		if Stale(slot) {
			t.Fatalf("vertex %d not re-activated", v)
		}
		if !Stale(g.Load(UpdateCol(1), v)) || Payload(g.Load(UpdateCol(1), v)) != uint64(v+1)*2 {
			t.Fatalf("vertex %d update column not reset: %#x", v, g.Load(UpdateCol(1), v))
		}
	}
}

func TestRecoverOnCleanFileIsNoop(t *testing.T) {
	f := create(t, 2, nil)
	f.Begin(0, true)
	write(f, 0, 0, 9)
	f.Commit(0, true, true)
	step, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if step != 1 {
		t.Fatalf("Recover on clean file = %d, want epoch 1", step)
	}
	if f.Value(0) != 9 {
		t.Fatal("Recover on clean file disturbed values")
	}
}

// Property: Pack/Stale/Payload are mutually consistent for any payload.
func TestPackProperty(t *testing.T) {
	fn := func(payload uint64, stale bool) bool {
		s := Pack(payload, stale)
		return Stale(s) == stale && Payload(s) == payload&PayloadMask
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of updates with commits, Value(v) returns
// the last written payload for every vertex.
func TestValueTracksLastWriteProperty(t *testing.T) {
	type step struct {
		Vertex  uint8
		Payload uint32
		Update  bool
	}
	fn := func(steps []step) bool {
		const n = 8
		f, err := Create(filepath.Join(t.TempDir(), "p.gpvf"), n, func(v int64) (uint64, bool) { return 0, true })
		if err != nil {
			return false
		}
		defer f.Close()
		want := make([]uint64, n)
		for i, s := range steps {
			st := int64(i)
			if err := f.Begin(st, true); err != nil {
				return false
			}
			if s.Update {
				v := int64(s.Vertex % n)
				write(f, st, v, uint64(s.Payload))
				want[v] = uint64(s.Payload)
			}
			if err := f.Commit(st, true, true); err != nil {
				return false
			}
		}
		for v := int64(0); v < n; v++ {
			if f.Value(v) != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValuesSnapshotAndAccessors(t *testing.T) {
	f := create(t, 3, func(v int64) (uint64, bool) { return uint64(v * 10), true })
	got := f.Values()
	want := []uint64{0, 10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if f.Path() == "" {
		t.Fatal("Path is empty")
	}
	if err := f.AdviseRandom(); err != nil {
		t.Fatalf("AdviseRandom: %v", err)
	}
}

func TestOpenRejectsWrongMagicAndVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.gpvf")
	f, err := Create(path, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	badPath := filepath.Join(dir, "bad-magic")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badPath); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Corrupt the version.
	bad = append([]byte(nil), raw...)
	bad[4] = 99
	badPath = filepath.Join(dir, "bad-version")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badPath); err == nil {
		t.Fatal("bad version accepted")
	}
	// A format-3 file (FNV-chained column digest) fails the version
	// check, not the digest check.
	bad[4] = 3
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badPath); err == nil || !strings.Contains(err.Error(), "unsupported version 3") {
		t.Fatalf("format-3 file: Open error %v, want unsupported version 3", err)
	}
	if err := Verify(badPath); err == nil || !strings.Contains(err.Error(), "unsupported version 3") {
		t.Fatalf("format-3 file: Verify error %v, want unsupported version 3", err)
	}
	// Truncated slot region.
	badPath = filepath.Join(dir, "truncated")
	if err := os.WriteFile(badPath, raw[:len(raw)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badPath); err == nil {
		t.Fatal("truncated slots accepted")
	}
}

// Property: for any sequence of supersteps with random updates and a
// crash at a random point, Recover restores exactly the state of the last
// committed superstep: payloads match, and — because the active-set
// snapshot Begin persisted survives a clean-close "crash" — recovery is
// exact, re-activating precisely the vertices that were active when the
// interrupted superstep began.
func TestRecoverRestoresLastCommitProperty(t *testing.T) {
	type step struct {
		Vertex  uint8
		Payload uint16
		Update  bool
	}
	fn := func(steps []step, crashAtRaw uint8) bool {
		if len(steps) == 0 {
			return true
		}
		const n = 6
		dir := t.TempDir()
		path := filepath.Join(dir, "p.gpvf")
		f, err := Create(path, n, func(v int64) (uint64, bool) { return uint64(v), true })
		if err != nil {
			return false
		}
		want := make([]uint64, n)
		for v := range want {
			want[v] = uint64(v)
		}
		crashAt := int(crashAtRaw) % len(steps)
		for i, s := range steps {
			st := int64(i)
			// The active set Begin will snapshot: the fresh flags of the
			// dispatch column entering this superstep.
			active := make([]bool, n)
			for v := int64(0); v < n; v++ {
				active[v] = !Stale(f.Load(DispatchCol(st), v))
			}
			if err := f.Begin(st, true); err != nil {
				return false
			}
			if i == crashAt {
				// Partial superstep: an update may land, then we "crash".
				if s.Update {
					write(f, st, int64(s.Vertex%n), uint64(s.Payload))
				}
				f.Close()
				g, err := Open(path)
				if err != nil {
					return false
				}
				defer g.Close()
				resume, err := g.Recover()
				if err != nil || resume != st {
					return false
				}
				if g.LastRecovery() != "exact" {
					return false
				}
				d := DispatchCol(st)
				for v := int64(0); v < n; v++ {
					slot := g.Load(d, v)
					if Payload(slot) != want[v] || Stale(slot) == active[v] {
						return false
					}
					if !Stale(g.Load(UpdateCol(st), v)) {
						return false
					}
				}
				return true
			}
			if s.Update {
				v := int64(s.Vertex % n)
				write(f, st, v, uint64(s.Payload))
				want[v] = uint64(s.Payload)
			}
			if err := f.Commit(st, true, true); err != nil {
				return false
			}
		}
		f.Close()
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRewindUncommitsSuperstep pins the contract cluster recovery leans
// on: Rewind(step) on a file that just committed step must step the
// epoch back, discard the step's updates, and restore the dispatch
// column's active set exactly — so re-running the superstep regenerates
// the original message stream and lands on the original answer.
func TestRewindUncommitsSuperstep(t *testing.T) {
	f := create(t, 2, func(v int64) (uint64, bool) { return uint64(10 + v), true })
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	write(f, 0, 0, 99) // vertex 0 updated, vertex 1 idle
	if err := f.Commit(0, true, true); err != nil {
		t.Fatal(err)
	}

	if err := f.Rewind(1); err == nil {
		t.Fatal("Rewind with wrong step succeeded")
	}
	if err := f.Rewind(0); err != nil {
		t.Fatal(err)
	}
	if f.Epoch() != 0 || f.InProgress() {
		t.Fatalf("after rewind: epoch=%d inProgress=%v, want epoch 0, idle", f.Epoch(), f.InProgress())
	}
	// The committed update is gone and both vertices are active again,
	// exactly as Begin(0) left them.
	d, u := DispatchCol(0), UpdateCol(0)
	for v := int64(0); v < 2; v++ {
		if s := f.Load(d, v); Stale(s) || Payload(s) != uint64(10+v) {
			t.Fatalf("dispatch slot %d after rewind = %#x, want fresh %d", v, s, 10+v)
		}
		if s := f.Load(u, v); !Stale(s) || Payload(s) != uint64(10+v) {
			t.Fatalf("update slot %d after rewind = %#x, want stale %d", v, s, 10+v)
		}
	}

	// The re-run commits the same answer as the first attempt.
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	write(f, 0, 0, 99)
	if err := f.Commit(0, true, true); err != nil {
		t.Fatal(err)
	}
	if f.Value(0) != 99 || f.Value(1) != 11 {
		t.Fatalf("re-run values = %v, want [99 11]", f.Values())
	}
}

// TestRewindRestoresPartialActiveSet rewinds a superstep whose active
// set was a strict subset: the restored dispatch flags must match the
// subset, not conservatively re-activate everything.
func TestRewindRestoresPartialActiveSet(t *testing.T) {
	f := create(t, 2, func(v int64) (uint64, bool) { return uint64(10 + v), true })
	f.Begin(0, true)
	write(f, 0, 0, 99)
	f.Commit(0, true, true)
	// Entering superstep 1 only vertex 0 is active.
	f.Begin(1, true)
	write(f, 1, 0, 100)
	f.Commit(1, true, true)

	if err := f.Rewind(1); err != nil {
		t.Fatal(err)
	}
	d := DispatchCol(1)
	if s := f.Load(d, 0); Stale(s) || Payload(s) != 99 {
		t.Fatalf("active vertex after rewind = %#x, want fresh 99", s)
	}
	if s := f.Load(d, 1); !Stale(s) || Payload(s) != 11 {
		t.Fatalf("idle vertex after rewind = %#x, want stale 11", s)
	}
}

// TestRewindRejectsInProgress refuses to rewind across an open
// superstep; Rollback/Recover own that state.
func TestRewindRejectsInProgress(t *testing.T) {
	f := create(t, 1, nil)
	f.Begin(0, true)
	f.Commit(0, true, true)
	f.Begin(1, true)
	if err := f.Rewind(0); err == nil {
		t.Fatal("Rewind of an in-progress file succeeded")
	}
}
