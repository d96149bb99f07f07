package vertexfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// TestOpenDetectsWriteOrderViolation composes the file a crash would
// leave behind if the durability ordering were violated — the sealed
// clean header of superstep s+1 over the slot bytes as they were before
// superstep s+1's column sync. Open must reject it via the column
// digest rather than resume from values the header never vouched for.
func TestOpenDetectsWriteOrderViolation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.gpvf")
	f, err := Create(path, 3, func(v int64) (uint64, bool) { return uint64(v), true })
	if err != nil {
		t.Fatal(err)
	}
	// Superstep 0: vertex 0 becomes 50.
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	write(f, 0, 0, 50)
	if err := f.Commit(0, true, true); err != nil {
		t.Fatal(err)
	}
	// Superstep 1: vertex 1 becomes 70. Capture the file's bytes after
	// the updates land but BEFORE the commit's reconcile + column sync.
	if err := f.Begin(1, true); err != nil {
		t.Fatal(err)
	}
	write(f, 1, 1, 70)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(1, true, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A correctly ordered file reopens fine.
	good, err := Open(path)
	if err != nil {
		t.Fatalf("Open of in-order file: %v", err)
	}
	good.Close()

	// Header from after the commit, slots from before it: the shuffle a
	// header-before-columns write order could persist.
	slotsOff := headerBytes + 8*bitmapWords(3)
	shuffled := append([]byte(nil), after[:slotsOff]...)
	shuffled = append(shuffled, before[slotsOff:]...)
	bad := filepath.Join(dir, "shuffled.gpvf")
	if err := os.WriteFile(bad, shuffled, 0o644); err != nil {
		t.Fatal(err)
	}
	mismatches := metrics.Counter(metrics.CtrDigestMismatch)
	if _, err := Open(bad); err == nil {
		t.Fatal("Open accepted a file whose header was sealed before its column sync")
	}
	if got := metrics.Counter(metrics.CtrDigestMismatch); got != mismatches+1 {
		t.Fatalf("digest mismatch counter %d, want %d", got, mismatches+1)
	}
}

// TestColumnSyncFaultLeavesHeaderRunning injects a column-sync failure
// into a commit: the commit must fail WITHOUT sealing the header (state
// still running, epoch unchanged), so the superstep stays rollback-able
// — the ordering rule that makes a crash between column write and
// header seal recoverable.
func TestColumnSyncFaultLeavesHeaderRunning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.gpvf")
	f, err := Create(path, 4, func(v int64) (uint64, bool) { return uint64(10 + v), true })
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fault.Activate(fault.NewPlan(0, fault.Injection{Site: fault.SiteColumnSync}))
	defer fault.Deactivate()

	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	write(f, 0, 2, 99)
	err = f.Commit(0, true, true)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Commit error = %v, want injected column-sync failure", err)
	}
	if !f.InProgress() || f.Epoch() != 0 {
		t.Fatalf("after failed column sync: inProgress=%v epoch=%d, want running at 0", f.InProgress(), f.Epoch())
	}
	fault.Deactivate()

	// The superstep rolls back exactly and can re-run to completion.
	step, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if step != 0 || f.LastRecovery() != "exact" {
		t.Fatalf("Recover = (%d, %q), want (0, exact)", step, f.LastRecovery())
	}
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	write(f, 0, 2, 99)
	if err := f.Commit(0, true, true); err != nil {
		t.Fatal(err)
	}
	if got := f.Value(2); got != 99 {
		t.Fatalf("Value(2) = %d after retried commit, want 99", got)
	}
}

// TestRecoverExactKeepsInactiveStale: with the persisted bitmap intact,
// recovery restores precisely the Begin-time active set.
func TestRecoverExactKeepsInactiveStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.gpvf")
	f, err := Create(path, 4, func(v int64) (uint64, bool) { return uint64(v), v == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // crash mid-superstep
		t.Fatal(err)
	}
	exacts := metrics.Counter(metrics.CtrRecoverExact)
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Recover(); err != nil {
		t.Fatal(err)
	}
	if g.LastRecovery() != "exact" {
		t.Fatalf("LastRecovery = %q, want exact", g.LastRecovery())
	}
	if got := metrics.Counter(metrics.CtrRecoverExact); got != exacts+1 {
		t.Fatalf("exact recovery counter %d, want %d", got, exacts+1)
	}
	for v := int64(0); v < 4; v++ {
		if got, want := Stale(g.Load(DispatchCol(0), v)), v != 0; got != want {
			t.Fatalf("vertex %d stale = %v after exact recovery, want %v", v, got, want)
		}
	}
}

// TestRecoverConservativeOnDamagedBitmap: when the bitmap bytes do not
// match the sealed active-set checksum (torn bitmap write), recovery
// falls back to re-activating every vertex.
func TestRecoverConservativeOnDamagedBitmap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.gpvf")
	f, err := Create(path, 4, func(v int64) (uint64, bool) { return uint64(v), v == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[headerBytes] ^= 0x02 // flip a bit inside the bitmap region
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	conservatives := metrics.Counter(metrics.CtrRecoverConservative)
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Recover(); err != nil {
		t.Fatal(err)
	}
	if g.LastRecovery() != "conservative" {
		t.Fatalf("LastRecovery = %q, want conservative", g.LastRecovery())
	}
	if got := metrics.Counter(metrics.CtrRecoverConservative); got != conservatives+1 {
		t.Fatalf("conservative recovery counter %d, want %d", got, conservatives+1)
	}
	for v := int64(0); v < 4; v++ {
		if Stale(g.Load(DispatchCol(0), v)) {
			t.Fatalf("vertex %d not re-activated by conservative recovery", v)
		}
	}
}
