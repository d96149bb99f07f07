package vertexfile

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// oracleCommit is the commit as it was before reconcile became O(active):
// a full sweep over every vertex, then a digest recomputed over the whole
// next dispatch column. It is the reference the O(active) commit must
// reproduce bit for bit.
func oracleCommit(f *File, step int64) {
	d, u := DispatchCol(step), UpdateCol(step)
	for v := int64(0); v < f.numVertices; v++ {
		if slot := f.Load(u, v); Stale(slot) {
			f.Store(u, v, Payload(f.Load(d, v))|StaleBit)
		}
		f.Store(d, v, f.Load(d, v)|StaleBit)
	}
	f.setEpoch(step + 1)
	f.setState(stateClean)
	atomic.StoreUint64(&f.header[hdrFlags], 0)
	atomic.StoreUint64(&f.header[hdrAggregate], 0)
	atomic.StoreUint64(&f.header[hdrColDigest], f.colDigest(u))
	f.sealHeader()
	f.begun = false
	f.pending.Store(0)
}

// sameState reports the first difference between two files' columns or
// sealed digests, and checks a's sealed digest against a full
// recomputation of its dispatch column.
func sameState(a, b *File) error {
	if a.Epoch() != b.Epoch() || a.InProgress() != b.InProgress() {
		return fmt.Errorf("epoch/state (%d, %v) vs oracle (%d, %v)", a.Epoch(), a.InProgress(), b.Epoch(), b.InProgress())
	}
	for v := int64(0); v < a.numVertices; v++ {
		for col := 0; col < 2; col++ {
			if x, y := a.Load(col, v), b.Load(col, v); x != y {
				return fmt.Errorf("slot (%d, col %d) = %#x, oracle %#x", v, col, x, y)
			}
		}
	}
	da, db := atomic.LoadUint64(&a.header[hdrColDigest]), atomic.LoadUint64(&b.header[hdrColDigest])
	if da != db {
		return fmt.Errorf("sealed digest %#x, oracle %#x", da, db)
	}
	if da != 0 && !a.InProgress() {
		if full := a.colDigest(DispatchCol(a.Epoch())); da != full {
			return fmt.Errorf("sealed digest %#x, full recomputation %#x", da, full)
		}
	}
	return nil
}

// TestActiveCommitMatchesFullSweep drives random operation sequences
// through two files in lockstep — one committing through CommitStep's
// O(active) reconcile and maintained digest, the other through the full
// sweep and full digest (oracleCommit) — and requires bit-equal columns
// and equal sealed digests after every operation, with the maintained
// digest equal to a full recomputation. Sequences mix Begin, dispatcher
// consumption, writes through Updater, commits with and without
// reconcile, Rollback, Rewind, exact and conservative Recover,
// AdoptInterval and FastForward, over odd epochs and vertex counts that
// are not multiples of 64, on both memory and mapped files.
func TestActiveCommitMatchesFullSweep(t *testing.T) {
	for trial := 0; trial < 150; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Int63n(200)
		payloads := make([]uint64, n)
		active := make([]bool, n)
		for v := range payloads {
			payloads[v], active[v] = rng.Uint64()&PayloadMask, rng.Intn(3) == 0
		}
		init := func(v int64) (uint64, bool) { return payloads[v], active[v] }
		var a, b *File
		var err error
		if trial%4 == 0 {
			dir := t.TempDir()
			if a, err = Create(filepath.Join(dir, "a.gpvf"), n, init); err == nil {
				b, err = Create(filepath.Join(dir, "b.gpvf"), n, init)
			}
		} else if a, err = NewMemory(n, init); err == nil {
			b, err = NewMemory(n, init)
		}
		if err != nil {
			t.Fatal(err)
		}
		both := func(op string, fn func(f *File) error) {
			t.Helper()
			if err := fn(a); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, op, err)
			}
			if err := fn(b); err != nil {
				t.Fatalf("trial %d: %s on oracle: %v", trial, op, err)
			}
		}
		check := func(op string) {
			t.Helper()
			if err := sameState(a, b); err != nil {
				t.Fatalf("trial %d (n=%d, epoch %d) after %s: %v", trial, n, a.Epoch(), op, err)
			}
		}
		if rng.Intn(3) == 0 {
			ep := 1 + rng.Int63n(5)
			both("FastForward", func(f *File) error { return f.FastForward(ep, false) })
			check("FastForward")
		}
		for op := 0; op < 40; op++ {
			step := a.Epoch()
			if rng.Intn(6) == 0 {
				// Adopt a random range painted by a donor at this epoch.
				first := rng.Int63n(n)
				end := first + 1 + rng.Int63n(n-first)
				donor, err := NewMemory(n, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := donor.FastForward(step, false); err != nil {
					t.Fatal(err)
				}
				for v := first; v < end; v++ {
					donor.Store(DispatchCol(step), v, Pack(rng.Uint64(), rng.Intn(2) == 0))
				}
				blob, err := donor.ExtractInterval(first, end)
				if err != nil {
					t.Fatal(err)
				}
				both("AdoptInterval", func(f *File) error { return f.AdoptInterval(blob, false) })
				check("AdoptInterval")
			}
			both("Begin", func(f *File) error { return f.Begin(step, false) })
			// Dispatchers consume some of the fresh marks.
			d := DispatchCol(step)
			for v := int64(0); v < n; v++ {
				if slot := a.Load(d, v); !Stale(slot) && rng.Intn(2) == 0 {
					a.Store(d, v, slot|StaleBit)
					b.Store(d, v, slot|StaleBit)
				}
			}
			// Computers write through the update path, several times per
			// vertex now and then.
			salt := rng.Uint64()
			fold := func(v int64, cur, msg uint64, first bool) (uint64, bool, bool) {
				if msg%5 == 0 {
					return 0, false, false
				}
				if first {
					return msg ^ salt, true, false
				}
				return cur + msg, true, false
			}
			ua, ub := a.Updater(step), b.Updater(step)
			for k := rng.Intn(int(n) + 1); k > 0; k-- {
				v, msg := rng.Int63n(n), rng.Uint64()
				ua.Apply(v, msg, fold)
				ub.Apply(v, msg, fold)
			}
			ua.Publish()
			ub.Publish()

			switch r := rng.Intn(20); {
			case r < 12:
				if err := a.Commit(step, true, false); err != nil {
					t.Fatal(err)
				}
				oracleCommit(b, step)
				check("Commit")
			case r < 13:
				both("Commit without reconcile", func(f *File) error { return f.Commit(step, false, false) })
				check("Commit without reconcile")
			case r < 15:
				both("Rollback", func(f *File) error { return f.Rollback(step, false) })
				check("Rollback")
			case r < 17:
				if err := a.Commit(step, true, false); err != nil {
					t.Fatal(err)
				}
				oracleCommit(b, step)
				check("Commit")
				both("Rewind", func(f *File) error { return f.Rewind(step) })
				check("Rewind")
			case r < 19:
				both("exact Recover", func(f *File) error { _, err := f.Recover(); return err })
				if a.LastRecovery() != "exact" {
					t.Fatalf("trial %d: Recover was %s, want exact", trial, a.LastRecovery())
				}
				check("exact Recover")
			default:
				for _, f := range []*File{a, b} {
					f.header[hdrActiveSum]++ // a damaged bitmap seal
				}
				both("conservative Recover", func(f *File) error { _, err := f.Recover(); return err })
				if a.LastRecovery() != "conservative" {
					t.Fatalf("trial %d: Recover was %s, want conservative", trial, a.LastRecovery())
				}
				check("conservative Recover")
			}
		}
		a.Close()
		b.Close()
	}
}

// TestCommitWithoutBeginRefused: reconcile visits the vertices Begin's
// bitmap marks and the digest adds this handle's published deltas, so a
// commit that no Begin on this handle opened is refused — on a fresh
// file, after a completed superstep, after a Rollback, and on a reopened
// crashed file before Recover — and leaves the file untouched.
func TestCommitWithoutBeginRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.gpvf")
	f, err := Create(path, 70, func(v int64) (uint64, bool) { return uint64(v), v%3 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(f *File) []uint64 {
		out := append([]uint64(nil), f.header...)
		for v := int64(0); v < f.numVertices; v++ {
			out = append(out, f.Load(0, v), f.Load(1, v))
		}
		return out
	}
	refuse := func(f *File, step int64, when string) {
		t.Helper()
		before := snapshot(f)
		if err := f.Commit(step, true, true); err == nil {
			t.Fatalf("%s: commit without Begin succeeded", when)
		}
		after := snapshot(f)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s: refused commit changed word %d: %#x -> %#x", when, i, before[i], after[i])
			}
		}
	}
	refuse(f, 0, "fresh file")
	if err := f.Begin(0, true); err != nil {
		t.Fatal(err)
	}
	write(f, 0, 5, 500)
	if err := f.Commit(0, true, true); err != nil {
		t.Fatal(err)
	}
	refuse(f, 1, "after a commit")
	if err := f.Begin(1, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Rollback(1, true); err != nil {
		t.Fatal(err)
	}
	refuse(f, 1, "after a rollback")
	if err := f.Begin(1, true); err != nil {
		t.Fatal(err)
	}
	write(f, 1, 6, 600)
	if err := f.Close(); err != nil { // crash mid-superstep
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	refuse(g, 1, "reopened crashed file")
	if _, err := g.Recover(); err != nil {
		t.Fatal(err)
	}
	refuse(g, 1, "after Recover")
}
