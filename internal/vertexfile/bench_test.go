package vertexfile

import (
	"path/filepath"
	"testing"
)

func benchFile(b *testing.B, n int64) *File {
	b.Helper()
	f, err := Create(filepath.Join(b.TempDir(), "v.gpvf"), n, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return f
}

// BenchmarkLoadStore measures the per-slot cost of the atomic mmap
// accesses on the computing workers' hot path.
func BenchmarkLoadStore(b *testing.B) {
	f := benchFile(b, 1<<16)
	mask := int64(1<<16 - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int64(i) & mask
		slot := f.Load(0, v)
		f.Store(1, v, slot|StaleBit)
	}
}

// BenchmarkReconcile measures a non-durable superstep on 2^20 vertices
// in which one vertex in 64 is updated: Begin, BulkApply and a commit
// whose reconcile and digest visit only the active vertices.
func BenchmarkReconcile(b *testing.B) {
	const n = 1 << 20
	f := benchFile(b, n)
	bits := make([]uint64, n/64)
	for i := range bits {
		bits[i] = 1
	}
	vals := make([]uint64, n)
	inc := func(v int64, cur, msg uint64, first bool) (uint64, bool, bool) { return cur + 1, true, false }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := int64(i)
		if err := f.Begin(step, false); err != nil {
			b.Fatal(err)
		}
		f.BulkApply(step, 0, 1, bits, vals, inc)
		if err := f.Commit(step, true, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitDurable measures a committed superstep including msync.
func BenchmarkCommitDurable(b *testing.B) {
	f := benchFile(b, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := int64(i)
		if err := f.Begin(step, true); err != nil {
			b.Fatal(err)
		}
		if err := f.Commit(step, true, true); err != nil {
			b.Fatal(err)
		}
	}
}
