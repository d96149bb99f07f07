package core

import (
	"testing"

	"repro/internal/metrics"
)

// The prefetch actor is a pure observer of the dispatch loop: running
// with it enabled — and a window small enough to force many WILLNEED
// windows and a live DONTNEED trail per superstep — must produce a
// vertex file bit-identical to the same configuration without it, for
// an order-sensitive float program and order-free integer programs
// alike. One dispatcher keeps the float comparison exact (two
// dispatchers interleave arrival order even between two plain runs).
func TestPrefetchEquivalence(t *testing.T) {
	g := randomGraph(t, 91, 300, 2400)
	base := Config{
		Dispatchers:   1,
		Computers:     2,
		MaxSupersteps: 6,
		DisableSync:   true,
	}
	progs := []struct {
		name string
		prog Program
	}{
		{"pagerank", prProg{}},
		{"bfs", bfsProg{root: 3}},
		{"cc", ccProg{}},
	}
	for _, tc := range progs {
		t.Run(tc.name, func(t *testing.T) {
			refEng, refVf := setup(t, g, tc.prog, base)
			if _, err := refEng.Run(); err != nil {
				t.Fatalf("reference run: %v", err)
			}

			cfg := base
			cfg.Prefetch = true
			cfg.PrefetchWindow = 4096
			eng, vf := setup(t, g, tc.prog, cfg)
			if !eng.gf.SupportsAdvise() {
				t.Skip("mapping does not support advice on this platform")
			}
			windows0 := metrics.Counter(metrics.CtrPrefetchWindows)
			errs0 := metrics.Counter(metrics.CtrPrefetchErrors)
			if _, err := eng.Run(); err != nil {
				t.Fatalf("prefetch run: %v", err)
			}
			if metrics.Counter(metrics.CtrPrefetchWindows) == windows0 {
				t.Error("prefetch enabled but no WILLNEED window was issued")
			}
			if d := metrics.Counter(metrics.CtrPrefetchErrors) - errs0; d != 0 {
				t.Errorf("prefetch made %d failing madvise calls", d)
			}

			for v := int64(0); v < g.NumVertices; v++ {
				if got, want := vf.Value(v), refVf.Value(v); got != want {
					t.Fatalf("vertex %d: %#x with prefetch, want %#x", v, got, want)
				}
			}
		})
	}
}
