package core

import "testing"

// BenchmarkSuperstepPageRank measures the engine's per-superstep cost on
// a PageRank-like all-active workload (one full edge stream + message
// traffic + barrier).
func BenchmarkSuperstepPageRank(b *testing.B) {
	g := randomGraph(b, 1, 1<<14, 1<<17)
	eng, _ := setup(b, g, prProg{}, Config{MaxSupersteps: 1, DisableSync: true})
	b.SetBytes(g.NumEdges * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.cfg.MaxSupersteps = 1
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlapVsSequential is the headline ablation: the paper's
// overlapped dispatch/compute against conventional phase-sequential BSP.
func BenchmarkOverlapVsSequential(b *testing.B) {
	g := randomGraph(b, 3, 1<<13, 1<<16)
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"overlap", Config{MaxSupersteps: 1, DisableSync: true}},
		{"sequential", Config{MaxSupersteps: 1, DisableSync: true, SequentialPhases: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng, _ := setup(b, g, prProg{}, mode.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.cfg.MaxSupersteps = 1
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
