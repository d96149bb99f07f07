package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
)

// ScalabilityActors is the sweep gpsa-bench runs: the paper's closing
// claim is "scalable parallelism with thousands of actors", so it
// extends to 2048 actors (1024 dispatchers + 1024 computing workers) to
// demonstrate that the engine stays correct and does not collapse under
// massive actor counts, even where added parallelism cannot help.
var ScalabilityActors = []int{2, 4, 8, 16, 64, 256, 1024, 2048}

// RunScalability measures GPSA's PageRank runtime on the R-MAT graph
// shaped like ds at 1/scale, at each total actor count (at least 2),
// half of them dispatchers. Value-file syncs are off, so the sweep times
// the actors rather than the disk.
func RunScalability(ds gen.Dataset, scale int64, actors []int, opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	dir, cleanup, err := workDir(opts.WorkDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	a, err := generated(ds.Scaled(scale), opts.Seed, dir)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(actors))
	for i, n := range actors {
		n = max(n, 2)
		cells[i] = cell{arts: a, algo: AlgoPageRank, system: SysGPSA,
			cfg: core.Config{Dispatchers: n / 2, Computers: n - n/2, DisableSync: true}}
	}
	return measure(cells, opts)
}

// FormatScalability renders the sweep, each speedup against its first
// row.
func FormatScalability(rows []Row) string {
	s := fmt.Sprintf("%8s %10s %10s %8s\n", "Actors", "Seconds", "Speedup", "CPU%")
	for _, r := range rows {
		s += fmt.Sprintf("%8d %10.4f %9.2fx %7.1f%%\n", r.Dispatchers+r.Computers, r.Seconds, rows[0].Seconds/r.Seconds, r.CPUPercent)
	}
	return s
}
