package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// tinyOpts keeps unit-test runs fast: one run per cell, and the google
// dataset at 1/512 scale is ~1.7k vertices and ~10k edges.
func tinyOpts(t *testing.T) Options {
	t.Helper()
	return Options{Seed: 1, Runs: 1, WorkDir: t.TempDir()}
}

func TestRunFigureProducesAllCells(t *testing.T) {
	res, err := RunFigure(gen.Google, 512, tinyOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(AllSystems)*len(AllAlgos) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(AllSystems)*len(AllAlgos))
	}
	for _, c := range res.Rows {
		if c.Seconds <= 0 {
			t.Fatalf("cell %s/%s has non-positive time %g", c.System, c.Algo, c.Seconds)
		}
		if c.Supersteps <= 0 {
			t.Fatalf("cell %s/%s ran %d supersteps", c.System, c.Algo, c.Supersteps)
		}
		if c.Supersteps > 5 && (c.Algo == AlgoPageRank) {
			t.Fatalf("PageRank cell ran %d supersteps, cap is 5", c.Supersteps)
		}
	}
	out := FormatFigure("fig7", res)
	for _, want := range []string{"GPSA", "GraphChi", "X-Stream", "PageRank", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted figure missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigureSubsetSelection(t *testing.T) {
	opts := tinyOpts(t)
	opts.Algos = []Algo{AlgoBFS}
	res, err := RunFigure(gen.Google, 512, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(AllSystems) {
		t.Fatalf("rows = %+v", res.Rows)
	}
	for i, r := range res.Rows {
		if r.System != AllSystems[i] || r.Algo != AlgoBFS {
			t.Fatalf("row %d = %+v, want %s/%s", i, r, AllSystems[i], AlgoBFS)
		}
	}
}

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1(2048, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Dataset.Vertices <= 0 || r.Dataset.Edges <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.CSRFileMB <= 0 {
			t.Fatalf("row %s has no CSR size", r.Dataset.Name)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "twitter-2010") || !strings.Contains(out, "google") {
		t.Fatalf("table missing datasets:\n%s", out)
	}
}

func TestRunScalability(t *testing.T) {
	actors := []int{2, 8, 128}
	rows, err := RunScalability(gen.Google, 512, actors, tinyOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(actors) {
		t.Fatalf("%d rows, want %d", len(rows), len(actors))
	}
	// The engine may run fewer dispatchers than asked (no more than the
	// graph's intervals), never fewer computers.
	for i, r := range rows {
		if n := actors[i]; r.Seconds <= 0 || r.Computers != n-n/2 || r.Dispatchers < 1 || r.Dispatchers > n/2 {
			t.Fatalf("degenerate row %+v for %d actors", r, n)
		}
	}
	lines := strings.Split(FormatScalability(rows), "\n")
	if !strings.Contains(lines[0], "Actors") {
		t.Fatalf("format missing header:\n%s", lines[0])
	}
	if f := strings.Fields(lines[1]); f[2] != "1.00x" {
		t.Fatalf("baseline speedup = %s, want 1.00x", f[2])
	}
}

func TestPaperFiguresCatalog(t *testing.T) {
	if len(PaperFigures) != 5 {
		t.Fatalf("%d paper figures, want 5 (fig7-fig11)", len(PaperFigures))
	}
	if f, ok := FigureForDataset("soc-pokec"); !ok || f.ID != "fig8" {
		t.Fatalf("FigureForDataset(soc-pokec) = %+v, %v", f, ok)
	}
	if _, ok := FigureForDataset("unknown"); ok {
		t.Fatal("unknown dataset matched a figure")
	}
}

func TestSpeedupComputation(t *testing.T) {
	r := &FigureResult{Rows: []Row{
		{System: SysGPSA, Algo: AlgoCC, Seconds: 2},
		{System: SysXStream, Algo: AlgoCC, Seconds: 12},
	}}
	su, ok := r.Speedup(SysXStream, AlgoCC)
	if !ok || su != 6 {
		t.Fatalf("Speedup = %g, %v; want 6, true", su, ok)
	}
	if _, ok := r.Speedup(SysGraphChi, AlgoCC); ok {
		t.Fatal("Speedup for missing cell reported ok")
	}
}

// TestScaleRunsDefaultPool pins the COST sweep to the pool a user gets:
// a scale cell at c cores runs core.DefaultPool(c), not a fraction of it,
// while the references run single-threaded.
func TestScaleRunsDefaultPool(t *testing.T) {
	const cores = 2
	rep, err := RunScale([]gen.Dataset{gen.Google.Scaled(512)}, []int{cores}, tinyOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(AllAlgos) * 3; len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	d, c := core.DefaultPool(cores)
	for _, r := range rep.Cells {
		switch {
		case r.System != SysGPSA && r.Cores != 1:
			t.Fatalf("reference %s/%s ran at %d cores, want 1", r.System, r.Algo, r.Cores)
		case r.System == SysGPSA && (r.Cores != cores || r.Dispatchers != d || r.Computers != c):
			t.Fatalf("scale run at %d cores ran %d×%d, want core.DefaultPool's %d×%d",
				r.Cores, r.Dispatchers, r.Computers, d, c)
		}
	}
}
