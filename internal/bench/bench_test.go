package bench

import (
	"strings"
	"testing"

	"repro/internal/gen"
)

// tinyOpts keeps unit-test runs fast: the google dataset at 1/512 scale
// is ~1.7k vertices and ~10k edges.
func tinyOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		Dataset: gen.Google,
		Scale:   512,
		Seed:    1,
		Runs:    1,
		WorkDir: t.TempDir(),
	}
}

func TestRunFigureProducesAllCells(t *testing.T) {
	res, err := RunFigure(tinyOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(AllSystems)*len(AllAlgos) {
		t.Fatalf("%d cells, want %d", len(res.Cells), len(AllSystems)*len(AllAlgos))
	}
	for _, c := range res.Cells {
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
	opts.Systems = []System{SysGPSA}
	opts.Algos = []Algo{AlgoBFS}
	res, err := RunFigure(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || res.Cells[0].System != SysGPSA || res.Cells[0].Algo != AlgoBFS {
		t.Fatalf("cells = %+v", res.Cells)
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
	pts, err := RunScalability(ScalabilityOptions{
		Dataset: gen.Google,
		Scale:   512,
		Seed:    1,
		Runs:    1,
		Actors:  []int{2, 8, 128},
		WorkDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3", len(pts))
	}
	for _, p := range pts {
		if p.Seconds <= 0 || p.Speedup <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if pts[0].Speedup != 1 {
		t.Fatalf("baseline speedup = %g, want 1", pts[0].Speedup)
	}
	if out := FormatScalability(pts); !strings.Contains(out, "Actors") {
		t.Fatalf("format missing header:\n%s", out)
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
	r := &FigureResult{Cells: []Cell{
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
