package bench

import (
	"fmt"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

// FigureResult is a comparison: every workload on the three systems over
// one graph, as in one of the paper's Figures 7–10.
type FigureResult struct {
	Dataset gen.Dataset // the graph's name and size (a figure's scaled dimensions)
	Scale   int64       // a figure's scale denominator (1 for a user's graph)
	Runs    int
	BFSRoot graph.VertexID
	Rows    []Row
}

// RunFigure measures one of Figures 7–10: the R-MAT graph shaped like ds
// at 1/scale.
func RunFigure(ds gen.Dataset, scale int64, opts Options) (*FigureResult, error) {
	scaled := ds.Scaled(scale)
	g, err := scaled.Generate(opts.Seed)
	if err != nil {
		return nil, err
	}
	res, err := RunGraph(scaled.Name, g, opts)
	if err != nil {
		return nil, err
	}
	res.Dataset, res.Scale = scaled, max(scale, 1)
	return res, nil
}

// RunGraph measures opts.Algos on the three systems over g, named name.
func RunGraph(name string, g *graph.CSR, opts Options) (*FigureResult, error) {
	opts = opts.withDefaults()
	dir, cleanup, err := workDir(opts.WorkDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	a, err := newArtifacts(name, g, dir)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, alg := range opts.Algos {
		for _, sys := range AllSystems {
			cells = append(cells, cell{arts: a, algo: alg, system: sys})
		}
	}
	rows, err := measure(cells, opts)
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		Dataset: gen.Dataset{Name: name, Vertices: g.NumVertices, Edges: g.NumEdges},
		Scale:   1, Runs: opts.Runs, BFSRoot: a.bfsRoot, Rows: rows,
	}, nil
}

// PaperFigure describes what the paper reports for one figure, so runs
// can print expectation next to measurement.
type PaperFigure struct {
	ID       string
	Dataset  string
	Expected string // the paper's qualitative result, §VI-B
}

// The paper's figures and their reported shapes.
var PaperFigures = []PaperFigure{
	{"fig7", "google", "small graph fits in memory: GPSA LOSES — ~4x slower than GraphChi/X-Stream on PageRank, ~GraphChi on CC (X-Stream best), ~1.2x slower on BFS"},
	{"fig8", "soc-pokec", "GPSA wins: PR ~1.3x vs GraphChi / ~8x vs X-Stream; CC ~4x vs GraphChi / ~6x vs X-Stream; BFS ~= GraphChi, X-Stream worst"},
	{"fig9", "soc-liveJournal", "GPSA wins: PR ~1.3x vs GraphChi / ~10x vs X-Stream; CC ~4x / ~6x; BFS ~= GraphChi, X-Stream worst"},
	{"fig10", "twitter-2010", "GPSA wins: PR 2x vs GraphChi / 8x vs X-Stream; CC 5x / 4x; BFS 6x vs X-Stream (GraphChi BFS did not finish)"},
	{"fig11", "all", "CPU utilization: X-Stream ~100% always; GraphChi lowest; GPSA proportional to workload"},
}

// FigureForDataset maps a dataset name to its paper figure.
func FigureForDataset(name string) (PaperFigure, bool) {
	for _, f := range PaperFigures {
		if f.Dataset == name {
			return f, true
		}
	}
	return PaperFigure{}, false
}

func (r *FigureResult) row(sys System, alg Algo) (Row, bool) {
	for _, c := range r.Rows {
		if c.System == sys && c.Algo == alg {
			return c, true
		}
	}
	return Row{}, false
}

// Speedup returns how many times faster GPSA is than sys on alg
// (values < 1 mean GPSA is slower).
func (r *FigureResult) Speedup(sys System, alg Algo) (float64, bool) {
	g, ok1 := r.row(SysGPSA, alg)
	o, ok2 := r.row(sys, alg)
	if !ok1 || !ok2 || g.Seconds == 0 {
		return 0, false
	}
	return o.Seconds / g.Seconds, true
}

// FormatFigure renders one figure's measurements with GPSA speedups, in
// the layout of the paper's grouped bar charts.
func FormatFigure(id string, r *FigureResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%d vertices, %d edges", id, r.Dataset.Name, r.Dataset.Vertices, r.Dataset.Edges)
	if r.Scale > 1 {
		fmt.Fprintf(&b, ", scaled 1/%d", r.Scale)
	}
	fmt.Fprintf(&b, ")\n")
	if f, ok := FigureForDataset(strings.SplitN(r.Dataset.Name, "@", 2)[0]); ok {
		fmt.Fprintf(&b, "paper: %s\n", f.Expected)
	}
	fmt.Fprintf(&b, "%-10s %-10s %12s %12s %8s %8s\n", "Algo", "System", "Seconds", "Sec/Step", "Steps", "CPU%")
	for _, alg := range AllAlgos {
		for _, sys := range AllSystems {
			c, ok := r.row(sys, alg)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-10s %-10s %12.4f %12.4f %8d %7.1f%%\n",
				alg, sys, c.Seconds, c.PerStep(), c.Supersteps, c.CPUPercent)
		}
		if su1, ok := r.Speedup(SysGraphChi, alg); ok {
			su2, _ := r.Speedup(SysXStream, alg)
			fmt.Fprintf(&b, "%-10s GPSA speedup: %.2fx vs GraphChi, %.2fx vs X-Stream\n", alg, su1, su2)
		}
	}
	return b.String()
}
