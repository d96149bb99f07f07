// Package bench regenerates the paper's evaluation: Table I (datasets),
// Figures 7–10 (PageRank / Connected Components / BFS runtimes on four
// graphs across GPSA, GraphChi and X-Stream) and Figure 11 (CPU
// utilization), plus the actor-count scalability sweep and the
// out-of-core COST ladder. It gates nothing: the numbers a change is
// judged by come from the repository benchmark (benchmark/).
//
// Methodology follows §VI-B: each measurement is the elapsed time of (up
// to) five supersteps, averaged over three runs, on R-MAT graphs shaped
// like Table I at a recorded scale factor. Preprocessing (CSR conversion,
// sharding, partitioning) is excluded from timings, as in the paper.
package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphchi"
	"repro/internal/metrics"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
	"repro/internal/xstream"
)

// System names one of the three engines.
type System string

// The three systems of the paper's comparison.
const (
	SysGPSA     System = "GPSA"
	SysGraphChi System = "GraphChi"
	SysXStream  System = "X-Stream"
)

// AllSystems is the paper's comparison set.
var AllSystems = []System{SysGPSA, SysGraphChi, SysXStream}

// Algo names one of the paper's three workloads.
type Algo string

// The paper's workloads.
const (
	AlgoPageRank Algo = "PageRank"
	AlgoCC       Algo = "CC"
	AlgoBFS      Algo = "BFS"
)

// AllAlgos is the paper's workload set.
var AllAlgos = []Algo{AlgoPageRank, AlgoCC, AlgoBFS}

// Options configures one figure run.
type Options struct {
	Dataset    gen.Dataset
	Scale      int64 // divide the dataset dimensions by this factor
	Seed       int64
	Supersteps int // measurement length (default 5, the paper's)
	Runs       int // averaging runs (default 3, the paper's)
	WorkDir    string
	Systems    []System
	Algos      []Algo

	// Shards and Partitions size the baselines (defaults 4 and 4).
	Shards     int
	Partitions int
	// GPSA worker counts (0 = engine defaults).
	Dispatchers int
	Computers   int
}

func (o Options) withDefaults() Options {
	if o.Supersteps <= 0 {
		o.Supersteps = 5
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Systems) == 0 {
		o.Systems = AllSystems
	}
	if len(o.Algos) == 0 {
		o.Algos = AllAlgos
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Partitions <= 0 {
		o.Partitions = 4
	}
	return o
}

// Cell is one bar of a figure: a (system, algorithm) measurement.
type Cell struct {
	System     System
	Algo       Algo
	Seconds    float64 // elapsed seconds for the measured supersteps, averaged
	PerStep    float64 // Seconds / supersteps executed
	Supersteps int
	CPUPercent float64 // average CPU utilization during the run
	Runs       int
}

// FigureResult holds every cell of one figure.
type FigureResult struct {
	Dataset gen.Dataset // scaled dimensions
	Scale   int64
	Cells   []Cell
}

// Artifacts holds the preprocessed on-disk inputs shared by runs.
type Artifacts struct {
	Dir     string
	G       *graph.CSR // directed graph (PageRank, BFS)
	GSym    *graph.CSR // symmetrized (CC)
	CSRPath string
	CSRSym  string
	XS      *xstream.Layout
	XSSym   *xstream.Layout
	BFSRoot graph.VertexID
}

// BuildArtifacts generates the scaled dataset and preprocesses it for
// every engine (GraphChi shards are program-specific and built per run).
func BuildArtifacts(ds gen.Dataset, scale, seed int64, dir string) (*Artifacts, error) {
	return BuildArtifactsK(ds, scale, seed, dir, 4)
}

// BuildArtifactsK is BuildArtifacts with an explicit X-Stream partition
// count.
func BuildArtifactsK(ds gen.Dataset, scale, seed int64, dir string, partitions int) (*Artifacts, error) {
	scaled := ds.Scaled(scale)
	g, err := scaled.Generate(seed)
	if err != nil {
		return nil, err
	}
	return BuildArtifactsFromCSR(g, dir, partitions)
}

// BuildArtifactsFromCSR preprocesses an arbitrary in-memory graph (e.g. a
// user's own dataset) for every engine.
func BuildArtifactsFromCSR(g *graph.CSR, dir string, partitions int) (*Artifacts, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	a := &Artifacts{Dir: dir, G: g, GSym: g.Symmetrize()}
	a.CSRPath = filepath.Join(dir, "graph.gpsa")
	a.CSRSym = filepath.Join(dir, "graph-sym.gpsa")
	if err := graph.WriteFile(a.CSRPath, a.G); err != nil {
		return nil, err
	}
	if err := graph.WriteFile(a.CSRSym, a.GSym); err != nil {
		return nil, err
	}
	var err error
	if a.XS, err = xstream.Preprocess(a.G, filepath.Join(dir, "xs"), partitions); err != nil {
		return nil, err
	}
	if a.XSSym, err = xstream.Preprocess(a.GSym, filepath.Join(dir, "xs-sym"), partitions); err != nil {
		return nil, err
	}
	a.BFSRoot = maxDegreeVertex(g)
	return a, nil
}

// maxDegreeVertex picks the BFS root: the vertex with the largest
// out-degree, giving a traversal that actually covers the graph.
func maxDegreeVertex(g *graph.CSR) graph.VertexID {
	var best graph.VertexID
	var bestDeg uint32
	for v := int64(0); v < g.NumVertices; v++ {
		if d := g.OutDegree(graph.VertexID(v)); d > bestDeg {
			bestDeg = d
			best = graph.VertexID(v)
		}
	}
	return best
}

// RunFigure measures every (system, algorithm) cell for one dataset —
// one of the paper's Figures 7–10 (and, with the CPU column, Fig. 11).
func RunFigure(opts Options) (*FigureResult, error) {
	opts = opts.withDefaults()
	if opts.WorkDir == "" {
		dir, err := os.MkdirTemp("", "gpsa-bench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.WorkDir = dir
	}
	a, err := BuildArtifactsK(opts.Dataset, opts.Scale, opts.Seed, opts.WorkDir, opts.Partitions)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{Dataset: opts.Dataset.Scaled(opts.Scale), Scale: opts.Scale}
	for _, alg := range opts.Algos {
		for _, sys := range opts.Systems {
			cell, err := MeasureCell(a, sys, alg, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", sys, alg, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// MeasureCell runs one (system, algorithm) measurement, averaging
// opts.Runs runs.
func MeasureCell(a *Artifacts, sys System, alg Algo, opts Options) (Cell, error) {
	opts = opts.withDefaults()
	cell := Cell{System: sys, Algo: alg, Runs: opts.Runs}
	for r := 0; r < opts.Runs; r++ {
		var steps int
		var err error
		sample := metrics.CPUSample{}
		run := func() error {
			switch sys {
			case SysGPSA:
				steps, err = runGPSA(a, alg, opts, r, &sample)
			case SysGraphChi:
				steps, err = runGraphChi(a, alg, opts, r, &sample)
			case SysXStream:
				steps, err = runXStream(a, alg, opts, r, &sample)
			default:
				err = fmt.Errorf("unknown system %q", sys)
			}
			return err
		}
		if err := run(); err != nil {
			return cell, err
		}
		cell.Seconds += sample.Wall.Seconds()
		cell.CPUPercent += sample.Percent
		cell.Supersteps = steps
	}
	cell.Seconds /= float64(opts.Runs)
	cell.CPUPercent /= float64(opts.Runs)
	if cell.Supersteps > 0 {
		cell.PerStep = cell.Seconds / float64(cell.Supersteps)
	}
	return cell, nil
}

func gpsaProgram(a *Artifacts, alg Algo) (core.Program, string) {
	switch alg {
	case AlgoPageRank:
		return algorithms.PageRank{}, a.CSRPath
	case AlgoCC:
		return algorithms.ConnectedComponents{}, a.CSRSym
	default:
		return algorithms.BFS{Root: a.BFSRoot}, a.CSRPath
	}
}

func runGPSA(a *Artifacts, alg Algo, opts Options, r int, sample *metrics.CPUSample) (int, error) {
	prog, path := gpsaProgram(a, alg)
	gf, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		return 0, err
	}
	defer gf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	vpath := filepath.Join(a.Dir, fmt.Sprintf("values-%d.gpvf", r))
	vf, err := vertexfile.Create(vpath, gf.NumVertices, prog.Init)
	if err != nil {
		return 0, err
	}
	defer os.Remove(vpath)
	defer vf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	eng, err := core.New(gf, vf, prog, core.Config{
		MaxSupersteps: opts.Supersteps,
		Dispatchers:   opts.Dispatchers,
		Computers:     opts.Computers,
	})
	if err != nil {
		return 0, err
	}
	var res *core.Result
	*sample = metrics.MeasureCPU(func() {
		res, err = eng.Run()
	})
	if err != nil {
		return 0, err
	}
	return res.Supersteps, nil
}

func runGraphChi(a *Artifacts, alg Algo, opts Options, r int, sample *metrics.CPUSample) (int, error) {
	// Shards carry mutable per-program edge values, so each run reshards
	// (untimed, like the paper's excluded preprocessing).
	dir := filepath.Join(a.Dir, fmt.Sprintf("chi-%s-%d", alg, r))
	var prog graphchi.Program
	var init graphchi.EdgeInit
	g := a.G
	switch alg {
	case AlgoPageRank:
		p := algorithms.ChiPageRank{}
		prog, init = p, p.EdgeInit
	case AlgoCC:
		p := algorithms.ChiCC{}
		prog, init = p, p.EdgeInit
		g = a.GSym
	default:
		p := algorithms.ChiBFS{Root: a.BFSRoot}
		prog, init = p, p.EdgeInit
	}
	layout, err := graphchi.Shard(g, dir, opts.Shards, init)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	eng, err := graphchi.NewEngine(layout, prog, graphchi.Config{MaxSupersteps: opts.Supersteps})
	if err != nil {
		return 0, err
	}
	defer eng.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	var res *graphchi.Result
	*sample = metrics.MeasureCPU(func() {
		res, err = eng.Run()
	})
	if err != nil {
		return 0, err
	}
	return res.Supersteps, nil
}

func runXStream(a *Artifacts, alg Algo, opts Options, r int, sample *metrics.CPUSample) (int, error) {
	var prog core.Program
	layout := a.XS
	switch alg {
	case AlgoPageRank:
		prog = algorithms.PageRank{}
	case AlgoCC:
		prog = algorithms.ConnectedComponents{}
		layout = a.XSSym
	default:
		prog = algorithms.BFS{Root: a.BFSRoot}
	}
	eng, err := xstream.NewEngine(layout, prog, xstream.Config{MaxSupersteps: opts.Supersteps})
	if err != nil {
		return 0, err
	}
	defer eng.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	var res *xstream.Result
	*sample = metrics.MeasureCPU(func() {
		res, err = eng.Run()
	})
	if err != nil {
		return 0, err
	}
	return res.Supersteps, nil
}
