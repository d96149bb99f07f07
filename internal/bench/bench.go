// Package bench regenerates the paper's evaluation: Table I (datasets),
// Figures 7–10 (PageRank / Connected Components / BFS runtimes on four
// graphs across GPSA, GraphChi and X-Stream), Figure 11 (CPU
// utilization), the actor-count scalability sweep, the out-of-core COST
// ladder and the same three-system comparison on a user's own graph. It
// gates nothing: the numbers a change is judged by come from the
// repository benchmark (benchmark/).
//
// Every experiment but Table I is a list of cells — (graph, workload,
// system, GPSA configuration, cores) — measured by one runner. The
// methodology follows §VI-B: each measurement is the elapsed time of (up
// to) five supersteps, averaged over three runs, on R-MAT graphs shaped
// like Table I at a recorded scale factor. Preprocessing (CSR conversion,
// sharding, partitioning) is excluded from timings, as in the paper.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

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

// Baseline engine geometry: GraphChi shards and X-Stream partitions.
const (
	shards     = 4
	partitions = 4
)

// Options sets how every experiment measures.
type Options struct {
	Seed       int64  // dataset generator seed
	Supersteps int    // measured supersteps per run (default 5, the paper's)
	Runs       int    // runs averaged per cell (default 3, the paper's)
	WorkDir    string // scratch directory (default: a temporary one, removed afterwards)
	Algos      []Algo // workloads of a comparison or the scale sweep (default AllAlgos)
	// MemLimit is the Go soft heap cap in bytes on the scale sweep's
	// GPSA runs (default 1 GiB). It keeps the sweep out-of-core honest:
	// graph data must come from the disk mappings, not a heap copy.
	MemLimit int64
}

func (o Options) withDefaults() Options {
	if o.Supersteps <= 0 {
		o.Supersteps = 5
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if len(o.Algos) == 0 {
		o.Algos = AllAlgos
	}
	if o.MemLimit <= 0 {
		o.MemLimit = 1 << 30
	}
	return o
}

// workDir returns dir, or a fresh temporary directory when dir is empty,
// and the function that removes what it created.
func workDir(dir string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", "gpsa-bench-*")
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}

// Row is one measured cell: its coordinates and the average of its runs.
// Its JSON form is a cell of COST_<rev>.json.
type Row struct {
	Shape  string `json:"shape"`
	Algo   Algo   `json:"algo"`
	System System `json:"system"`
	Cores  int    `json:"cores"` // GOMAXPROCS of the runs (0 = the process's)
	// Dispatchers and Computers are the pool a GPSA run ran.
	Dispatchers int     `json:"-"`
	Computers   int     `json:"-"`
	Seconds     float64 `json:"seconds"` // elapsed seconds of the measured supersteps
	Supersteps  int     `json:"supersteps"`
	Messages    int64   `json:"messages,omitempty"`     // GPSA: messages generated
	MsgsPerSec  float64 `json:"msgs_per_sec,omitempty"` // GPSA
	AllocBytes  uint64  `json:"alloc_bytes,omitempty"`  // GPSA: heap allocated during a run
	CPUPercent  float64 `json:"-"`                      // average CPU utilization during a run
}

// PerStep is the average seconds per executed superstep.
func (r Row) PerStep() float64 {
	if r.Supersteps == 0 {
		return 0
	}
	return r.Seconds / float64(r.Supersteps)
}

// artifacts holds one graph preprocessed for every engine (GraphChi
// shards are program-specific and built per run).
type artifacts struct {
	name      string
	dir       string
	g, gsym   *graph.CSR // directed (PageRank, BFS) and symmetrized (CC)
	csr, csrS string
	xs, xsS   *xstream.Layout
	bfsRoot   graph.VertexID
}

// newArtifacts writes g, named name, into dir for every engine.
func newArtifacts(name string, g *graph.CSR, dir string) (*artifacts, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	a := &artifacts{
		name: name, dir: dir, g: g, gsym: g.Symmetrize(),
		csr: filepath.Join(dir, "graph.gpsa"), csrS: filepath.Join(dir, "graph-sym.gpsa"),
		bfsRoot: maxDegreeVertex(g),
	}
	if err := graph.WriteFile(a.csr, a.g); err != nil {
		return nil, err
	}
	if err := graph.WriteFile(a.csrS, a.gsym); err != nil {
		return nil, err
	}
	var err error
	if a.xs, err = xstream.Preprocess(a.g, filepath.Join(dir, "xs"), partitions); err != nil {
		return nil, err
	}
	if a.xsS, err = xstream.Preprocess(a.gsym, filepath.Join(dir, "xs-sym"), partitions); err != nil {
		return nil, err
	}
	return a, nil
}

// generated builds the artifacts of the R-MAT graph shaped like ds.
func generated(ds gen.Dataset, seed int64, dir string) (*artifacts, error) {
	g, err := ds.Generate(seed)
	if err != nil {
		return nil, fmt.Errorf("bench: generating %s: %w", ds.Name, err)
	}
	return newArtifacts(ds.Name, g, dir)
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

// cell is one measurement: a workload on one system over one graph, run
// at GOMAXPROCS cores (0 = the process's). GPSA cells also carry the
// engine configuration (the runner sets MaxSupersteps) and a Go soft
// heap cap in bytes (0 = none).
type cell struct {
	arts     *artifacts
	algo     Algo
	system   System
	cfg      core.Config
	cores    int
	memLimit int64
}

// measure is the runner: it runs every cell opts.Runs times, in order,
// and returns one row per cell averaging its runs (§VI-B).
func measure(cells []cell, opts Options) ([]Row, error) {
	rows := make([]Row, 0, len(cells))
	for _, c := range cells {
		row := Row{Shape: c.arts.name, Algo: c.algo, System: c.system, Cores: c.cores}
		for r := 0; r < opts.Runs; r++ {
			out, err := c.run(r, opts.Supersteps)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s/%s: %w", row.Shape, c.system, c.algo, err)
			}
			row.Seconds += out.sample.Wall.Seconds()
			row.CPUPercent += out.sample.Percent
			row.AllocBytes += out.alloc
			row.Supersteps = out.supersteps
			if res := out.gpsa; res != nil {
				row.Messages = res.Messages
				row.Dispatchers, row.Computers = len(res.DispatcherMessages), len(res.ComputerUpdates)
			}
		}
		row.Seconds /= float64(opts.Runs)
		row.CPUPercent /= float64(opts.Runs)
		row.AllocBytes /= uint64(opts.Runs)
		if row.Seconds > 0 {
			row.MsgsPerSec = float64(row.Messages) / row.Seconds
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// outcome is what one measured engine run reports.
type outcome struct {
	sample     metrics.CPUSample
	supersteps int
	gpsa       *core.Result // GPSA runs only
	alloc      uint64       // GPSA runs only: heap bytes the run allocated
}

// run is the r-th measured run of c (r names its scratch files).
func (c cell) run(r, supersteps int) (outcome, error) {
	if c.cores > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.cores))
	}
	switch c.system {
	case SysGPSA:
		cfg := c.cfg
		cfg.MaxSupersteps = supersteps
		prog, path := c.arts.gpsaProgram(c.algo)
		return runGPSA(prog, path, filepath.Join(c.arts.dir, fmt.Sprintf("values-%d.gpvf", r)), cfg, c.memLimit)
	case SysGraphChi:
		return runGraphChi(c.arts, c.algo, supersteps, r)
	default:
		return runXStream(c.arts, c.algo, supersteps)
	}
}

func (a *artifacts) gpsaProgram(alg Algo) (core.Program, string) {
	switch alg {
	case AlgoPageRank:
		return algorithms.PageRank{}, a.csr
	case AlgoCC:
		return algorithms.ConnectedComponents{}, a.csrS
	default:
		return algorithms.BFS{Root: a.bfsRoot}, a.csr
	}
}

// runGPSA is the one measured GPSA run: the CSR at csr opened from
// disk, values in a fresh on-disk file at vpath (removed afterwards),
// the engine run under a soft heap cap of memLimit bytes (0 = none).
func runGPSA(prog core.Program, csr, vpath string, cfg core.Config, memLimit int64) (outcome, error) {
	gf, err := graph.OpenFile(csr, mmap.ModeAuto)
	if err != nil {
		return outcome{}, err
	}
	defer gf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	vf, err := vertexfile.Create(vpath, gf.NumVertices, prog.Init)
	if err != nil {
		return outcome{}, err
	}
	defer os.Remove(vpath)
	defer vf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	eng, err := core.New(gf, vf, prog, cfg)
	if err != nil {
		return outcome{}, err
	}
	if memLimit > 0 {
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(memLimit))
		runtime.GC() // start the capped run from a collected heap
	}
	var before, after runtime.MemStats
	var res *core.Result
	runtime.ReadMemStats(&before)
	sample := metrics.MeasureCPU(func() {
		res, err = eng.Run()
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return outcome{}, err
	}
	return outcome{sample: sample, supersteps: res.Supersteps, gpsa: res, alloc: after.TotalAlloc - before.TotalAlloc}, nil
}

func runGraphChi(a *artifacts, alg Algo, supersteps, r int) (outcome, error) {
	// Shards carry mutable per-program edge values, so each run reshards
	// (untimed, like the paper's excluded preprocessing).
	dir := filepath.Join(a.dir, fmt.Sprintf("chi-%s-%d", alg, r))
	var prog graphchi.Program
	var init graphchi.EdgeInit
	g := a.g
	switch alg {
	case AlgoPageRank:
		p := algorithms.ChiPageRank{}
		prog, init = p, p.EdgeInit
	case AlgoCC:
		p := algorithms.ChiCC{}
		prog, init = p, p.EdgeInit
		g = a.gsym
	default:
		p := algorithms.ChiBFS{Root: a.bfsRoot}
		prog, init = p, p.EdgeInit
	}
	layout, err := graphchi.Shard(g, dir, shards, init)
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	eng, err := graphchi.NewEngine(layout, prog, graphchi.Config{MaxSupersteps: supersteps})
	if err != nil {
		return outcome{}, err
	}
	defer eng.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	var res *graphchi.Result
	sample := metrics.MeasureCPU(func() {
		res, err = eng.Run()
	})
	if err != nil {
		return outcome{}, err
	}
	return outcome{sample: sample, supersteps: res.Supersteps}, nil
}

func runXStream(a *artifacts, alg Algo, supersteps int) (outcome, error) {
	var prog core.Program
	layout := a.xs
	switch alg {
	case AlgoPageRank:
		prog = algorithms.PageRank{}
	case AlgoCC:
		prog = algorithms.ConnectedComponents{}
		layout = a.xsS
	default:
		prog = algorithms.BFS{Root: a.bfsRoot}
	}
	eng, err := xstream.NewEngine(layout, prog, xstream.Config{MaxSupersteps: supersteps})
	if err != nil {
		return outcome{}, err
	}
	defer eng.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	var res *xstream.Result
	sample := metrics.MeasureCPU(func() {
		res, err = eng.Run()
	})
	if err != nil {
		return outcome{}, err
	}
	return outcome{sample: sample, supersteps: res.Supersteps}, nil
}
