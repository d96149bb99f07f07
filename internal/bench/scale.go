package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"path/filepath"
	"repro/internal/diskio"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// The scale experiment answers the COST question (McSherry et al.,
// "Scalability! But at what COST?"): how many cores does GPSA need
// before it beats a competent single-threaded baseline? It sweeps
// R-MAT shapes from the hot-path baseline up to paper-scale
// soc-LiveJournal dimensions, runs GPSA out-of-core — CSR and values
// on disk, a Go heap cap enforced, async prefetch on — across a
// 1..NumCPU core sweep, and measures the single-threaded GraphChi and
// X-Stream reference engines on the same inputs. The crossover core
// count per algorithm is the COST metric, recorded in COST_<rev>.json.

// ScaleOptions configures the scale sweep.
type ScaleOptions struct {
	// Shapes are the dataset shapes to sweep, in increasing size; the
	// crossover summary is computed on the last (largest) one.
	Shapes []gen.Dataset
	Seed   int64
	// Supersteps per measured run (default 5, the paper's).
	Supersteps int
	// Runs per cell; the best run counts (default 1 — the sweep is
	// large and disk-bound, re-run for error bars instead).
	Runs    int
	WorkDir string
	// Cores is the GPSA core sweep (default: powers of two up to
	// NumCPU, NumCPU included). Each entry bounds GOMAXPROCS for the
	// run; references always run single-threaded.
	Cores []int
	// MemLimit is the Go soft heap cap in bytes enforced on the
	// measured GPSA runs (default 1 GiB): the explicit memory cap
	// that keeps the sweep out-of-core honest — graph data must come
	// from the disk mappings, not a heap-resident copy. References
	// run uncapped, which only flatters them (a conservative COST).
	MemLimit int64
	// NoPrefetch disables the async CSR prefetch actors that scale
	// GPSA runs otherwise enable.
	NoPrefetch bool
	Algos      []Algo
	Rev        string
}

func (o ScaleOptions) withDefaults() ScaleOptions {
	if len(o.Shapes) == 0 {
		o.Shapes = DefaultScaleShapes()
	}
	if o.Supersteps <= 0 {
		o.Supersteps = 5
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if len(o.Cores) == 0 {
		o.Cores = DefaultCoreSweep()
	}
	if o.MemLimit <= 0 {
		o.MemLimit = 1 << 30
	}
	if len(o.Algos) == 0 {
		o.Algos = AllAlgos
	}
	return o
}

// BaselineShape is the smallest rung of the sweep: an R-MAT graph of
// 131k vertices and 2M edges.
var BaselineShape = gen.Dataset{Name: "rmat-131k", Vertices: 131072, Edges: 2097152}

// DefaultScaleShapes is the issue's ladder: baseline, paper-scale
// soc-LiveJournal (4.8M/69M), and twitter-2010 at 1/16 (2.6M/91.8M).
func DefaultScaleShapes() []gen.Dataset {
	return []gen.Dataset{
		BaselineShape,
		gen.LiveJournal,
		gen.Twitter2010.Scaled(16),
	}
}

// DefaultCoreSweep returns 1, 2, 4, ... capped at NumCPU, with NumCPU
// itself always included.
func DefaultCoreSweep() []int {
	n := runtime.NumCPU()
	var cores []int
	for c := 1; c < n; c *= 2 {
		cores = append(cores, c)
	}
	return append(cores, n)
}

// ScaleCell is one measured run of the sweep. Reference systems run
// single-threaded (Cores 1); GPSA cells carry the core count and the
// heap bytes the measured run allocated.
type ScaleCell struct {
	Shape      string  `json:"shape"`
	Algo       string  `json:"algo"`
	System     string  `json:"system"`
	Cores      int     `json:"cores"`
	Seconds    float64 `json:"seconds"`
	Supersteps int     `json:"supersteps"`
	Messages   int64   `json:"messages,omitempty"`     // GPSA: messages generated
	MsgsPerSec float64 `json:"msgs_per_sec,omitempty"` // GPSA
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`  // GPSA: heap allocated during the run
}

// CostReport is the machine-readable artifact (COST_<rev>.json).
type CostReport struct {
	Rev        string        `json:"rev"`
	GoVersion  string        `json:"go_version"`
	CPUs       int           `json:"cpus"`
	Timestamp  string        `json:"timestamp"`
	Seed       int64         `json:"seed"`
	Supersteps int           `json:"supersteps"`
	Runs       int           `json:"runs"`
	MemLimit   int64         `json:"mem_limit_bytes"`
	Prefetch   bool          `json:"prefetch"`
	Shapes     []gen.Dataset `json:"shapes"`
	Cores      []int         `json:"cores"`
	Cells      []ScaleCell   `json:"cells"`
	// Reference maps "<shape>/<algo>" to the faster of the two
	// single-threaded baselines, in seconds.
	Reference map[string]float64 `json:"reference_seconds"`
	// Crossover maps algorithm -> the smallest core count at which
	// GPSA beat the best single-threaded reference on the largest
	// shape; 0 means no crossover within the sweep (the COST verdict
	// "unbounded" at this scale).
	Crossover map[string]int `json:"crossover_cores"`
	// Prefetch activity across the whole sweep (core.prefetch.*
	// counter deltas): windows issued and bytes covered by WILLNEED.
	PrefetchWindows int64 `json:"prefetch_windows"`
	PrefetchBytes   int64 `json:"prefetch_bytes"`
}

// WriteJSON writes the report, indented, to path.
func (r *CostReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return diskio.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// memCapped runs fn under the configured soft heap cap, restoring the
// previous limit afterwards.
func memCapped(limit int64, fn func() error) error {
	prev := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(prev)
	return fn()
}

// runGPSAScale is one out-of-core GPSA run: CSR opened from disk,
// values in a fresh on-disk file, prefetch per opts.
func runGPSAScale(a *Artifacts, alg Algo, cores int, opts ScaleOptions) (*core.Result, uint64, error) {
	prog, path := gpsaProgram(a, alg)
	gf, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		return nil, 0, err
	}
	defer gf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract
	vpath := filepath.Join(a.Dir, "scale-values.gpvf")
	vf, err := vertexfile.Create(vpath, gf.NumVertices, prog.Init)
	if err != nil {
		return nil, 0, err
	}
	defer os.Remove(vpath)
	defer vf.Close() //lint:syncerr benchmark harness teardown of scratch files; no durability contract

	workers := cores / 2
	if workers < 1 {
		workers = 1
	}
	eng, err := core.New(gf, vf, prog, core.Config{
		MaxSupersteps: opts.Supersteps,
		Dispatchers:   workers,
		Computers:     workers,
		Prefetch:      !opts.NoPrefetch,
	})
	if err != nil {
		return nil, 0, err
	}
	var res *core.Result
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = memCapped(opts.MemLimit, func() error {
		res, err = eng.Run()
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, err
	}
	return res, after.TotalAlloc - before.TotalAlloc, nil
}

// RunScale executes the full sweep and assembles the COST report.
func RunScale(opts ScaleOptions) (*CostReport, error) {
	opts = opts.withDefaults()
	if opts.WorkDir == "" {
		dir, err := os.MkdirTemp("", "gpsa-scale-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.WorkDir = dir
	}
	rep := &CostReport{
		Rev:        opts.Rev,
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Seed:       opts.Seed,
		Supersteps: opts.Supersteps,
		Runs:       opts.Runs,
		MemLimit:   opts.MemLimit,
		Prefetch:   !opts.NoPrefetch,
		Shapes:     opts.Shapes,
		Cores:      opts.Cores,
		Reference:  map[string]float64{},
		Crossover:  map[string]int{},
	}
	refOpts := Options{Supersteps: opts.Supersteps, Runs: opts.Runs, Seed: opts.Seed}
	windows0 := metrics.Counter(metrics.CtrPrefetchWindows)
	bytes0 := metrics.Counter(metrics.CtrPrefetchBytes)

	for si, shape := range opts.Shapes {
		dir := filepath.Join(opts.WorkDir, fmt.Sprintf("shape-%d", si))
		g, err := shape.Generate(opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("bench: generating %s: %w", shape.Name, err)
		}
		a, err := BuildArtifactsFromCSR(g, dir, 4)
		if err != nil {
			return nil, fmt.Errorf("bench: preprocessing %s: %w", shape.Name, err)
		}
		largest := si == len(opts.Shapes)-1

		// Single-threaded references first: GraphChi resharding wants
		// the in-memory CSR (untimed preprocessing, as the paper
		// excludes it).
		ref := map[Algo]float64{}
		for _, alg := range opts.Algos {
			for _, sys := range []System{SysGraphChi, SysXStream} {
				cell, err := MeasureCell(a, sys, alg, refOpts)
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%s/%s: %w", shape.Name, sys, alg, err)
				}
				rep.Cells = append(rep.Cells, ScaleCell{
					Shape: shape.Name, Algo: string(alg), System: string(sys),
					Cores: 1, Seconds: cell.Seconds, Supersteps: cell.Supersteps,
				})
				if ref[alg] == 0 || cell.Seconds < ref[alg] {
					ref[alg] = cell.Seconds
				}
			}
			rep.Reference[shape.Name+"/"+string(alg)] = ref[alg]
		}

		// Out-of-core GPSA sweep: drop the heap-resident CSR copies so
		// the measured runs stream from the disk mappings under the
		// cap instead of leaning on a warm heap image.
		a.G, a.GSym = nil, nil
		runtime.GC()
		for _, alg := range opts.Algos {
			for _, cores := range opts.Cores {
				prev := runtime.GOMAXPROCS(cores)
				best := ScaleCell{Shape: shape.Name, Algo: string(alg), System: string(SysGPSA), Cores: cores}
				var runErr error
				for r := 0; r < opts.Runs; r++ {
					start := time.Now()
					res, alloc, err := runGPSAScale(a, alg, cores, opts)
					wall := time.Since(start).Seconds()
					if err != nil {
						runErr = err
						break
					}
					if best.Seconds == 0 || wall < best.Seconds {
						best.Seconds = wall
						best.Supersteps = res.Supersteps
						best.Messages = res.Messages
						best.AllocBytes = alloc
					}
				}
				runtime.GOMAXPROCS(prev)
				if runErr != nil {
					return nil, fmt.Errorf("bench: %s/GPSA@%d/%s: %w", shape.Name, cores, alg, runErr)
				}
				if best.Seconds > 0 {
					best.MsgsPerSec = float64(best.Messages) / best.Seconds
				}
				rep.Cells = append(rep.Cells, best)
				if largest && best.Seconds <= ref[alg] && rep.Crossover[string(alg)] == 0 {
					rep.Crossover[string(alg)] = cores
				}
			}
		}
		// Each shape's artifacts can be gigabytes; reclaim before the
		// next rung.
		os.RemoveAll(dir)
	}
	rep.PrefetchWindows = metrics.Counter(metrics.CtrPrefetchWindows) - windows0
	rep.PrefetchBytes = metrics.Counter(metrics.CtrPrefetchBytes) - bytes0
	return rep, nil
}

// FormatScale renders the report for the console.
func FormatScale(rep *CostReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-10s %-10s %6s %10s %14s %12s\n",
		"Shape", "Algo", "System", "cores", "seconds", "msgs/sec", "alloc")
	for _, c := range rep.Cells {
		alloc := ""
		if c.System == string(SysGPSA) {
			alloc = fmt.Sprintf("%.1fMB", float64(c.AllocBytes)/(1<<20))
		}
		fmt.Fprintf(&b, "%-22s %-10s %-10s %6d %10.3f %14.0f %12s\n",
			c.Shape, c.Algo, c.System, c.Cores, c.Seconds, c.MsgsPerSec, alloc)
	}
	b.WriteString("\nCOST crossover (cores to beat the best single-threaded reference, largest shape):\n")
	for _, alg := range AllAlgos {
		if n, ok := rep.Crossover[string(alg)]; ok && n > 0 {
			fmt.Fprintf(&b, "  %-10s %d core(s)\n", alg, n)
		} else {
			fmt.Fprintf(&b, "  %-10s no crossover within %v cores\n", alg, rep.Cores)
		}
	}
	return b.String()
}
