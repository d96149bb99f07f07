package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/diskio"
	"repro/internal/gen"
)

// The scale experiment answers the COST question (McSherry et al.,
// "Scalability! But at what COST?"): how many cores does GPSA need
// before it beats a competent single-threaded baseline? It sweeps
// R-MAT shapes from the hot-path baseline up to paper-scale
// soc-LiveJournal dimensions, runs GPSA out-of-core — CSR and values
// on disk, a Go heap cap enforced, the engine at its default pool —
// across a 1..NumCPU core sweep, and measures the single-threaded
// GraphChi and X-Stream reference engines on the same inputs. The crossover core
// count per algorithm is the COST metric, recorded in COST_<rev>.json.

// BaselineShape is the smallest rung of the sweep: an R-MAT graph of
// 131k vertices and 2M edges.
var BaselineShape = gen.Dataset{Name: "rmat-131k", Vertices: 131072, Edges: 2097152}

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
	Shapes     []gen.Dataset `json:"shapes"`
	Cores      []int         `json:"cores"`
	Cells      []Row         `json:"cells"`
	// Reference maps "<shape>/<algo>" to the faster of the two
	// single-threaded baselines, in seconds.
	Reference map[string]float64 `json:"reference_seconds"`
	// Crossover maps algorithm -> the smallest core count at which
	// GPSA beat the best single-threaded reference on the largest
	// shape; 0 means no crossover within the sweep (the COST verdict
	// "unbounded" at this scale).
	Crossover map[string]int `json:"crossover_cores"`
}

// WriteJSON writes the report, indented, to path.
func (r *CostReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return diskio.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// RunScale executes the sweep over shapes, in increasing size, and
// assembles the COST report (its Rev is the caller's to set). Per shape
// it measures the single-threaded references, then GPSA at each entry of
// cores — the GOMAXPROCS of the run, at whose default pool the engine
// runs — under the opts.MemLimit heap cap. References run uncapped,
// which only flatters them (a conservative COST).
func RunScale(shapes []gen.Dataset, cores []int, opts Options) (*CostReport, error) {
	opts = opts.withDefaults()
	dir, cleanup, err := workDir(opts.WorkDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rep := &CostReport{
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Seed:       opts.Seed,
		Supersteps: opts.Supersteps,
		Runs:       opts.Runs,
		MemLimit:   opts.MemLimit,
		Shapes:     shapes,
		Cores:      cores,
		Reference:  map[string]float64{},
		Crossover:  map[string]int{},
	}
	for si, shape := range shapes {
		sdir := filepath.Join(dir, fmt.Sprintf("shape-%d", si))
		a, err := generated(shape, opts.Seed, sdir)
		if err != nil {
			return nil, err
		}
		var refs, sweep []cell
		for _, alg := range opts.Algos {
			for _, sys := range []System{SysGraphChi, SysXStream} {
				refs = append(refs, cell{arts: a, algo: alg, system: sys, cores: 1})
			}
			for _, c := range cores {
				sweep = append(sweep, cell{arts: a, algo: alg, system: SysGPSA, cores: c, memLimit: opts.MemLimit})
			}
		}
		refRows, err := measure(refs, opts)
		if err != nil {
			return nil, err
		}
		// Out-of-core GPSA sweep: drop the heap-resident CSR copies
		// GraphChi resharded from, so the measured runs stream from the
		// disk mappings under the cap instead of leaning on a warm heap
		// image.
		a.g, a.gsym = nil, nil
		runtime.GC()
		sweepRows, err := measure(sweep, opts)
		if err != nil {
			return nil, err
		}
		ref := map[Algo]float64{}
		for _, r := range refRows {
			if ref[r.Algo] == 0 || r.Seconds < ref[r.Algo] {
				ref[r.Algo] = r.Seconds
			}
			rep.Reference[shape.Name+"/"+string(r.Algo)] = ref[r.Algo]
		}
		for _, r := range sweepRows {
			if si == len(shapes)-1 && r.Seconds <= ref[r.Algo] && rep.Crossover[string(r.Algo)] == 0 {
				rep.Crossover[string(r.Algo)] = r.Cores
			}
		}
		rep.Cells = append(append(rep.Cells, refRows...), sweepRows...)
		// Each shape's artifacts can be gigabytes; reclaim before the
		// next rung.
		os.RemoveAll(sdir)
	}
	return rep, nil
}

// FormatScale renders the report for the console.
func FormatScale(rep *CostReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-10s %-10s %6s %10s %14s %12s\n",
		"Shape", "Algo", "System", "cores", "seconds", "msgs/sec", "alloc")
	for _, c := range rep.Cells {
		alloc := ""
		if c.System == SysGPSA {
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
