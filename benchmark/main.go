// Command benchmark is the repository's benchmark: five workloads run
// through the entry points the CLIs use, every output checked against
// internal/algorithms/reference.go. See README.md.
//
//	bash benchmark/run.sh --workload pr-rmat18 --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -sets 2          # every workload, stability table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/buildinfo"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the result line; empty runs the suite")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same graph and roots")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = end-to-end metrics")
		toy     = flag.Bool("toy", false, "2^10-vertex graphs: the smoke test's scale")
		home    = flag.String("home", "", "the benchmark's directory (default: ./benchmark, or . when run from inside it)")

		only = flag.String("only", "", "suite: comma-separated workloads to run (default all)")
		sets = flag.Int("sets", 1, "suite: sets of runs; 2 compares the medians of two sets of the same code")
		reps = flag.Int("reps", 5, "suite: runs per workload and set, each with its own seed, interleaved across workloads")

		child = flag.String("child", "", "internal: run one measured phase and print its report")
		dir   = flag.String("dir", "", "internal: the parent's work directory")
		out   = flag.String("out", "", "internal: where the job leaves its output")
		roots = flag.String("roots", "", "internal: BFS roots")
	)
	flag.Parse()
	// What a user gets: default pool sizes under at most four processors.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if *home == "" {
		*home = "."
		if _, err := os.Stat("benchmark/run.sh"); err == nil {
			*home = "benchmark"
		}
	}

	if *child != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rs, err := parseRoots(*roots)
		if err != nil {
			fatal(err)
		}
		rep, err := runChild(childArgs{Phase: *child, Workload: w, Dir: *dir, Out: *out, Roots: rs, Seconds: *seconds})
		if err != nil {
			fatal(err)
		}
		json.NewEncoder(os.Stdout).Encode(rep)
		return
	}

	if *name == "" {
		os.Exit(suite(suiteConfig{Only: *only, Sets: *sets, Reps: *reps, Seed: *seed, Seconds: *seconds, Trace: *trace, Toy: *toy, Home: *home}))
	}
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fatal(fmt.Errorf("unknown workload %q; the workloads are %s", *name, strings.Join(names, ", ")))
	}
	res, err := runWorkload(runConfig{W: w, Seed: *seed, Seconds: *seconds, Toy: *toy, Home: *home}, *trace == 1)
	if err != nil {
		fatal(err)
	}
	json.NewEncoder(os.Stdout).Encode(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func loadAverage() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Fields(string(b))[0]
}

// runWorkload is one invocation for one workload: it prints every
// metric by name with unit and direction, and returns the result line.
func runWorkload(cfg runConfig, trace bool) (result, error) {
	bi := buildinfo.Get()
	fmt.Printf("# cpus=%d gomaxprocs=%d go=%s revision=%s load1=%s seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), bi.GoVersion, bi.Revision, loadAverage(), cfg.Seconds, trace)
	r, err := prepare(cfg)
	if err != nil {
		return result{}, err
	}
	defer r.cleanup()

	var values map[string]metricValue
	defs := endToEnd
	if trace {
		defs = perLayer
		values, err = r.traced()
	} else {
		var s samples
		if s, err = r.measure(); err == nil {
			values = s.metrics()
			last := s.reports[len(s.reports)-1]
			fmt.Printf("# %d set-ups, %d jobs in %.2fs; the last child: %d supersteps, peak RSS %.0f MB\n",
				len(s.setupS), len(s.wallS), s.elapsedS, last.Steps, last.PeakRSSMB)
			if cfg.W.Kind != kindServe { // every batch job made is reported; a serve run has ~150
				fmt.Printf("# set-up s: %.3f\n# job wall s: %.3f\n# job cpu s: %.3f\n", s.setupS, s.wallS, s.cpuS)
			}
		}
	}
	if err != nil {
		return result{}, err
	}
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf(", bound %.2f", d.Bound)
		}
		fmt.Printf("metric %-40s %16.6g %-6s (%s is better%s)\n", d.Name, values[d.Name].Value, d.Unit, d.Better, bound)
	}
	fmt.Printf("# failed_share %d/%d\n", r.failed, r.attempted)
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: values}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
