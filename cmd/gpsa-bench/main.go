// Command gpsa-bench regenerates the paper's evaluation tables and
// figures: Table I (datasets), Figures 7–10 (PageRank / CC / BFS runtimes
// on four graphs across GPSA, GraphChi and X-Stream), Figure 11 (CPU
// utilization), the actor-count scalability sweep and the out-of-core
// COST ladder. With -graph it runs the same three-system comparison on
// a user's own CSR graph. Gated performance numbers come from
// benchmark/run.sh.
//
// Usage:
//
//	gpsa-bench -exp all                 # everything, default scales
//	gpsa-bench -exp fig8 -scale 8       # one figure at a chosen scale
//	gpsa-bench -exp table1
//	gpsa-bench -exp scale -shapes base/16
//	gpsa-bench -graph web.gpsa [-algo pagerank] [-supersteps 5] [-runs 3]
//
// Absolute times depend on the host; the paper's qualitative expectation
// is printed next to each figure so the shape can be compared directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/buildinfo"
	"repro/internal/diskio"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mmap"
	"repro/internal/prof"
)

// writeFigureCSV saves one figure's cells for external plotting.
func writeFigureCSV(dir, id string, res *bench.FigureResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := diskio.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	if err := res.WriteCSV(f); err != nil {
		f.Close() //lint:syncerr error path: the write already failed and is being reported
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:syncerr error path: the sync already failed and is being reported
		return err
	}
	return f.Close()
}

// parseShapes turns the -shapes flag into a dataset list: each entry is
// a dataset name ("base" for the 131k-vertex R-MAT, otherwise a Table
// I name) with an optional "/denominator" scale suffix.
func parseShapes(s string) ([]gen.Dataset, error) {
	var out []gen.Dataset
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		name, denom := tok, int64(1)
		if i := strings.IndexByte(tok, '/'); i >= 0 {
			name = tok[:i]
			d, err := strconv.ParseInt(tok[i+1:], 10, 64)
			if err != nil || d < 1 {
				return nil, fmt.Errorf("bad shape %q: denominator must be a positive integer", tok)
			}
			denom = d
		}
		var ds gen.Dataset
		if name == "base" {
			ds = bench.BaselineShape
		} else {
			var ok bool
			if ds, ok = gen.FindDataset(name); !ok {
				return nil, fmt.Errorf("unknown dataset %q (want base, google, soc-pokec, soc-liveJournal or twitter-2010)", name)
			}
		}
		out = append(out, ds.Scaled(denom))
	}
	return out, nil
}

// parseCores turns the -cores flag into the GPSA core sweep.
func parseCores(s string) ([]int, error) {
	if s == "" {
		return bench.DefaultCoreSweep(), nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad core count %q", tok)
		}
		out = append(out, n)
	}
	return out, nil
}

// experiments is every id -exp accepts. "all" runs each of them except
// scale, the hours-long COST sweep.
var experiments = []string{"table1", "fig7", "fig8", "fig9", "fig10", "fig11", "scalability", "all", "scale"}

// figures maps each of Figures 7–10 to its dataset and the default
// scale that keeps a run laptop-sized; -scale overrides it.
var figures = map[string]struct {
	ds    gen.Dataset
	scale int64
}{
	"fig7":  {gen.Google, 1},
	"fig8":  {gen.SocPokec, 4},
	"fig9":  {gen.LiveJournal, 8},
	"fig10": {gen.Twitter2010, 64},
}

// workloads maps each -algo value to the workloads it measures.
var workloads = map[string][]bench.Algo{
	"pagerank": {bench.AlgoPageRank},
	"cc":       {bench.AlgoCC},
	"bfs":      {bench.AlgoBFS},
	"all":      bench.AllAlgos,
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", ")+" (scale, the COST sweep, is not part of all)")
		graphPath = flag.String("graph", "", "compare the three systems on this .gpsa CSR graph instead of running an experiment")
		algo      = flag.String("algo", "all", "-graph: workload: pagerank, cc, bfs, all")
		scale     = flag.Int64("scale", 0, "override the per-dataset default scale (1 = full size)")
		seed      = flag.Int64("seed", 1, "dataset generator seed")
		runs      = flag.Int("runs", 3, "averaging runs per cell (paper: 3)")
		steps     = flag.Int("supersteps", 5, "measured supersteps per run (paper: 5)")
		work      = flag.String("workdir", "", "scratch directory (default: temp)")
		csvDir    = flag.String("csv", "", "also write each figure's cells as CSV into this directory")

		rev        = flag.String("rev", "", "scale: revision label recorded in the report")
		costJSON   = flag.String("cost-json", "", "scale: write the COST report to this file (COST_<rev>.json)")
		shapes     = flag.String("shapes", "base,soc-liveJournal,twitter-2010/16", "scale: comma-separated dataset shapes, each 'name' or 'name/denominator' (base, google, soc-pokec, soc-liveJournal, twitter-2010)")
		memLimit   = flag.Int64("mem-limit", 0, "scale: Go soft heap cap in bytes for GPSA runs (0 = 1 GiB)")
		cores      = flag.String("cores", "", "scale: comma-separated GPSA core sweep (default: powers of two up to NumCPU)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		tracefile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("gpsa-bench", buildinfo.Version())
		return
	}

	// Every flag value is checked before any dataset is generated or
	// graph opened: a usage error exits 2 having done no work.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gpsa-bench: "+format+"\n", args...)
		os.Exit(2)
	}
	if !slices.Contains(experiments, *exp) {
		usage("unknown experiment %q; valid: %s", *exp, strings.Join(experiments, ", "))
	}
	algos, ok := workloads[*algo]
	switch {
	case !ok:
		usage("unknown workload -algo %q; valid: pagerank, cc, bfs, all", *algo)
	case *graphPath != "" && *exp != "all":
		usage("-graph runs its own comparison; it takes no -exp %s", *exp)
	case *graphPath == "" && *algo != "all":
		usage("-algo %s applies only with -graph", *algo)
	case *runs < 1 || *steps < 1:
		usage("-runs and -supersteps must be at least 1")
	case *scale < 0 || *memLimit < 0:
		usage("-scale and -mem-limit must not be negative")
	}
	shapeList, err := parseShapes(*shapes)
	if err != nil {
		usage("-shapes: %v", err)
	}
	coreList, err := parseCores(*cores)
	if err != nil {
		usage("-cores: %v", err)
	}
	opts := bench.Options{Seed: *seed, Supersteps: *steps, Runs: *runs, WorkDir: *work, Algos: algos, MemLimit: *memLimit}

	stopProf, err := prof.Start(*cpuprofile, *memprofile, *tracefile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-bench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-bench: %v\n", err)
		}
	}()
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "gpsa-bench: %s: %v\n", what, err)
		os.Exit(1)
	}

	fmt.Printf("host: %d CPUs (GOMAXPROCS %d); paper testbed: 32 cores, 16 GB RAM, 7200RPM disk\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if metrics.ProcessCPUTime() == 0 {
		fmt.Println("note: process CPU time unavailable; CPU% columns will read 0")
	}

	if *graphPath != "" {
		if err := compareGraph(*graphPath, opts); err != nil {
			fail(*graphPath, err)
		}
		return
	}

	scaleOr := func(def int64) int64 {
		if *scale > 0 {
			return *scale
		}
		return def
	}
	measureFigure := func(id string) *bench.FigureResult {
		res, err := bench.RunFigure(figures[id].ds, scaleOr(figures[id].scale), opts)
		if err != nil {
			fail(id, err)
		}
		return res
	}

	want := func(id string) bool { return *exp == "all" || *exp == id }

	if want("table1") {
		sc := scaleOr(64)
		rows, err := bench.RunTable1(sc, *seed, *work)
		if err != nil {
			fail("table1", err)
		}
		fmt.Printf("Table I (datasets, generated at 1/%d scale)\n%s\n", sc, bench.FormatTable1(rows))
	}
	measured := map[string]*bench.FigureResult{}
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10"} {
		if want(id) {
			res := measureFigure(id)
			measured[id] = res
			fmt.Println(bench.FormatFigure(id, res))
			if *csvDir != "" {
				if err := writeFigureCSV(*csvDir, id, res); err != nil {
					fail(id, err)
				}
			}
		}
	}
	if want("fig11") {
		// Fig. 11 is the CPU% column of the two mid-size graphs' figures,
		// measured here unless this invocation already ran them.
		fmt.Println("fig11 — CPU utilization (paper: X-Stream ~100%, GraphChi lowest, GPSA workload-proportional)")
		fmt.Printf("%-18s %-10s %-10s %8s\n", "Dataset", "Algo", "System", "CPU%")
		for _, id := range []string{"fig8", "fig9"} {
			res := measured[id]
			if res == nil {
				res = measureFigure(id)
			}
			for _, c := range res.Rows {
				fmt.Printf("%-18s %-10s %-10s %7.1f%%\n", res.Dataset.Name, c.Algo, c.System, c.CPUPercent)
			}
		}
		fmt.Println()
	}
	if want("scalability") {
		sc := scaleOr(8)
		rows, err := bench.RunScalability(gen.SocPokec, sc, bench.ScalabilityActors, opts)
		if err != nil {
			fail("scalability", err)
		}
		fmt.Printf("scalability (GPSA PageRank on soc-pokec@1/%d, actor-count sweep — the paper's \"thousands of actors\")\n%s\n",
			sc, bench.FormatScalability(rows))
	}
	if *exp == "scale" {
		rep, err := bench.RunScale(shapeList, coreList, opts)
		if err != nil {
			fail("scale", err)
		}
		rep.Rev = *rev
		if rep.Rev == "" {
			rep.Rev = buildinfo.Revision()
		}
		fmt.Printf("scale — out-of-core COST sweep (heap cap %d MiB)\n%s",
			rep.MemLimit>>20, bench.FormatScale(rep))
		if *costJSON != "" {
			if err := rep.WriteJSON(*costJSON); err != nil {
				fail("scale", err)
			}
			fmt.Printf("wrote %s\n", *costJSON)
		}
	}
}

// compareGraph measures opts.Algos on the three systems over the CSR
// graph at path and prints each row with its time against GPSA's.
func compareGraph(path string, opts bench.Options) error {
	f, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		return err
	}
	g, err := f.CSR()
	f.Close() //lint:syncerr read-only mapping of the input graph
	if err != nil {
		return err
	}
	res, err := bench.RunGraph(path, g, opts)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges; %d supersteps x %d runs; BFS root %d\n\n",
		g.NumVertices, g.NumEdges, opts.Supersteps, opts.Runs, res.BFSRoot)
	fmt.Printf("%-10s %-10s %12s %12s %8s %10s\n", "Algo", "System", "Seconds", "Sec/Step", "CPU%", "vs GPSA")
	for _, r := range res.Rows {
		speedup := "-"
		if su, ok := res.Speedup(r.System, r.Algo); ok && r.System != bench.SysGPSA {
			speedup = fmt.Sprintf("%.2fx", su)
		}
		fmt.Printf("%-10s %-10s %12.4f %12.4f %7.1f%% %10s\n",
			r.Algo, r.System, r.Seconds, r.PerStep(), r.CPUPercent, speedup)
	}
	return nil
}
