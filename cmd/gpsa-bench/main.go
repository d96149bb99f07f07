// Command gpsa-bench regenerates the paper's evaluation tables and
// figures: Table I (datasets), Figures 7–10 (PageRank / CC / BFS runtimes
// on four graphs across GPSA, GraphChi and X-Stream), Figure 11 (CPU
// utilization), the actor-count scalability sweep and the out-of-core
// COST ladder. Gated performance numbers come from benchmark/run.sh.
//
// Usage:
//
//	gpsa-bench -exp all                 # everything, default scales
//	gpsa-bench -exp fig8 -scale 8       # one figure at a chosen scale
//	gpsa-bench -exp table1
//	gpsa-bench -exp scale -shapes base/16
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
	"repro/internal/metrics"
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
	if s == "" {
		return nil, nil // bench defaults
	}
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
		return nil, nil // bench default: powers of two up to NumCPU
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

// defaultScales keeps default runs laptop-sized; -scale overrides.
var defaultScales = map[string]int64{
	"google":          1,
	"soc-pokec":       4,
	"soc-liveJournal": 8,
	"twitter-2010":    64,
}

// experiments is every id -exp accepts. "all" runs each of them except
// scale, the hours-long COST sweep.
var experiments = []string{"table1", "fig7", "fig8", "fig9", "fig10", "fig11", "scalability", "all", "scale"}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", ")+" (scale, the COST sweep, is not part of all)")
		scale  = flag.Int64("scale", 0, "override the per-dataset default scale (1 = full size)")
		seed   = flag.Int64("seed", 1, "dataset generator seed")
		runs   = flag.Int("runs", 3, "averaging runs per cell (paper: 3)")
		steps  = flag.Int("supersteps", 5, "measured supersteps per run (paper: 5)")
		work   = flag.String("workdir", "", "scratch directory (default: temp)")
		csvDir = flag.String("csv", "", "also write each figure's cells as CSV into this directory")

		rev        = flag.String("rev", "", "scale: revision label recorded in the report")
		costJSON   = flag.String("cost-json", "", "scale: write the COST report to this file (COST_<rev>.json)")
		shapes     = flag.String("shapes", "", "scale: comma-separated dataset shapes, each 'name' or 'name/denominator' (base, google, soc-pokec, soc-liveJournal, twitter-2010); default base,soc-liveJournal,twitter-2010/16")
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
	if !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "gpsa-bench: unknown experiment %q; valid: %s\n", *exp, strings.Join(experiments, ", "))
		os.Exit(2)
	}

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

	fmt.Printf("host: %d CPUs (GOMAXPROCS %d); paper testbed: 32 cores, 16 GB RAM, 7200RPM disk\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if metrics.ProcessCPUTime() == 0 {
		fmt.Println("note: process CPU time unavailable; CPU% columns will read 0")
	}

	figures := map[string]gen.Dataset{
		"fig7":  gen.Google,
		"fig8":  gen.SocPokec,
		"fig9":  gen.LiveJournal,
		"fig10": gen.Twitter2010,
	}

	measureFigure := func(id string, ds gen.Dataset) *bench.FigureResult {
		sc := defaultScales[ds.Name]
		if *scale > 0 {
			sc = *scale
		}
		res, err := bench.RunFigure(bench.Options{
			Dataset:    ds,
			Scale:      sc,
			Seed:       *seed,
			Runs:       *runs,
			Supersteps: *steps,
			WorkDir:    *work,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		return res
	}

	want := func(id string) bool { return *exp == "all" || *exp == id }

	if want("table1") {
		sc := int64(64)
		if *scale > 0 {
			sc = *scale
		}
		rows, err := bench.RunTable1(sc, *seed, *work)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-bench: table1: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("Table I (datasets, generated at 1/%d scale)\n%s\n", sc, bench.FormatTable1(rows))
	}
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10"} {
		if want(id) {
			res := measureFigure(id, figures[id])
			fmt.Println(bench.FormatFigure(id, res))
			if *csvDir != "" {
				if err := writeFigureCSV(*csvDir, id, res); err != nil {
					fmt.Fprintf(os.Stderr, "gpsa-bench: %s: %v\n", id, err)
					os.Exit(1)
				}
			}
		}
	}
	if want("fig11") {
		// Fig. 11 is the CPU% column measured across datasets; rerun the
		// two mid-size graphs and print utilization only.
		fmt.Println("fig11 — CPU utilization (paper: X-Stream ~100%, GraphChi lowest, GPSA workload-proportional)")
		fmt.Printf("%-18s %-10s %-10s %8s\n", "Dataset", "Algo", "System", "CPU%")
		for _, ds := range []gen.Dataset{gen.SocPokec, gen.LiveJournal} {
			res := measureFigure("fig11", ds)
			for _, c := range res.Cells {
				fmt.Printf("%-18s %-10s %-10s %7.1f%%\n", res.Dataset.Name, c.Algo, c.System, c.CPUPercent)
			}
		}
		fmt.Println()
	}
	if want("scalability") {
		sc := int64(8)
		if *scale > 0 {
			sc = *scale
		}
		pts, err := bench.RunScalability(bench.ScalabilityOptions{
			Dataset: gen.SocPokec, Scale: sc, Seed: *seed, Runs: *runs, Supersteps: *steps, WorkDir: *work,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-bench: scalability: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("scalability (GPSA PageRank on soc-pokec@1/%d, actor-count sweep — the paper's \"thousands of actors\")\n%s\n",
			sc, bench.FormatScalability(pts))
	}
	if *exp == "scale" {
		if *rev == "" {
			*rev = buildinfo.Revision()
		}
		shapeList, err := parseShapes(*shapes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-bench: scale: %v\n", err)
			os.Exit(1)
		}
		coreList, err := parseCores(*cores)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-bench: scale: %v\n", err)
			os.Exit(1)
		}
		rep, err := bench.RunScale(bench.ScaleOptions{
			Shapes:     shapeList,
			Seed:       *seed,
			Supersteps: *steps,
			Runs:       1,
			WorkDir:    *work,
			Cores:      coreList,
			MemLimit:   *memLimit,
			Rev:        *rev,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-bench: scale: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("scale — out-of-core COST sweep (heap cap %d MiB)\n%s",
			rep.MemLimit>>20, bench.FormatScale(rep))
		if *costJSON != "" {
			if err := rep.WriteJSON(*costJSON); err != nil {
				fmt.Fprintf(os.Stderr, "gpsa-bench: scale: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *costJSON)
		}
	}
}
