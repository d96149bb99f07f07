// Command gpsa runs a graph algorithm on a preprocessed CSR graph with
// the GPSA engine.
//
// Usage:
//
//	gpsa -graph web.gpsa -algo pagerank [-supersteps 5] [-top 10]
//	gpsa -graph web.gpsa -algo bfs -root 0
//	gpsa -graph web-sym.gpsa -algo cc
//	gpsa -graph weighted.gpsa -algo sssp -root 0
//	gpsa -graph web.gpsa -algo deltapagerank -epsilon 1e-5
//
// With -values the vertex values live in a persistent file; a run killed
// or interrupted mid-way leaves that file cleanly resumable, and adding
// -resume continues the computation instead of starting over:
//
//	gpsa -graph web.gpsa -algo pagerank -values pr.gpvf
//	^C (or SIGKILL) ...
//	gpsa -graph web.gpsa -algo pagerank -values pr.gpvf -resume
//
// SIGINT/SIGTERM stop the run gracefully: an in-flight superstep is
// rolled back and the value file sealed before the process exits (code
// 3) with the exact resume command on stderr.
//
// Exit codes:
//
//	0  success
//	2  usage error (bad flags, unknown algorithm, missing graph)
//	3  run stopped but left resumable state in -values (interrupt,
//	   injected crash, recoverable failure)
//	4  fatal: the run failed with no resumable state (or -values is
//	   corrupt beyond the format's rollback guarantees)
//
// Prepare inputs with gpsa-preprocess (from an edge list) or gpsa-gen
// (synthetic).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/diskio"
	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/scrub"
)

const (
	exitOK          = 0
	exitUsage       = 2
	exitRecoverable = 3
	exitFatal       = 4
)

func main() { os.Exit(run()) }

func run() int {
	var (
		graphPath   = flag.String("graph", "", "path to a .gpsa CSR graph (required)")
		algo        = flag.String("algo", "pagerank", "algorithm: pagerank, deltapagerank, bfs, cc, sssp")
		root        = flag.Uint("root", 0, "root/source vertex for bfs and sssp")
		supersteps  = flag.Int("supersteps", 0, "superstep cap (0 = algorithm default); on -resume, the total budget counted from superstep 0")
		top         = flag.Int("top", 10, "print the top-N vertices by result value")
		epsilon     = flag.Float64("epsilon", 0, "delta-pagerank residual cut-off (0 = 1e-4)")
		dispatchers = flag.Int("dispatchers", 0, "dispatcher actors (0 = auto)")
		computers   = flag.Int("computers", 0, "computing actors (0 = auto)")
		values      = flag.String("values", "", "persistent vertex value file (enables crash recovery and -resume)")
		resume      = flag.Bool("resume", false, "continue the computation recorded in -values instead of starting over")
		retries     = flag.Int("retries", 0, "retry a failed superstep up to N times with rollback (0 = fail fast)")
		watchdog    = flag.Duration("watchdog", 0, "abort a superstep when a worker is silent this long (0 = off)")
		dump        = flag.String("dump", "", "write per-vertex results as 'vertex<TAB>value' lines to this file")
		verbose     = flag.Bool("v", false, "print per-superstep progress")
		scrubIvl    = flag.Duration("scrub-interval", 0, "background scrub cadence: re-verify the graph CSR checksum and the sealed -values digest while running (0 disables)")
		scrubRate   = flag.Int64("scrub-throttle", 0, "scrub read rate cap in bytes/sec (0 = unthrottled)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		tracefile   = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: gpsa -graph g.gpsa [-algo pagerank] [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(w, `
exit codes:
  0  success
  2  usage error
  3  run stopped but -values holds resumable state (rerun with -resume)
  4  fatal: run failed with no resumable state`)
	}
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("gpsa", buildinfo.Version())
		return 0
	}
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "gpsa: -graph is required")
		flag.Usage()
		return exitUsage
	}
	if *resume && *values == "" {
		fmt.Fprintln(os.Stderr, "gpsa: -resume requires -values")
		return exitUsage
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile, *tracefile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsa: %v\n", err)
		return exitUsage
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "gpsa: %v\n", err)
		}
	}()
	if armed, err := fault.ActivateFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "gpsa: %v\n", err)
		return exitUsage
	} else if armed && *verbose {
		fmt.Fprintf(os.Stderr, "gpsa: fault plan armed from %s\n", fault.EnvVar)
	}

	// SIGINT/SIGTERM cancel the run's context: the engine rolls back the
	// in-flight superstep and seals the value file before we exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := gpsa.RunOptions{
		Supersteps:  *supersteps,
		Context:     ctx,
		Resume:      *resume,
		Dispatchers: *dispatchers,
		Computers:   *computers,
		ValuesPath:  *values,
		StepRetries: *retries,
		Watchdog:    *watchdog,
	}
	if *verbose {
		opts.Progress = func(s gpsa.StepStats) {
			fmt.Fprintf(os.Stderr, "superstep %d: %d messages, %d updates, %v\n",
				s.Step, s.Messages, s.Updates, s.Duration)
		}
	}

	// The per-engine scrub actor re-verifies the input CSR checksum (and
	// the value file's sealed digest, once sealed — a mid-run file is
	// skipped as crash recovery's province) alongside the run. A corrupt
	// input is quarantined so no later run trusts it; this run already
	// holds its own mapping and finishes, with the finding on stderr.
	if *scrubIvl > 0 {
		sc := scrub.New(scrub.Options{
			Interval:            *scrubIvl,
			ThrottleBytesPerSec: *scrubRate,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "gpsa: "+format+"\n", args...)
			},
		})
		sc.Add(scrub.Target{Path: *graphPath, Kind: scrub.KindGraph})
		if *values != "" {
			sc.Add(scrub.Target{Path: *values, Kind: scrub.KindValues})
		}
		sc.Start()
		defer sc.Stop()
	}

	var res *gpsa.Result
	var scores []float64
	switch *algo {
	case "pagerank":
		scores, res, err = gpsa.PageRank(*graphPath, opts)
	case "deltapagerank":
		scores, res, err = gpsa.DeltaPageRank(*graphPath, *epsilon, opts)
	case "sssp":
		scores, res, err = gpsa.SSSP(*graphPath, gpsa.VertexID(*root), opts)
	case "bfs":
		var levels []int64
		levels, res, err = gpsa.BFS(*graphPath, gpsa.VertexID(*root), opts)
		if err == nil {
			scores = make([]float64, len(levels))
			reached := 0
			for v, l := range levels {
				scores[v] = float64(l)
				if l >= 0 {
					reached++
				}
			}
			fmt.Printf("reached %d of %d vertices from root %d\n", reached, len(levels), *root)
		}
	case "cc":
		var labels []gpsa.VertexID
		labels, res, err = gpsa.Components(*graphPath, opts)
		if err == nil {
			comp := map[gpsa.VertexID]int{}
			for _, l := range labels {
				comp[l]++
			}
			fmt.Printf("%d components (largest %d of %d vertices)\n",
				len(comp), largest(comp), len(labels))
			scores = make([]float64, len(labels))
			for v, l := range labels {
				scores[v] = float64(l)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "gpsa: unknown algorithm %q\n", *algo)
		return exitUsage
	}
	if err != nil {
		return fail(err, *graphPath, *algo, *values)
	}

	if res.Recovery != "" {
		fmt.Printf("resumed at superstep %d (%s recovery)\n", res.ResumedFrom, res.Recovery)
	}
	// The pool as resolved: a resume runs at the dispatcher count its
	// value file records, whatever -dispatchers says.
	fmt.Printf("ran %d supersteps on %d×%d actors in %v (%d messages, %d updates, converged=%v)\n",
		res.Supersteps, len(res.DispatcherMessages), len(res.ComputerUpdates), res.Duration, res.Messages, res.Updates, res.Converged)
	if res.Retries > 0 {
		fmt.Printf("recovered from %d superstep failure(s) by rollback and retry\n", res.Retries)
	}
	if *dump != "" {
		if err := dumpScores(*dump, scores); err != nil {
			fmt.Fprintf(os.Stderr, "gpsa: %v\n", err)
			return exitFatal
		}
		fmt.Printf("wrote %s\n", *dump)
	}
	if *top > 0 && (*algo == "pagerank" || *algo == "deltapagerank") {
		printTop(scores, *top)
	}
	return exitOK
}

// fail reports a run error and classifies it: a run that left resumable
// state in -values exits 3 with the exact resume command; anything else
// is fatal.
func fail(err error, graphPath, algo, values string) int {
	fmt.Fprintf(os.Stderr, "gpsa: %v\n", err)
	if values != "" && (errors.Is(err, context.Canceled) || gpsa.Resumable(values)) {
		if info, ierr := gpsa.InspectValues(values); ierr == nil {
			fmt.Fprintf(os.Stderr, "gpsa: %d supersteps are sealed in %s\n", info.Epoch, values)
		}
		fmt.Fprintf(os.Stderr, "gpsa: resume with: %s -graph %s -algo %s -values %s -resume\n",
			os.Args[0], graphPath, algo, values)
		return exitRecoverable
	}
	return exitFatal
}

func dumpScores(path string, scores []float64) error {
	f, err := diskio.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for v, s := range scores {
		fmt.Fprintf(bw, "%d\t%g\n", v, s)
	}
	if err := bw.Flush(); err != nil {
		f.Close() //lint:syncerr error path: the flush already failed and is being reported
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:syncerr error path: the sync already failed and is being reported
		return err
	}
	return f.Close()
}

func largest(m map[gpsa.VertexID]int) int {
	best := 0
	for _, n := range m {
		if n > best {
			best = n
		}
	}
	return best
}

func printTop(scores []float64, n int) {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if n > len(idx) {
		n = len(idx)
	}
	fmt.Printf("top %d vertices:\n", n)
	for _, v := range idx[:n] {
		fmt.Printf("  %8d  %g\n", v, scores[v])
	}
}
