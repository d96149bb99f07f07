// Command gpsa-serve runs GPSA as a long-lived graph service: graphs
// stay mmap'd and hot across requests, and concurrent jobs are
// multiplexed over per-job supervised actor systems with admission
// control, budgets, and graceful degradation.
//
// Usage:
//
//	gpsa-serve -addr :8090 -graphs /data/graphs -jobs /data/jobs
//
// Submit work and poll it:
//
//	curl -d '{"graph":"web.gpsa","algo":"pagerank"}' localhost:8090/v1/jobs
//	curl localhost:8090/v1/jobs/j-000000
//
// Robustness contract (see docs/SERVING.md for the runbook):
//
//   - A full admission queue sheds with 429 + Retry-After; a quarantined
//     (graph, program) pair sheds with 503 + Retry-After.
//   - A failing jobs disk (ENOSPC, EIO on the journal, free space below
//     -min-free) flips the server into read-only degraded mode: POSTs
//     shed with 503 + Retry-After, /readyz reports disk-degraded, reads
//     keep serving, and a background probe restores admissions once
//     writes succeed again. -scrub-interval adds a background scrub
//     actor that re-verifies resident graph and sealed value file
//     checksums, quarantining anything corrupt.
//   - SIGTERM drains: admissions stop, /readyz flips to 503, in-flight
//     jobs are rolled back to their last committed superstep and their
//     value files sealed, the job journal records every non-terminal
//     job, and the process exits 0.
//   - After a SIGKILL (or any crash), restarting with -resume-jobs
//     replays the journal and resumes every interrupted job from its
//     sealed value file — the final values are bit-identical to a run
//     that was never disturbed.
//
// Exit codes: 0 clean shutdown (including SIGTERM drain), 1 runtime
// failure, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fault"
	"repro/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr       = flag.String("addr", ":8090", "HTTP listen address")
		graphDir   = flag.String("graphs", "", "directory of servable .gpsa graphs (required)")
		jobsDir    = flag.String("jobs", "", "directory for value files and the job journal (required)")
		queueCap   = flag.Int("queue-cap", 64, "bounded admission queue capacity (full = 429)")
		workers    = flag.Int("workers", 4, "concurrent job executors")
		perGraph   = flag.Int("per-graph", 2, "concurrent jobs per graph")
		retries    = flag.Int("job-retries", 2, "job-tier retries on transient failure")
		backoff    = flag.Duration("retry-backoff", 100*time.Millisecond, "first retry backoff (doubles per retry)")
		brkN       = flag.Int("breaker-threshold", 3, "consecutive failures that quarantine a (graph, program) pair")
		brkCool    = flag.Duration("breaker-cooldown", 30*time.Second, "quarantine duration")
		deadline   = flag.Duration("deadline", 5*time.Minute, "default per-job wall-clock budget")
		maxSteps   = flag.Int("max-supersteps", 200, "hard superstep cap per job")
		stepRetry  = flag.Int("step-retries", 2, "in-run superstep retries (rollback + re-execute)")
		watchdog   = flag.Duration("watchdog", 60*time.Second, "per-superstep worker silence bound")
		resumeJobs = flag.Bool("resume-jobs", false, "replay the job journal and resume interrupted jobs")
		minFree    = flag.Int64("min-free", 0, "free bytes required in the jobs dir to admit work (0 disables; below it the server degrades read-only)")
		diskRetry  = flag.Int("disk-retries", 3, "journal checkpoint write attempts before the server degrades")
		probeIvl   = flag.Duration("probe-interval", 2*time.Second, "degraded-mode disk recovery probe cadence")
		scrubIvl   = flag.Duration("scrub-interval", 0, "background scrub cadence for resident graphs and sealed value files (0 disables)")
		scrubRate  = flag.Int64("scrub-throttle", 0, "scrub read rate cap in bytes/sec (0 = unthrottled)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "bound on graceful drain at shutdown")
		verbose    = flag.Bool("v", false, "log job lifecycle events")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: gpsa-serve -graphs DIR -jobs DIR [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println("gpsa-serve", buildinfo.Version())
		return 0
	}
	if *graphDir == "" || *jobsDir == "" {
		fmt.Fprintln(os.Stderr, "gpsa-serve: -graphs and -jobs are required")
		flag.Usage()
		return 2
	}
	if armed, err := fault.ActivateFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-serve: %v\n", err)
		return 2
	} else if armed && *verbose {
		fmt.Fprintf(os.Stderr, "gpsa-serve: fault plan armed from %s\n", fault.EnvVar)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "gpsa-serve: "+format+"\n", args...)
		}
	}

	// SIGTERM/SIGINT trigger the drain path; the server's own context
	// stays alive until the drain finishes so in-flight checkpoints
	// complete (jobs are cancelled by Drain, not by this context).
	ctx := context.Background()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	opts := serve.Options{
		Addr:             *addr,
		GraphDir:         *graphDir,
		JobsDir:          *jobsDir,
		QueueCap:         *queueCap,
		Workers:          *workers,
		PerGraph:         *perGraph,
		JobRetries:       *retries,
		RetryBackoff:     *backoff,
		BreakerThreshold: *brkN,
		BreakerCooldown:  *brkCool,
		DefaultDeadline:  *deadline,
		MaxSupersteps:    *maxSteps,
		StepRetries:      *stepRetry,
		Watchdog:         *watchdog,
		ResumeJobs:       *resumeJobs,
		MinFreeBytes:     *minFree,
		DiskRetries:      *diskRetry,
		ProbeInterval:    *probeIvl,
		ScrubInterval:    *scrubIvl,
		ScrubThrottle:    *scrubRate,
		Logf:             logf,
	}
	srv, err := serve.NewServer(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-serve: %v\n", err)
		return 1
	}
	srv.Start()
	fmt.Fprintf(os.Stderr, "gpsa-serve: %s listening on %s (graphs=%s jobs=%s)\n",
		buildinfo.Version(), srv.Addr(), *graphDir, *jobsDir)

	<-sig
	fmt.Fprintln(os.Stderr, "gpsa-serve: signal received, draining")
	drainCtx, cancel := context.WithTimeout(ctx, *drainWait)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-serve: drain: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "gpsa-serve: drained cleanly")
	return 0
}
