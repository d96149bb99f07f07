// Package serve is GPSA's long-lived, self-protecting graph service: a
// resident process that keeps graphs mmap'd hot, accepts concurrent job
// submissions over HTTP, and multiplexes them over per-job supervised
// actor systems with admission control and graceful degradation end to
// end.
//
// The robustness contract, torture-pinned by internal/servetest:
//
//   - Admission is bounded: a full priority queue sheds submissions with
//     429 + Retry-After, never unbounded memory.
//   - Every job runs under budgets: a superstep cap and a wall-clock
//     deadline whose expiry cancels the run's context — the
//     engine rolls the in-flight superstep back and seals the value file
//     resumable, so a deadline produces a checkpoint, not a zombie.
//   - Transient job failures retry with exponential backoff (the job
//     tier's core.MaxStepRetries); a (graph, program) pair that keeps
//     failing is quarantined by a circuit breaker.
//   - Completed results are cached by (graph digest, program, params).
//   - SIGTERM drains: admissions stop, /readyz flips not-ready,
//     in-flight jobs are checkpointed through the engine's seal path,
//     the job journal records every non-terminal job, and the process
//     exits 0.
//   - SIGKILL loses nothing: restarting with -resume-jobs replays the
//     journal and resumes every interrupted job from its sealed value
//     file, bit-identical to an undisturbed run.
package serve

import (
	"fmt"
	"path"
	"strings"
	"time"

	"repro"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

// Job statuses. queued and running are non-terminal (a restart replays
// them from the journal); the rest are terminal except interrupted,
// which a -resume-jobs restart continues.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusCompleted   = "completed"
	StatusFailed      = "failed"
	StatusDeadline    = "deadline_exceeded"
	StatusInterrupted = "interrupted"
)

// JobSpec is a job submission (the POST /v1/jobs body). Everything that
// affects the result bits is part of the result-cache key.
type JobSpec struct {
	// Graph names the CSR graph, as a path relative to the server's
	// graph root. Required.
	Graph string `json:"graph"`
	// Algo is one of pagerank, deltapagerank, bfs, cc, sssp. Required.
	Algo string `json:"algo"`
	// Root is the root/source vertex for bfs and sssp.
	Root int64 `json:"root,omitempty"`
	// Epsilon is the deltapagerank residual cut-off (0 = default).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Supersteps caps the run (0 = algorithm default: 5 for the
	// pagerank family, engine default otherwise).
	Supersteps int `json:"supersteps,omitempty"`
	// Priority orders the admission queue, 0 (lowest) to 9 (highest);
	// ties dequeue in submission order.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS is the job's wall-clock budget in milliseconds from
	// the moment it starts executing; 0 means the server default. On
	// expiry the run is cancelled, rolled back, and sealed.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Dispatchers/Computers size the job's actor pools, at most
	// core.MaxWorkers. 0 takes core.DefaultPool of the job's share of
	// the cores, GOMAXPROCS/Workers (at least 1): 1×1 on a 2-CPU server
	// with 4 workers. Part of the cache key: float-valued programs fold
	// per dispatcher interval, so results at different Dispatchers may
	// differ in the low bits, while Computers never changes a bit. A
	// resumed job runs at the dispatcher count its value file records,
	// even when the server's share of the cores changed. A job's message
	// memory is its slab grid, ≈ Dispatchers × |V| × 8.125 bytes.
	Dispatchers int `json:"dispatchers,omitempty"`
	Computers   int `json:"computers,omitempty"`
}

// normalize applies per-algorithm defaults so equal effective requests
// hash to equal cache keys.
func (s *JobSpec) normalize() {
	if s.Supersteps == 0 && (s.Algo == "pagerank" || s.Algo == "deltapagerank") {
		s.Supersteps = 5
	}
}

// validate rejects malformed specs before they reach the queue.
func (s *JobSpec) validate() error {
	if s.Graph == "" {
		return fmt.Errorf("graph is required")
	}
	clean := path.Clean(s.Graph)
	if path.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, "../") {
		return fmt.Errorf("graph %q must be a relative path inside the graph root", s.Graph)
	}
	switch s.Algo {
	case "pagerank", "deltapagerank", "bfs", "cc", "sssp":
	case "":
		return fmt.Errorf("algo is required")
	default:
		return fmt.Errorf("unknown algo %q", s.Algo)
	}
	if s.Priority < 0 || s.Priority > 9 {
		return fmt.Errorf("priority %d out of range [0,9]", s.Priority)
	}
	if s.Root < 0 || s.Supersteps < 0 || s.DeadlineMS < 0 ||
		s.Dispatchers < 0 || s.Computers < 0 {
		return fmt.Errorf("negative values are not allowed")
	}
	// The engine refuses larger pools on every attempt; admitting one
	// would only burn retries and trip the breaker for (graph, algo).
	if s.Dispatchers > core.MaxWorkers || s.Computers > core.MaxWorkers {
		return fmt.Errorf("dispatchers and computers are at most %d", core.MaxWorkers)
	}
	return nil
}

// program instantiates the vertex program a spec names.
func (s JobSpec) program() (core.Program, error) {
	switch s.Algo {
	case "pagerank":
		return algorithms.PageRank{}, nil
	case "deltapagerank":
		return algorithms.DeltaPageRank{Epsilon: s.Epsilon}, nil
	case "bfs":
		return algorithms.BFS{Root: graph.VertexID(s.Root)}, nil
	case "cc":
		return algorithms.ConnectedComponents{}, nil
	case "sssp":
		return algorithms.SSSP{Source: graph.VertexID(s.Root)}, nil
	}
	return nil, fmt.Errorf("serve: unknown algo %q", s.Algo)
}

// cacheKey derives the result-cache key: the graph's content digest plus
// every spec field that can influence the committed value bits.
func (s JobSpec) cacheKey(graphDigest string) string {
	return fmt.Sprintf("%s|%s|root=%d|eps=%g|steps=%d|d=%d|c=%d",
		graphDigest, s.Algo, s.Root, s.Epsilon, s.Supersteps, s.Dispatchers, s.Computers)
}

// JobResult summarizes a completed run.
type JobResult struct {
	Supersteps   int    `json:"supersteps"`
	Converged    bool   `json:"converged"`
	Messages     int64  `json:"messages"`
	Updates      int64  `json:"updates"`
	DurationMS   int64  `json:"duration_ms"`
	ResumedFrom  int64  `json:"resumed_from,omitempty"`
	Recovery     string `json:"recovery,omitempty"`
	ValuesDigest string `json:"values_digest"`
}

// Job is one unit of admitted work. Fields are mutated only by the
// manager under its lock; View snapshots a consistent copy for handlers.
type Job struct {
	ID         string     `json:"id"`
	Spec       JobSpec    `json:"spec"`
	Status     string     `json:"status"`
	Error      string     `json:"error,omitempty"`
	Attempts   int        `json:"attempts"`
	Cached     bool       `json:"cached,omitempty"`
	Replayed   bool       `json:"replayed,omitempty"`
	ValuesPath string     `json:"values"`
	Result     *JobResult `json:"result,omitempty"`

	seq      int64  // admission order, tie-break within priority
	cacheKey string // filled when the graph digest is known
}

// view returns a copy safe to marshal outside the manager's lock.
func (j *Job) view() Job {
	cp := *j
	if j.Result != nil {
		r := *j.Result
		cp.Result = &r
	}
	return cp
}

// fmtResult converts an engine result into the API shape.
func fmtResult(res *gpsa.Result, digest uint64) *JobResult {
	if res == nil {
		return nil
	}
	return &JobResult{
		Supersteps:   res.Supersteps,
		Converged:    res.Converged,
		Messages:     res.Messages,
		Updates:      res.Updates,
		DurationMS:   res.Duration.Milliseconds(),
		ResumedFrom:  res.ResumedFrom,
		Recovery:     res.Recovery,
		ValuesDigest: fmt.Sprintf("%016x", digest),
	}
}

// Options configures a Server. Zero values select the documented
// defaults (withDefaults).
type Options struct {
	Addr     string // listen address, e.g. ":8090"
	GraphDir string // root of servable .gpsa graphs (required)
	JobsDir  string // value files + job journal (required)

	QueueCap     int           // bounded admission queue (default 64)
	Workers      int           // concurrent job executors (default 4)
	PerGraph     int           // concurrent jobs per graph (default 2)
	JobRetries   int           // job-tier retries on transient failure (default 2)
	RetryBackoff time.Duration // first retry backoff, doubles (default 100ms)

	BreakerThreshold int           // consecutive failures to quarantine (default 3)
	BreakerCooldown  time.Duration // quarantine duration (default 30s)

	DefaultDeadline time.Duration // per-job wall-clock budget (default 5m)
	MaxSupersteps   int           // hard superstep cap per job (default 200)
	StepRetries     int           // in-run superstep retries (default 2)
	Watchdog        time.Duration // per-superstep worker silence bound (default 60s)

	ResumeJobs bool // replay the journal and resume interrupted jobs

	// MinFreeBytes gates admission on free space in JobsDir: below it,
	// the server enters disk-degraded mode instead of accepting a job it
	// cannot checkpoint. 0 disables the preflight.
	MinFreeBytes int64
	// DiskRetries bounds the retry-with-backoff on journal checkpoint
	// writes before the failure is declared persistent and the server
	// degrades (default 3; the submission path stays single-shot).
	DiskRetries int
	// ProbeInterval is the cadence of the degraded-mode recovery probe:
	// while degraded, the manager periodically writes, syncs, and removes
	// a probe file in JobsDir and re-checks free space; the first success
	// restores admissions (default 2s).
	ProbeInterval time.Duration
	// ScrubInterval enables the background scrub actor: every interval it
	// re-verifies resident graph CSR checksums and sealed job value files,
	// quarantining anything corrupt. 0 disables scrubbing.
	ScrubInterval time.Duration
	// ScrubThrottle caps the scrub read rate in bytes/sec (0 = unthrottled).
	ScrubThrottle int64

	Logf func(format string, args ...any) // optional diagnostics sink
}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.PerGraph <= 0 {
		o.PerGraph = 2
	}
	if o.JobRetries < 0 {
		o.JobRetries = 0
	} else if o.JobRetries == 0 {
		o.JobRetries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 30 * time.Second
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 5 * time.Minute
	}
	if o.MaxSupersteps <= 0 {
		o.MaxSupersteps = 200
	}
	if o.StepRetries < 0 {
		o.StepRetries = 0
	} else if o.StepRetries == 0 {
		o.StepRetries = 2
	}
	if o.Watchdog <= 0 {
		o.Watchdog = 60 * time.Second
	}
	if o.DiskRetries < 0 {
		o.DiskRetries = 1
	} else if o.DiskRetries == 0 {
		o.DiskRetries = 3
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}
