package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/diskio"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/scrub"
)

// Submission outcome errors the HTTP layer maps onto status codes.
var (
	// errDraining refuses submissions during graceful shutdown (503).
	errDraining = errors.New("serve: draining, not accepting jobs")
	// errBadRequest wraps spec validation failures (400).
	errBadRequest = errors.New("serve: invalid job spec")
	// errDiskDegraded refuses submissions while the jobs disk cannot
	// durably accept writes (503 + Retry-After): the server is read-only
	// until the recovery probe succeeds. Reads — job status, results,
	// metrics — keep serving throughout.
	errDiskDegraded = errors.New("serve: disk degraded, read-only: admissions suspended until the write probe succeeds")
)

// shedError is a refusal that carries a Retry-After hint: queue-full
// backpressure (429) and circuit-breaker quarantine (503).
type shedError struct {
	retryAfter time.Duration
	cause      error
}

func (e *shedError) Error() string { return e.cause.Error() }
func (e *shedError) Unwrap() error { return e.cause }

// errBreakerOpen is the cause inside a breaker shedError.
var errBreakerOpen = errors.New("serve: graph/program quarantined by circuit breaker")

// Manager is the job tier: it owns the admission queue, the resident
// graph registry, the worker pool (supervised actors), the job journal,
// the result cache, and the circuit breaker. All Job mutation happens
// under mu; workers communicate only through the queue and the journal.
//
// Lock order: mu before the queue's internal lock (Submit holds mu
// across push); slotsMu is leaf-only, taken inside the queue's eligible
// callback and never together with mu.
type Manager struct {
	opts Options
	reg  *graphRegistry
	q    *jobQueue
	jour *journal
	brk  *breaker

	sys    *actor.System
	jobCtx context.Context
	cancel context.CancelFunc

	scrubber *scrub.Scrubber // nil unless ScrubInterval > 0

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in admission order
	nextSeq  int64
	draining bool
	degraded bool // disk write path failing; admissions suspended

	slotsMu sync.Mutex
	slots   map[string]int // graph -> running job count

	cacheMu sync.Mutex
	cache   map[string]cachedResult
}

// cachedResult is one completed run retained for identical submissions.
type cachedResult struct {
	result     JobResult
	valuesPath string
}

// NewManager builds the job tier and starts its worker actors. With
// opts.ResumeJobs it first replays the job journal, re-queueing every
// job a previous process generation left non-terminal. The ctx bounds
// the manager's lifetime: cancelling it interrupts running jobs the
// same way Drain does.
func NewManager(ctx context.Context, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.GraphDir == "" || opts.JobsDir == "" {
		return nil, errors.New("serve: GraphDir and JobsDir are required")
	}
	if err := os.MkdirAll(opts.JobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating jobs dir: %w", err)
	}
	jour, err := openJournal(filepath.Join(opts.JobsDir, "jobs.journal"))
	if err != nil {
		return nil, err
	}
	jobCtx, cancel := context.WithCancel(ctx)
	m := &Manager{
		opts:   opts,
		reg:    newGraphRegistry(opts.GraphDir),
		q:      newJobQueue(opts.QueueCap),
		jour:   jour,
		brk:    newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		sys:    actor.NewSystemContext(jobCtx, "serve", actor.RestartPolicy{}),
		jobCtx: jobCtx,
		cancel: cancel,
		jobs:   make(map[string]*Job),
		slots:  make(map[string]int),
		cache:  make(map[string]cachedResult),
	}
	replay := m.syncSeqFromJournal
	if opts.ResumeJobs {
		replay = m.resumeFromJournal
	}
	if err := replay(); err != nil {
		cancel()
		jour.close()
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		name := fmt.Sprintf("serve-worker-%d", i)
		m.sys.SpawnFunc(name, func() error { return m.workerLoop(name) })
	}
	m.sys.SpawnFunc("serve-disk-probe", m.probeLoop)
	if opts.ScrubInterval > 0 {
		m.scrubber = scrub.New(scrub.Options{
			ThrottleBytesPerSec: opts.ScrubThrottle,
			ReportDir:           filepath.Join(opts.JobsDir, "scrub-reports"),
			Logf:                opts.Logf,
		})
		m.sys.SpawnFunc("serve-disk-scrub", m.scrubLoop)
	}
	return m, nil
}

// syncSeqFromJournal advances nextSeq past every ID already journaled,
// without rehydrating anything. A restart over a non-empty jobs
// directory WITHOUT -resume-jobs abandons the journaled jobs, but it
// must never mint an ID that collides with one of them — a reused ID
// names the abandoned job's sealed value file, and a new job with a
// different spec would silently resume the wrong computation from it.
// A corrupt journal refuses startup here too: the new generation
// appends to the same file.
func (m *Manager) syncSeqFromJournal() error {
	order, _, err := replayJournal(m.jour.path)
	if err != nil {
		return err
	}
	for _, id := range order {
		m.bumpSeq(id)
	}
	return nil
}

// bumpSeq advances nextSeq past id if it is a well-formed job ID.
func (m *Manager) bumpSeq(id string) {
	var n int64
	if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n >= m.nextSeq {
		m.nextSeq = n + 1
	}
}

// resumeFromJournal re-queues every non-terminal job of the previous
// process generation and rehydrates terminal ones for GET visibility.
func (m *Manager) resumeFromJournal() error {
	order, states, err := replayJournal(m.jour.path)
	if err != nil {
		return err
	}
	for _, id := range order {
		st := states[id]
		m.bumpSeq(id)
		j := &Job{
			ID:         id,
			Spec:       st.Spec,
			Status:     st.Event,
			Error:      st.Error,
			Replayed:   true,
			ValuesPath: m.valuesPath(id),
			seq:        int64(st.seq),
		}
		if st.terminal() {
			if st.Event == StatusCompleted {
				j.Result = &JobResult{ValuesDigest: st.Digest}
			}
			m.jobs[id] = j
			m.order = append(m.order, id)
			continue
		}
		// submitted, interrupted: resume. runJob finds the sealed value
		// file (when one survived) and continues from its checkpoint;
		// otherwise the job simply runs from scratch — same result bits
		// either way, that is the recovery contract.
		j.Status = StatusQueued
		m.jobs[id] = j
		m.order = append(m.order, id)
		if err := m.q.push(j); err != nil {
			return fmt.Errorf("serve: re-queueing journaled job %s: %w", id, err)
		}
		metrics.Inc(metrics.CtrServeResumed)
		m.opts.Logf("serve: resumed job %s (%s on %s) from journal", id, st.Spec.Algo, st.Spec.Graph)
	}
	return nil
}

func (m *Manager) valuesPath(id string) string {
	return filepath.Join(m.opts.JobsDir, id+".values")
}

// Submit validates, admits, journals, and enqueues a job, or refuses it
// with a typed error the HTTP layer translates. The returned Job is a
// snapshot; poll Get for progress. A result-cache hit returns an
// already-completed job without touching the queue.
func (m *Manager) Submit(spec JobSpec) (Job, error) {
	spec.normalize()
	if err := spec.validate(); err != nil {
		return Job{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}

	m.mu.Lock()
	draining, degraded := m.draining, m.degraded
	m.mu.Unlock()
	if draining {
		return Job{}, errDraining
	}
	if degraded {
		return Job{}, &shedError{retryAfter: m.opts.ProbeInterval, cause: errDiskDegraded}
	}

	// Preflight: a job the server cannot checkpoint must not be admitted.
	// Running out of space mid-run turns a 503 the client can retry
	// elsewhere into a failed job, so the gate is here, before the 202.
	if m.opts.MinFreeBytes > 0 {
		if free, ferr := diskio.FreeSpace(m.opts.JobsDir); ferr == nil && free < uint64(m.opts.MinFreeBytes) {
			metrics.Inc(metrics.CtrDiskENOSPC)
			m.enterDegraded(fmt.Errorf("%d bytes free in jobs dir, need %d: %w",
				free, m.opts.MinFreeBytes, diskio.ErrDiskFull))
			return Job{}, &shedError{retryAfter: m.opts.ProbeInterval, cause: errDiskDegraded}
		}
	}

	// Resolve the graph first: a bad graph is a 400, and the digest keys
	// both the breaker and the cache. The registry keeps it resident.
	rg, err := m.reg.get(spec.Graph)
	if err != nil {
		return Job{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}

	bkey := spec.Graph + "|" + spec.Algo
	if ok, left := m.brk.allow(bkey); !ok {
		return Job{}, &shedError{retryAfter: left, cause: errBreakerOpen}
	}

	ckey := spec.cacheKey(rg.digest)
	m.cacheMu.Lock()
	hit, cached := m.cache[ckey]
	m.cacheMu.Unlock()
	if cached {
		metrics.Inc(metrics.CtrServeCacheHits)
		m.mu.Lock()
		j := m.newJobLocked(spec)
		j.Status = StatusCompleted
		j.Cached = true
		res := hit.result
		j.Result = &res
		j.ValuesPath = hit.valuesPath
		view := j.view()
		m.mu.Unlock()
		return view, nil
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return Job{}, errDraining
	}
	// Capacity check before journaling: every push happens under mu, so
	// depth < cap here guarantees the push below cannot fail — the
	// journal never records a job that was then shed.
	if m.q.depth() >= m.opts.QueueCap {
		metrics.Inc(metrics.CtrServeShed)
		return Job{}, &shedError{retryAfter: time.Second, cause: errQueueFull}
	}
	j := m.newJobLocked(spec)
	j.Status = StatusQueued
	j.ValuesPath = m.valuesPath(j.ID)
	j.cacheKey = ckey
	if err := m.jour.append(journalRecord{ID: j.ID, Event: "submitted", Spec: &j.Spec}); err != nil {
		// Not durable, not admitted: the 202 contract is journal-first.
		delete(m.jobs, j.ID)
		m.order = m.order[:len(m.order)-1]
		if isDiskErr(err) {
			// The journal write itself failed at the disk: flip read-only
			// now rather than refusing one submission at a time.
			m.enterDegradedLocked(err)
			return Job{}, &shedError{retryAfter: m.opts.ProbeInterval, cause: errDiskDegraded}
		}
		return Job{}, err
	}
	if err := m.q.push(j); err != nil {
		return Job{}, err // unreachable by the capacity check above
	}
	metrics.Inc(metrics.CtrServeAdmitted)
	return j.view(), nil
}

// newJobLocked allocates a Job with the next ID. Caller holds mu.
func (m *Manager) newJobLocked(spec JobSpec) *Job {
	id := fmt.Sprintf("j-%06d", m.nextSeq)
	j := &Job{ID: id, Spec: spec, seq: m.nextSeq}
	m.nextSeq++
	m.jobs[id] = j
	m.order = append(m.order, id)
	return j
}

// Get returns a snapshot of the named job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.view(), true
}

// Jobs returns snapshots of every known job in admission order.
func (m *Manager) Jobs() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].view())
	}
	return out
}

// Draining reports whether the manager has stopped admitting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// eligible runs under the queue lock and reserves a per-graph slot for
// j; a graph at its concurrency cap leaves j queued without blocking
// later-queued jobs on other graphs. Leaf lock: slotsMu only.
func (m *Manager) eligible(j *Job) bool {
	m.slotsMu.Lock()
	defer m.slotsMu.Unlock()
	if m.slots[j.Spec.Graph] >= m.opts.PerGraph {
		return false
	}
	m.slots[j.Spec.Graph]++
	return true
}

// releaseSlot returns j's per-graph slot and re-rings the queue so a
// job that was waiting for this graph becomes eligible.
func (m *Manager) releaseSlot(j *Job) {
	m.slotsMu.Lock()
	m.slots[j.Spec.Graph]--
	if m.slots[j.Spec.Graph] <= 0 {
		delete(m.slots, j.Spec.Graph)
	}
	m.slotsMu.Unlock()
	m.q.ring()
}

// workerLoop is one worker actor: pop an eligible job, run it to a
// terminal state (or interruption), release its graph slot, repeat
// until the queue closes or the manager's context ends.
func (m *Manager) workerLoop(name string) error {
	for {
		j, err := m.q.pop(m.jobCtx, m.eligible)
		if err != nil {
			// Queue closed (drain) or context cancelled: clean exit.
			return nil
		}
		m.runJob(j)
		m.releaseSlot(j)
	}
}

// runJob drives one admitted job to a terminal state: attempt loop with
// exponential backoff on transient failures, an absolute wall-clock
// deadline spanning all attempts, rollback+seal on deadline or drain.
func (m *Manager) runJob(j *Job) {
	metrics.AddGauge(metrics.GaugeServeInflight, 1)
	defer metrics.AddGauge(metrics.GaugeServeInflight, -1)

	m.mu.Lock()
	j.Status = StatusRunning
	spec := j.Spec
	m.mu.Unlock()

	rg, err := m.reg.get(spec.Graph)
	if err != nil {
		m.finishJob(j, StatusFailed, nil, 0, err)
		return
	}
	if j.cacheKey == "" {
		m.mu.Lock()
		j.cacheKey = spec.cacheKey(rg.digest)
		m.mu.Unlock()
	}

	deadline := m.opts.DefaultDeadline
	if spec.DeadlineMS > 0 {
		deadline = time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	// One absolute deadline across every attempt: retries spend the
	// job's budget, they do not extend it.
	runCtx, cancelRun := context.WithDeadline(m.jobCtx, time.Now().Add(deadline))
	defer cancelRun()

	backoff := m.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		j.Attempts = attempt + 1
		m.mu.Unlock()

		vals, res, runErr := m.runAttempt(runCtx, rg, spec, j.ID)
		if runErr == nil {
			if ferr := fault.Error(fault.SiteServeJobFail); ferr != nil {
				// Injected post-run failure: treat as transient so the
				// retry/breaker machinery is exercised end to end.
				vals.Close() //lint:syncerr values already sealed by the engine's final durable commit; close is release-only
				runErr = ferr
			} else {
				digest := vals.Digest()
				vals.Close() //lint:syncerr values already sealed by the engine's final durable commit; close is release-only
				m.brk.success(spec.Graph + "|" + spec.Algo)
				m.finishJob(j, StatusCompleted, fmtResult(res, digest), digest, nil)
				return
			}
		}

		switch {
		case m.jobCtx.Err() != nil:
			// Drain or shutdown cancelled the job mid-run: the engine
			// rolled the in-flight superstep back and sealed the value
			// file; journal it interrupted so -resume-jobs continues it.
			m.finishJob(j, StatusInterrupted, nil, 0, runErr)
			return
		case errors.Is(runErr, context.DeadlineExceeded) || runCtx.Err() != nil:
			m.finishJob(j, StatusDeadline, nil, 0, runErr)
			return
		case attempt < m.opts.JobRetries:
			metrics.Inc(metrics.CtrServeRetries)
			m.opts.Logf("serve: job %s attempt %d failed (%v), retrying in %v", j.ID, attempt+1, runErr, backoff)
			t := time.NewTimer(backoff)
			select {
			case <-runCtx.Done():
				t.Stop()
				// Deadline or drain arrived during backoff; the last
				// attempt already sealed the value file.
				if m.jobCtx.Err() != nil {
					m.finishJob(j, StatusInterrupted, nil, 0, runCtx.Err())
				} else {
					m.finishJob(j, StatusDeadline, nil, 0, runCtx.Err())
				}
				return
			case <-t.C:
			}
			backoff *= 2
		default:
			m.finishJob(j, StatusFailed, nil, 0, runErr)
			return
		}
	}
}

// runAttempt executes one engine run for the job, resuming from the
// job's sealed value file when one exists (a previous attempt, a
// previous process generation, or a deadline checkpoint).
func (m *Manager) runAttempt(ctx context.Context, rg *residentGraph, spec JobSpec, id string) (*gpsa.Values, *gpsa.Result, error) {
	vpath := m.valuesPath(id)
	steps := spec.Supersteps
	if steps <= 0 || steps > m.opts.MaxSupersteps {
		steps = m.opts.MaxSupersteps
	}
	prog, err := spec.program()
	if err != nil {
		return nil, nil, err
	}
	// A job shares the host with up to Workers-1 others, so a zero pool
	// is sized from its share of the cores, not from all of them.
	dispatchers, computers := core.DefaultPool(max(1, runtime.GOMAXPROCS(0)/m.opts.Workers))
	if spec.Dispatchers > 0 {
		dispatchers = spec.Dispatchers
	}
	if spec.Computers > 0 {
		computers = spec.Computers
	}
	opts := gpsa.RunOptions{
		Supersteps:  steps,
		Context:     ctx,
		Dispatchers: dispatchers,
		Computers:   computers,
		ValuesPath:  vpath,
		Resume:      gpsa.Resumable(vpath),
		StepRetries: m.opts.StepRetries,
		Watchdog:    m.opts.Watchdog,
	}
	return gpsa.RunOn(rg.g, prog, opts)
}

// finishJob records a job's terminal (or interrupted) state in memory,
// in the journal, in the metrics, and — for completions — in the result
// cache and the circuit breaker.
func (m *Manager) finishJob(j *Job, status string, result *JobResult, digest uint64, runErr error) {
	rec := journalRecord{ID: j.ID, Event: status}
	if runErr != nil {
		rec.Error = runErr.Error()
	}

	m.mu.Lock()
	j.Status = status
	j.Result = result
	if runErr != nil {
		j.Error = runErr.Error()
	}
	spec := j.Spec
	ckey := j.cacheKey
	vpath := j.ValuesPath
	m.mu.Unlock()

	switch status {
	case StatusCompleted:
		rec.Digest = fmt.Sprintf("%016x", digest)
		metrics.Inc(metrics.CtrServeCompleted)
		if ckey != "" && result != nil {
			m.cacheMu.Lock()
			m.cache[ckey] = cachedResult{result: *result, valuesPath: vpath}
			m.cacheMu.Unlock()
		}
	case StatusFailed:
		metrics.Inc(metrics.CtrServeFailed)
		if m.brk.failure(spec.Graph + "|" + spec.Algo) {
			m.opts.Logf("serve: circuit breaker opened for %s|%s", spec.Graph, spec.Algo)
		}
	case StatusDeadline:
		metrics.Inc(metrics.CtrServeDeadlineExceeded)
	case StatusInterrupted:
		metrics.Inc(metrics.CtrServeInterrupted)
	}

	// Terminal records are checkpoints the job's durable outcome depends
	// on: retry with backoff before declaring the disk sick. Exhausting
	// the retries on a classified disk error means the write path is
	// persistently failing — degrade to read-only and let the probe
	// decide when to recover.
	if err := m.jour.appendRetry(rec, m.opts.DiskRetries, m.opts.RetryBackoff); err != nil {
		m.opts.Logf("serve: journaling %s for job %s: %v", status, j.ID, err)
		if isDiskErr(err) {
			m.enterDegraded(err)
		}
	}
}

// isDiskErr reports whether err carries a diskio class that indicates
// the disk, not the request, is the problem.
func isDiskErr(err error) bool {
	return errors.Is(err, diskio.ErrDiskFull) || errors.Is(err, diskio.ErrIOFailure)
}

// Degraded reports whether the manager is in disk-degraded (read-only)
// mode.
func (m *Manager) Degraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// enterDegraded flips the manager into disk-degraded mode: admissions
// refuse with 503, /readyz reports not-ready, and the recovery probe
// starts testing the disk. Idempotent.
func (m *Manager) enterDegraded(cause error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.enterDegradedLocked(cause)
}

func (m *Manager) enterDegradedLocked(cause error) {
	if m.degraded {
		return
	}
	m.degraded = true
	metrics.SetGauge(metrics.GaugeServeDiskDegraded, 1)
	m.opts.Logf("serve: entering disk-degraded mode (read-only): %v", cause)
}

// exitDegraded restores admissions after a successful disk probe.
func (m *Manager) exitDegraded() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.degraded {
		return
	}
	m.degraded = false
	metrics.SetGauge(metrics.GaugeServeDiskDegraded, 0)
	m.opts.Logf("serve: disk probe succeeded, leaving degraded mode")
}

// probeDisk is the recovery check: a durable write-sync-remove cycle in
// the jobs directory plus the free-space gate. It exercises exactly the
// failure classes that degrade the server (create, write, sync, space).
func (m *Manager) probeDisk() error {
	p := filepath.Join(m.opts.JobsDir, ".disk-probe")
	if err := diskio.WriteFile(p, []byte("probe\n"), 0o644); err != nil {
		os.Remove(p)
		return err
	}
	if err := os.Remove(p); err != nil {
		return diskio.Classify("remove", p, err)
	}
	if m.opts.MinFreeBytes > 0 {
		if free, err := diskio.FreeSpace(m.opts.JobsDir); err == nil && free < uint64(m.opts.MinFreeBytes) {
			return fmt.Errorf("serve: probe: %d bytes free, need %d: %w", free, m.opts.MinFreeBytes, diskio.ErrDiskFull)
		}
	}
	return nil
}

// probeLoop is the degraded-mode recovery actor: while degraded, probe
// the disk every ProbeInterval and restore admissions on the first
// success. Runs for the manager's lifetime; idle when healthy.
func (m *Manager) probeLoop() error {
	tick := time.NewTicker(m.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.jobCtx.Done():
			return nil
		case <-tick.C:
			if !m.Degraded() {
				continue
			}
			if err := m.probeDisk(); err != nil {
				m.opts.Logf("serve: disk probe still failing: %v", err)
				continue
			}
			m.exitDegraded()
		}
	}
}

// scrubLoop is the background scrub actor for the serving tier.
func (m *Manager) scrubLoop() error {
	tick := time.NewTicker(m.opts.ScrubInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.jobCtx.Done():
			return nil
		case <-tick.C:
			m.ScrubNow()
		}
	}
}

// ScrubNow refreshes the scrub target set — every resident graph CSR
// plus the sealed value file of every terminal or interrupted job — and
// runs one pass. Value files have no serving-tier replica (the cluster
// repair path lives in internal/cluster), so corrupt ones quarantine
// with recompute-from-seed guidance. Returns the zero Report when
// scrubbing is disabled.
func (m *Manager) ScrubNow() scrub.Report {
	if m.scrubber == nil {
		return scrub.Report{}
	}
	for _, p := range m.reg.residentPaths() {
		m.scrubber.Add(scrub.Target{Path: p, Kind: scrub.KindGraph})
	}
	m.mu.Lock()
	for _, id := range m.order {
		j := m.jobs[id]
		switch j.Status {
		case StatusCompleted, StatusInterrupted, StatusDeadline:
			if _, err := os.Stat(j.ValuesPath); err == nil {
				m.scrubber.Add(scrub.Target{Path: j.ValuesPath, Kind: scrub.KindValues})
			}
		}
	}
	m.mu.Unlock()
	return m.scrubber.RunOnce()
}

// Drain performs graceful shutdown: admissions stop (Submit refuses,
// /readyz flips not-ready), queued jobs stay journaled for the next
// generation, running jobs are cancelled — the engine rolls their
// in-flight superstep back and seals their value files — and journaled
// interrupted. Drain returns once every worker has stopped.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.mu.Unlock()
	metrics.SetGauge(metrics.GaugeServeDraining, 1)
	m.opts.Logf("serve: draining: admissions stopped")

	left := m.q.drain()
	m.opts.Logf("serve: draining: %d queued jobs left journaled for resume", len(left))
	m.cancel()
	err := m.sys.Wait()
	m.reg.closeAll()
	if cerr := m.jour.close(); err == nil {
		err = cerr
	}
	if ctx.Err() != nil && err == nil {
		err = ctx.Err()
	}
	return err
}
