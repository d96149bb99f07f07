package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vertexfile"
)

// control message kinds of the paper's command protocol (§V-C).
type msgKind int

const (
	kindSegment        msgKind = iota // dense accumulator segment handoff
	kindIterationStart                // manager -> dispatcher
	kindDispatchOver                  // dispatcher -> manager
	kindComputeOver                   // manager -> computer (barrier) and ack back
	kindSystemOver                    // manager -> everyone: shut down
	kindFailed                        // worker -> manager: actor died
)

// workerMsg is the single envelope type flowing between actors. Control
// fields are interpreted per kind.
type workerMsg struct {
	kind   msgKind
	step   int64
	seg    *Slab // kindSegment
	from   int   // sender worker id
	count  int64 // segment: slots present (0: empty marker); dispatchOver: messages generated; computeOver ack: updates
	count2 int64 // dispatchOver: messages delivered after combining
	err    error // kindFailed
}

// computerMailboxDepth is each computing worker's mailbox depth. Every
// dispatcher hands every computer exactly one slab (or empty marker) per
// superstep, so a computer receives exactly Dispatchers messages and the
// barrier per step: the depth binds only above 63 dispatchers, and then
// it only makes a dispatcher wait — a computer holds a slab that arrives
// before its turn instead of waiting on it, so computers never wait on
// dispatchers. Dispatchers+1 would never bind, but at the MaxWorkers ×
// MaxWorkers bound it is about 1 GiB of channel buffers.
const computerMailboxDepth = 64

// Engine runs a Program over an on-disk CSR graph and a two-column vertex
// value file using the actor-based BSP model.
type Engine struct {
	gf   *graph.File
	vf   *vertexfile.File
	prog Program
	cfg  Config

	aggregator Aggregator // non-nil when the program aggregates
	system     *actor.System
	toManager  *actor.Mailbox[workerMsg]
	toDisp     []*actor.Mailbox[workerMsg]
	toApply    []*actor.Mailbox[workerMsg] // one per computer
	toPrefetch []*actor.Mailbox[workerMsg]
	intervals  []graph.Interval // one per dispatcher; may be fewer than cfg.Dispatchers

	// prefetchOn gates the async CSR prefetch actors (Config.Prefetch
	// and a mapping that supports advice). When set, each dispatcher
	// publishes its cursor position and superstep generation through
	// dispPos/dispStep — the only coupling between the dispatch loop
	// and its prefetcher (see prefetch.go).
	prefetchOn bool
	dispPos    []atomic.Int64
	dispStep   []atomic.Int64

	// slabs[i][c] is the slab dispatcher i folds computer c's messages
	// into, for the engine's lifetime.
	slabs [][]*Slab

	// per-superstep statistics scratch, reused across runStep calls.
	dispMsgs []int64
	compUpd  []int64

	// runCtx is the context of the current RunContext call; cancellation
	// stops the run cleanly between supersteps, or rolls the in-flight
	// superstep back so the value file seals clean and resumable.
	runCtx context.Context

	// aborted is set when the run is being torn down early (watchdog or
	// failure); dispatchers poll it between vertices so a wedged or
	// long-running superstep unwinds promptly instead of streaming its
	// whole interval.
	aborted atomic.Bool
}

// ErrCrashInjected wraps the fault.SiteStepCrash injection: a simulated
// whole-process death after the dispatch phase, without commit. Unlike
// worker failures it is not retried in-process — recovery happens on
// reopen, exercising the paper's crash model.
var ErrCrashInjected = errors.New("core: injected crash")

// errAborted is how a dispatcher unwinds when the manager is tearing the
// superstep down; it signals a clean early exit, not a failure.
var errAborted = errors.New("core: superstep aborted")

// stepError wraps a superstep failure with its phase and whether the
// supervised retry path may roll back and re-execute the superstep.
type stepError struct {
	step      int64
	phase     string
	err       error
	retryable bool
}

func (e *stepError) Error() string {
	return fmt.Sprintf("core: superstep %d (%s): %v", e.step, e.phase, e.err)
}

func (e *stepError) Unwrap() error { return e.err }

// New creates an engine. The graph file and value file must describe the
// same vertex set.
func New(gf *graph.File, vf *vertexfile.File, prog Program, cfg Config) (*Engine, error) {
	if gf.NumVertices != vf.NumVertices() {
		return nil, fmt.Errorf("core: graph has %d vertices but value file has %d", gf.NumVertices, vf.NumVertices())
	}
	if prog == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	// The value file keeps the dispatcher count its computation started
	// at: a resume at another count would fold over other intervals and
	// change float low bits. A file that records none is stamped.
	switch d := vf.Dispatchers(); {
	case d < 0 || d > MaxWorkers:
		return nil, fmt.Errorf("core: value file records %d dispatchers", d)
	case d > 0:
		cfg.Dispatchers = d
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if vf.Dispatchers() == 0 {
		vf.SetDispatchers(cfg.Dispatchers)
	}
	e := &Engine{gf: gf, vf: vf, prog: prog, cfg: cfg, intervals: gf.Partition(cfg.Dispatchers)}
	owned := (gf.NumVertices + int64(cfg.Computers) - 1) / int64(cfg.Computers)
	e.slabs = make([][]*Slab, len(e.intervals))
	for i := range e.slabs {
		for range cfg.Computers {
			e.slabs[i] = append(e.slabs[i], NewSlab(owned))
		}
	}
	if a, ok := prog.(Aggregator); ok {
		e.aggregator = a
	}
	// Access-pattern hints (paper §IV-C: the edge file is streamed
	// sequentially, vertex values are hit at random). Best-effort.
	gf.AdviseSequential() //nolint:errcheck
	vf.AdviseRandom()     //nolint:errcheck
	return e, nil
}

// CreateValueFile initializes a value file for prog at path, sized for gf.
func CreateValueFile(path string, gf *graph.File, prog Program) (*vertexfile.File, error) {
	return vertexfile.Create(path, gf.NumVertices, prog.Init)
}

// spawn builds a fresh worker crew: manager mailbox, per-worker
// mailboxes, and dispatcher/computer actors under a supervisor whose
// restart policy revives panicking workers. Retried supersteps always
// get a fresh crew and fresh mailboxes, so no stale slab hand-off from a
// failed attempt can leak into the retry — and no partial sum either:
// every slab is reset here, after teardown has waited for the old crew
// to exit.
func (e *Engine) spawn() {
	cfg := e.cfg
	for _, row := range e.slabs {
		for _, s := range row {
			s.Reset()
		}
	}
	e.aborted.Store(false)
	e.system = actor.NewSystemContext(e.runCtx, "gpsa", actor.RestartPolicy{MaxRestarts: cfg.MaxStepRetries + 1})
	e.toManager = actor.NewMailbox[workerMsg](cfg.Dispatchers + cfg.Computers + 1)
	e.toDisp = make([]*actor.Mailbox[workerMsg], len(e.intervals))
	for i := range e.toDisp {
		e.toDisp[i] = actor.NewMailbox[workerMsg](1)
	}
	e.toApply = make([]*actor.Mailbox[workerMsg], cfg.Computers)
	for i := range e.toApply {
		e.toApply[i] = actor.NewMailbox[workerMsg](computerMailboxDepth)
	}
	for i := range e.toDisp {
		d := &dispatcher{id: i, eng: e, interval: e.intervals[i]}
		e.system.Spawn(fmt.Sprintf("dispatcher-%d", i), d)
	}
	for i := range e.toApply {
		c := &computer{id: i, eng: e}
		e.system.Spawn(fmt.Sprintf("computer-%d", i), c)
	}
	e.prefetchOn = cfg.Prefetch && e.gf.SupportsAdvise()
	e.toPrefetch = nil
	if e.prefetchOn {
		e.dispPos = make([]atomic.Int64, len(e.intervals))
		e.dispStep = make([]atomic.Int64, len(e.intervals))
		e.toPrefetch = make([]*actor.Mailbox[workerMsg], len(e.intervals))
		for i := range e.toPrefetch {
			e.dispPos[i].Store(e.intervals[i].StartWord)
			e.dispStep[i].Store(-1)
			e.toPrefetch[i] = actor.NewMailbox[workerMsg](1)
			p := &prefetcher{id: i, eng: e, interval: e.intervals[i]}
			p.resetWindow()
			p.lastStep = -1
			// Issue the first WILLNEED window synchronously: page-in I/O
			// for the interval head starts before the first dispatch
			// touches the mapping, and a short run cannot finish before
			// the actor goroutine is ever scheduled.
			p.pass()
			e.system.Spawn(fmt.Sprintf("prefetcher-%d", i), p)
		}
	}
}

// teardown stops and collects the current worker crew. After it returns
// every worker goroutine has exited (a vertex program wedged in user code
// may delay that — see Config.SuperstepTimeout). The returned error is
// the crew's name-ordered first failure, if any.
func (e *Engine) teardown() error {
	if e.system == nil {
		return nil
	}
	// SYSTEM_OVER, then close: TryPut so a full mailbox cannot block the
	// manager — closing releases blocked senders and receivers drain
	// whatever is buffered before seeing the close. The manager mailbox
	// closes first so no worker can block on it while being collected;
	// workers treat a closed manager mailbox as an abort.
	e.aborted.Store(true)
	e.toManager.Close()
	for _, mb := range e.toDisp {
		mb.TryPut(workerMsg{kind: kindSystemOver})
		mb.Close()
	}
	for _, mb := range e.toApply {
		mb.TryPut(workerMsg{kind: kindSystemOver})
		mb.Close()
	}
	for _, mb := range e.toPrefetch {
		mb.TryPut(workerMsg{kind: kindSystemOver})
		mb.Close()
	}
	waitErr := e.system.Wait()
	e.system = nil
	return waitErr
}

// Run executes supersteps starting at the value file's current epoch
// until the program converges (a superstep with no messages and no
// updates) or MaxSupersteps have run. It may be called again to continue
// a computation.
//
// When cfg.MaxStepRetries > 0 the run is supervised: a superstep that
// fails with a retryable error (worker panic or failure, watchdog
// timeout, failed begin/commit) is aborted, the worker crew is torn down
// and collected, the value file is rolled back to the superstep's
// immutable dispatch column, and — after an exponential backoff — the
// superstep is re-executed with a freshly spawned crew.
func (e *Engine) Run() (*Result, error) {
	//lint:ctxblock documented convenience wrapper; cancellable callers use RunContext
	return e.RunContext(context.Background())
}

// RunContext is Run under a context. Cancellation is honored at two
// grains: between supersteps the run simply stops (the previous commit
// already sealed the file clean), and mid-superstep the worker crew is
// torn down and the in-flight superstep rolled back to its immutable
// dispatch column — either way the value file is left cleanly sealed and
// resumable, and the returned error wraps ctx.Err().
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //lint:ctxblock defensive default for nil ctx; callers who want cancellation pass one
	}
	e.runCtx = ctx
	cfg := e.cfg
	res := &Result{
		DispatcherMessages: make([]int64, len(e.intervals)),
		ComputerUpdates:    make([]int64, cfg.Computers),
	}
	e.dispMsgs = make([]int64, len(e.intervals))
	e.compUpd = make([]int64, cfg.Computers)
	if e.vf.Converged() {
		// The file's last commit sealed convergence: the computation is
		// finished, and re-running supersteps could perturb programs whose
		// halting condition is aggregator-based rather than an idle step.
		res.Converged = true
		return res, nil
	}

	e.spawn()
	runStart := now()
	retries := 0
	var runErr error
	for n := 0; n < cfg.MaxSupersteps; {
		if cerr := ctx.Err(); cerr != nil {
			// Clean stop between supersteps: the last commit sealed the
			// file, nothing to roll back.
			metrics.Inc(metrics.CtrRunsCancelled)
			runErr = fmt.Errorf("core: run cancelled before superstep %d: %w", e.vf.Epoch(), cerr)
			break
		}
		step := e.vf.Epoch()
		converged, err := e.runStep(step, res)
		if err == nil {
			retries = 0
			n++
			if converged {
				res.Converged = true
				break
			}
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			// Cancelled mid-superstep: stop the crew, then roll the
			// interrupted superstep back so the file seals clean — the
			// graceful-shutdown path behind SIGINT/SIGTERM.
			e.teardown() //nolint:errcheck
			metrics.Inc(metrics.CtrRunsCancelled)
			if rerr := e.vf.Rollback(step, !cfg.DisableSync); rerr != nil {
				runErr = fmt.Errorf("core: rolling back cancelled superstep %d: %w", step, errors.Join(cerr, rerr))
			} else {
				runErr = fmt.Errorf("core: superstep %d cancelled and rolled back: %w", step, cerr)
			}
			break
		}
		var se *stepError
		if !errors.As(err, &se) || !se.retryable || retries >= cfg.MaxStepRetries {
			runErr = err
			break
		}
		// Supervised recovery: stop the crew (its failure is the reason
		// we are here — discard it), roll the value file back to the
		// superstep's start, back off, and re-run with a fresh crew.
		retries++
		res.Retries++
		e.teardown() //nolint:errcheck
		if rerr := e.vf.Rollback(step, !cfg.DisableSync); rerr != nil {
			runErr = fmt.Errorf("core: rolling back superstep %d after %v: %w", step, err, rerr)
			break
		}
		time.Sleep(retryBackoff(stepRetryBackoff, retries))
		e.spawn()
	}
	res.Duration = now().Sub(runStart)
	waitErr := e.teardown()
	if runErr != nil {
		return res, runErr
	}
	if waitErr != nil {
		return res, waitErr
	}
	return res, nil
}

// stepRetryBackoff is the sleep before the first retry of a superstep;
// retryBackoff doubles it for every further consecutive retry. Tests
// lower it to keep recovery suites fast.
var stepRetryBackoff = 25 * time.Millisecond

// retryBackoff doubles the base delay per consecutive retry: base, 2base,
// 4base, ... (shift-capped so pathological retry budgets cannot overflow).
func retryBackoff(base time.Duration, retry int) time.Duration {
	shift := retry - 1
	if shift > 16 {
		shift = 16
	}
	return base << uint(shift)
}

// managerGet receives the next worker notification, honoring both the
// watchdog timeout and context cancellation. With neither in play it
// blocks outright; otherwise it polls in short slices so a cancelled run
// notices within ~20ms even when no worker is producing notifications.
// The manager mailbox is only ever closed by this goroutine (teardown),
// so inside managerGet a timed-out GetTimeout always means "no message
// yet", never "closed".
func (e *Engine) managerGet(phase string) (workerMsg, error) {
	var deadline time.Time
	if e.cfg.SuperstepTimeout > 0 {
		deadline = now().Add(e.cfg.SuperstepTimeout)
	}
	if deadline.IsZero() && e.runCtx.Done() == nil {
		m, ok := e.toManager.Get()
		if !ok {
			return workerMsg{}, errors.New("core: manager mailbox closed")
		}
		return m, nil
	}
	const tick = 20 * time.Millisecond
	for {
		if cerr := e.runCtx.Err(); cerr != nil {
			return workerMsg{}, fmt.Errorf("core: %s interrupted: %w", phase, cerr)
		}
		wait := tick
		if !deadline.IsZero() {
			rem := deadline.Sub(now())
			if rem <= 0 {
				return workerMsg{}, fmt.Errorf("core: superstep watchdog: no worker notification within %v during %s", e.cfg.SuperstepTimeout, phase)
			}
			if rem < wait {
				wait = rem
			}
		}
		if m, ok := e.toManager.GetTimeout(wait); ok {
			return m, nil
		}
	}
}

// runStep executes one superstep — the body of the paper's Algorithm 1 —
// and reports whether the computation converged. Statistics are buffered
// locally and only merged into res after the commit succeeds, so a
// retried superstep is counted exactly once.
func (e *Engine) runStep(step int64, res *Result) (converged bool, err error) {
	if err := e.vf.Begin(step, !e.cfg.DisableSync); err != nil {
		return false, &stepError{step: step, phase: "begin", err: err, retryable: true}
	}
	t0 := now()

	// ITERATION_START to every dispatcher.
	for _, mb := range e.toDisp {
		if err := mb.Put(workerMsg{kind: kindIterationStart, step: step}); err != nil {
			return false, &stepError{step: step, phase: "dispatch", err: err, retryable: false}
		}
	}

	// Collect DISPATCH_OVER from every dispatcher. Computing workers
	// are processing concurrently the whole time (the overlap).
	var messages, delivered int64
	dispMsgs := e.dispMsgs
	for i := range dispMsgs {
		dispMsgs[i] = 0
	}
	for i := 0; i < len(e.toDisp); i++ {
		m, err := e.managerGet("dispatch")
		if err != nil {
			return false, &stepError{step: step, phase: "dispatch", err: err, retryable: true}
		}
		switch m.kind {
		case kindDispatchOver:
			messages += m.count
			delivered += m.count2
			dispMsgs[m.from] += m.count
		case kindFailed:
			return false, &stepError{step: step, phase: "dispatch", err: m.err, retryable: true}
		default:
			return false, &stepError{step: step, phase: "dispatch",
				err: fmt.Errorf("core: manager got unexpected %v", m.kind), retryable: false}
		}
	}

	if ferr := fault.Error(fault.SiteStepCrash); ferr != nil {
		// Simulated process death: abandon the superstep without commit.
		// The value file keeps its in-progress state; recovery happens on
		// reopen (Open + Recover), not in-process.
		return false, fmt.Errorf("%w (superstep %d: %v)", ErrCrashInjected, step, ferr)
	}
	fault.Crash(fault.SiteKillDispatch)

	// Barrier: COMPUTE_OVER to every computing worker; they reply
	// after draining everything queued before it (FIFO).
	for _, mb := range e.toApply {
		if err := mb.Put(workerMsg{kind: kindComputeOver, step: step}); err != nil {
			return false, &stepError{step: step, phase: "compute barrier", err: err, retryable: false}
		}
	}
	var updates int64
	compUpd := e.compUpd
	for i := range compUpd {
		compUpd[i] = 0
	}
	for i := 0; i < len(e.toApply); i++ {
		m, err := e.managerGet("compute barrier")
		if err != nil {
			return false, &stepError{step: step, phase: "compute barrier", err: err, retryable: true}
		}
		switch m.kind {
		case kindComputeOver:
			updates += m.count
			compUpd[m.from] += m.count
		case kindFailed:
			return false, &stepError{step: step, phase: "compute barrier", err: m.err, retryable: true}
		default:
			return false, &stepError{step: step, phase: "compute barrier",
				err: fmt.Errorf("core: manager got unexpected %v", m.kind), retryable: false}
		}
	}

	fault.Crash(fault.SiteKillBarrier)

	var aggDone bool
	var aggVal float64
	if e.aggregator != nil {
		aggVal = e.aggregate(e.aggregator, step)
		aggDone = e.aggregator.AggConverged(step, aggVal)
	}

	// Convergence is decided before the commit so it can be sealed into
	// the header: a resumed run must know the computation finished rather
	// than re-running (and possibly perturbing) a converged result.
	converged = (messages == 0 && updates == 0) || aggDone
	if err := e.vf.CommitStep(step, vertexfile.CommitState{
		Reconcile: !e.cfg.DisableReconcile,
		Durable:   !e.cfg.DisableSync,
		Converged: converged,
		Aggregate: aggVal,
	}); err != nil {
		return false, &stepError{step: step, phase: "commit", err: err, retryable: true}
	}

	var digest uint64
	if e.cfg.Digests {
		digest = e.digest(step)
	}

	st := StepStats{Step: step, Messages: messages, Delivered: delivered, Updates: updates, Aggregate: aggVal, Digest: digest, Duration: now().Sub(t0)}
	res.Steps = append(res.Steps, st)
	res.Supersteps++
	res.Messages += messages
	res.Delivered += delivered
	res.Updates += updates
	for i, c := range dispMsgs {
		res.DispatcherMessages[i] += c
	}
	for i, c := range compUpd {
		res.ComputerUpdates[i] += c
	}
	if e.cfg.Progress != nil {
		e.cfg.Progress(st)
	}
	return converged, nil
}
