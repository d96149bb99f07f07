package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vertexfile"
)

// Engine runs a Program over an on-disk CSR graph and a two-column vertex
// value file using the actor-based BSP model.
type Engine struct {
	vf  *vertexfile.File
	cfg Config

	aggregator Aggregator // non-nil when the program aggregates
	// crew dispatches every interval of the partition: one dispatcher
	// each, and cfg.Computers computers.
	crew *Crew
}

// ErrCrashInjected wraps the fault.SiteStepCrash injection: a simulated
// whole-process death after the dispatch phase, without commit. Unlike
// worker failures it is not retried in-process — recovery happens on
// reopen, exercising the paper's crash model.
var ErrCrashInjected = errors.New("core: injected crash")

// errAborted is how a dispatcher unwinds when the manager is tearing the
// superstep down; it signals a clean early exit, not a failure.
var errAborted = errors.New("core: superstep aborted")

// stepError is a superstep failure, labelled with its phase, that the
// supervised retry path may roll back and re-execute.
type stepError struct {
	step  int64
	phase string
	err   error
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
	fold, err := foldOf(prog)
	if err != nil {
		return nil, err
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
	ivs := gf.Partition(cfg.Dispatchers) // may be fewer than cfg.Dispatchers
	local := make([]int, len(ivs))
	for i := range local {
		local[i] = i
	}
	e := &Engine{vf: vf, cfg: cfg, crew: &Crew{gf: gf, vf: vf, prog: prog, fold: fold, intervals: ivs,
		compUpd: make([]int64, cfg.Computers), sequential: cfg.SequentialPhases}}
	e.crew.Reassign(local)
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
	cfg := e.cfg
	res := &Result{
		DispatcherMessages: make([]int64, len(e.crew.local)),
		ComputerUpdates:    make([]int64, cfg.Computers),
	}
	if e.vf.Converged() {
		// The file's last commit sealed convergence: the computation is
		// finished, and re-running supersteps could perturb programs whose
		// halting condition is aggregator-based rather than an idle step.
		res.Converged = true
		return res, nil
	}

	e.crew.Spawn(ctx, cfg.SuperstepTimeout)
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
			e.crew.Teardown() //nolint:errcheck
			metrics.Inc(metrics.CtrRunsCancelled)
			if rerr := e.vf.Rollback(step, !cfg.DisableSync); rerr != nil {
				runErr = fmt.Errorf("core: rolling back cancelled superstep %d: %w", step, errors.Join(cerr, rerr))
			} else {
				runErr = fmt.Errorf("core: superstep %d cancelled and rolled back: %w", step, cerr)
			}
			break
		}
		var se *stepError
		if !errors.As(err, &se) || retries >= cfg.MaxStepRetries {
			runErr = err
			break
		}
		// Supervised recovery: stop the crew (its failure is the reason
		// we are here — discard it), roll the value file back to the
		// superstep's start, back off, and re-run with a fresh crew.
		retries++
		res.Retries++
		e.crew.Teardown() //nolint:errcheck
		if rerr := e.vf.Rollback(step, !cfg.DisableSync); rerr != nil {
			runErr = fmt.Errorf("core: rolling back superstep %d after %v: %w", step, err, rerr)
			break
		}
		time.Sleep(retryBackoff(stepRetryBackoff, retries))
		e.crew.Spawn(ctx, cfg.SuperstepTimeout)
	}
	res.Duration = now().Sub(runStart)
	waitErr := e.crew.Teardown()
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

// runStep executes one superstep — the body of the paper's Algorithm 1 —
// and reports whether the computation converged. Statistics are buffered
// locally and only merged into res after the commit succeeds, so a
// retried superstep is counted exactly once.
func (e *Engine) runStep(step int64, res *Result) (converged bool, err error) {
	if err := e.vf.Begin(step, !e.cfg.DisableSync); err != nil {
		return false, &stepError{step: step, phase: "begin", err: err}
	}
	t0 := now()
	messages, delivered, err := e.crew.Dispatch(step)
	if err != nil {
		return false, err
	}

	if ferr := fault.Error(fault.SiteStepCrash); ferr != nil {
		// Simulated process death: abandon the superstep without commit.
		// The value file keeps its in-progress state; recovery happens on
		// reopen (Open + Recover), not in-process.
		return false, fmt.Errorf("%w (superstep %d: %v)", ErrCrashInjected, step, ferr)
	}
	fault.Crash(fault.SiteKillDispatch)

	updates, err := e.crew.Barrier(step)
	if err != nil {
		return false, err
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
		return false, &stepError{step: step, phase: "commit", err: err}
	}

	st := StepStats{Step: step, Messages: messages, Delivered: delivered, Updates: updates, Aggregate: aggVal, Digest: e.vf.Digest(), Duration: now().Sub(t0)}
	res.Steps = append(res.Steps, st)
	res.Supersteps++
	res.Messages += messages
	res.Delivered += delivered
	res.Updates += updates
	for i, c := range e.crew.dispMsgs {
		res.DispatcherMessages[i] += c
	}
	for i, c := range e.crew.compUpd {
		res.ComputerUpdates[i] += c
	}
	if e.cfg.Progress != nil {
		e.cfg.Progress(st)
	}
	return converged, nil
}
