package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/graph"
	"repro/internal/vertexfile"
)

// control message kinds of the paper's command protocol (§V-C).
type msgKind int

const (
	kindSegment        msgKind = iota // dense accumulator segment handoff
	kindBatch                         // wire batch of a remote interval -> computer
	kindIterationStart                // manager -> dispatcher, and computer (Dispatch)
	kindDispatchOver                  // dispatcher -> manager
	kindComputeOver                   // manager -> computer (barrier) and ack back
	kindSystemOver                    // manager -> everyone: shut down
	kindFailed                        // system -> manager: a worker died
)

// workerMsg is the single envelope type flowing between actors. Control
// fields are interpreted per kind.
type workerMsg struct {
	kind   msgKind
	step   int64
	seg    *Slab     // kindSegment
	batch  []Message // kindBatch
	from   int       // segment, batch: source interval; dispatchOver, computeOver: worker index
	count  int64     // segment: slots present (0: empty marker); dispatchOver: messages generated; computeOver ack: updates
	count2 int64     // dispatchOver: messages delivered after combining
	err    error     // kindFailed
}

// computerMailboxDepth is each computing worker's mailbox depth. Every
// dispatcher hands every computer exactly one slab (or empty marker) per
// superstep, so a computer receives exactly Dispatchers messages, the
// step's start and the barrier per step: the depth binds only above 63
// dispatchers, and then it only makes a dispatcher wait — a computer
// holds a slab that arrives before its turn instead of waiting on it, so
// computers never wait on dispatchers. Dispatchers+1 would never bind, but at the MaxWorkers ×
// MaxWorkers bound it is about 1 GiB of channel buffers. On a cluster
// node the wire receivers put batches here too, and the depth likewise
// only makes a receiver wait while the computer catches up: it takes
// batches off its mailbox even before the step's start, holding them.
const computerMailboxDepth = 64

// Crew is the paper's worker crew (§V): a dispatcher actor per interval
// it dispatches, computing actors applying in ascending interval order,
// the slabs between them, and the manager mailbox they report to. core's
// Engine dispatches every interval of its partition; a cluster node the
// ones it owns, and its one computer takes the others off the wire
// (Deliver, Complete). Spawn starts an attempt, Teardown ends it, and in
// between Dispatch and Barrier run a superstep's two phases.
type Crew struct {
	// A node crew's hooks (NewNodeCrew). kill, a fault-injection hook
	// consulted only while injection is enabled, is called once per
	// vertex a dispatcher reads or jumps; an error from it fails the
	// dispatcher. handoff runs on each dispatcher after interval src's
	// scan: it takes out of the slab the entries this crew's computer
	// must not apply, and returns how many.
	kill    func() error
	handoff func(src int, s *Slab) (int64, error)

	sequential bool // Config.SequentialPhases
	gf         *graph.File
	vf         *vertexfile.File
	prog       Program
	fold       Fold             // prog's declared kernel, checked (foldOf)
	intervals  []graph.Interval // the partition; computers apply in its order
	local      []int            // the intervals dispatched here, ascending
	// slabs[k][c] is where local[k]'s dispatcher folds computer c's
	// messages. Vertex v belongs to computer v mod computers (paper
	// §V-A), so a slab covers ⌈|V|/computers⌉ vertices.
	slabs [][]*Slab

	// The current attempt (Spawn .. Teardown).
	system    *actor.System
	ctx       context.Context
	timeout   time.Duration
	toManager *actor.Mailbox[workerMsg]
	toDisp    []*actor.Mailbox[workerMsg] // indexed like local
	toApply   []*actor.Mailbox[workerMsg] // one per computer
	// aborted is set when the attempt is torn down early (watchdog or
	// failure); dispatchers poll it between vertices, so a wedged or long
	// superstep unwinds promptly instead of streaming its whole interval.
	aborted atomic.Bool

	// dispMsgs[k] is what local[k]'s dispatcher generated in the last
	// Dispatch; compUpd[c] what computer c updated in the last Barrier.
	dispMsgs []int64
	compUpd  []int64
}

// NewNodeCrew builds a cluster node's crew of prog over gf and vf, with
// the node's hooks and one computer, which applies every vertex the node
// hosts. It dispatches no interval until Reassign. A program whose
// declared Fold does not match its CombineMsg is an ErrFoldMismatch.
func NewNodeCrew(gf *graph.File, vf *vertexfile.File, prog Program, ivs []graph.Interval,
	kill func() error, handoff func(src int, s *Slab) (int64, error)) (*Crew, error) {
	fold, err := foldOf(prog)
	if err != nil {
		return nil, err
	}
	return &Crew{gf: gf, vf: vf, prog: prog, fold: fold, intervals: ivs, compUpd: make([]int64, 1), kill: kill, handoff: handoff}, nil
}

// Reassign sets the intervals the crew dispatches (ascending indices into
// its partition), between attempts. It keeps the slabs it has, allocating
// only for intervals beyond their count, and drops the rest: a node whose
// routing changes holds one slab row per interval it owns, never more.
func (cr *Crew) Reassign(local []int) {
	owned := (cr.gf.NumVertices + int64(len(cr.compUpd)) - 1) / int64(len(cr.compUpd))
	slabs := make([][]*Slab, len(local))
	for k := copy(slabs, cr.slabs); k < len(slabs); k++ {
		for range cr.compUpd {
			slabs[k] = append(slabs[k], newSlab(owned))
		}
	}
	cr.local, cr.slabs, cr.dispMsgs = local, slabs, make([]int64, len(local))
}

// Spawn starts a fresh attempt: fresh mailboxes, so no stale hand-off
// from a failed attempt can leak into the next, and reset slabs, so no
// partial sum can either. ctx cancels, and timeout (0: none) bounds,
// every wait for a worker notification.
func (cr *Crew) Spawn(ctx context.Context, timeout time.Duration) {
	for _, row := range cr.slabs {
		for _, s := range row {
			s.Reset()
		}
	}
	cr.ctx, cr.timeout = ctx, timeout
	cr.aborted.Store(false)
	cr.toManager = actor.NewMailbox[workerMsg](len(cr.local) + len(cr.compUpd) + 1)
	cr.toDisp = make([]*actor.Mailbox[workerMsg], len(cr.local))
	cr.toApply = make([]*actor.Mailbox[workerMsg], len(cr.compUpd))
	for c := range cr.toApply {
		cr.toApply[c] = actor.NewMailbox[workerMsg](computerMailboxDepth)
	}
	// Every computer mailbox exists before any worker runs: failed closes them.
	cr.system = actor.NewSystemContext(ctx, "gpsa", cr.failed)
	for k, src := range cr.local {
		cr.toDisp[k] = actor.NewMailbox[workerMsg](1)
		cr.system.Spawn(fmt.Sprintf("dispatcher-%d", src), &dispatcher{k: k, src: src, crew: cr, interval: cr.intervals[src]})
	}
	for c := range cr.toApply {
		cr.system.Spawn(fmt.Sprintf("computer-%d", c), &computer{id: c, crew: cr})
	}
}

// failed is the attempt's failure callback, the one way a worker's death
// reaches the manager, whether its Execute returned an error, panicked,
// or never ran. It raises the abort flag, queues the failure, and closes
// the computers' mailboxes so nothing blocks handing a dead computer
// work: dispatchers park, a node's wire receivers drop the frame.
func (cr *Crew) failed(f actor.Failure) {
	cr.aborted.Store(true)
	cr.toManager.Put(workerMsg{kind: kindFailed, err: f}) //nolint:errcheck // closed: teardown in progress
	for _, mb := range cr.toApply {
		mb.Close()
	}
}

// Teardown stops and collects the current attempt, if any. After it returns every worker goroutine has exited (a vertex
// program wedged in user code may delay that — see
// Config.SuperstepTimeout). The returned error is the attempt's
// name-ordered first failure, if any.
func (cr *Crew) Teardown() error {
	if cr.system == nil {
		return nil
	}
	// SYSTEM_OVER, then close: TryPut so a full mailbox cannot block the
	// manager — closing releases blocked senders and receivers drain
	// whatever is buffered before seeing the close. The manager mailbox
	// closes first so no worker can block on it while being collected;
	// workers treat a closed manager mailbox as an abort.
	cr.aborted.Store(true)
	cr.toManager.Close()
	for _, mb := range slices.Concat(cr.toDisp, cr.toApply) {
		mb.TryPut(workerMsg{kind: kindSystemOver})
		mb.Close()
	}
	err := cr.system.Wait()
	cr.system = nil
	return err
}

// Dispatch runs superstep step's dispatch phase: ITERATION_START to every
// computer and dispatcher, then the dispatchers' DISPATCH_OVER. The
// computers apply concurrently the whole time (the paper's overlap). It returns the messages the
// dispatchers generated and delivered after combining.
func (cr *Crew) Dispatch(step int64) (messages, delivered int64, err error) {
	// A node's computer holds wire batches that precede this mark.
	for _, mb := range cr.toApply {
		mb.Put(workerMsg{kind: kindIterationStart, step: step}) //nolint:errcheck // closed: a dead computer, whose failure phase collects
	}
	return cr.phase(step, "dispatch", cr.toDisp, kindIterationStart, kindDispatchOver, cr.dispMsgs)
}

// Barrier runs superstep step's compute barrier: COMPUTE_OVER to every
// computer, which replies after applying everything queued before it
// (FIFO), and returns how many vertex values they updated.
func (cr *Crew) Barrier(step int64) (updates int64, err error) {
	updates, _, err = cr.phase(step, "compute barrier", cr.toApply, kindComputeOver, kindComputeOver, cr.compUpd)
	return updates, err
}

// phase sends cmd to every worker of mbs and collects one reply of kind
// want from each, summing their counts (per worker into per).
func (cr *Crew) phase(step int64, name string, mbs []*actor.Mailbox[workerMsg], cmd, want msgKind, per []int64) (count, count2 int64, err error) {
	for _, mb := range mbs {
		// A closed mailbox is a dead worker's (Crew.failed): its failure
		// is queued for the collect below.
		mb.Put(workerMsg{kind: cmd, step: step}) //nolint:errcheck
	}
	clear(per)
	for range mbs {
		m, err := cr.managerGet(name)
		switch {
		case err == nil && m.kind == kindFailed:
			err = m.err
		case err == nil && m.kind != want:
			err = fmt.Errorf("core: manager got unexpected %v", m.kind)
		}
		if err != nil {
			return 0, 0, &stepError{step: step, phase: name, err: err}
		}
		count += m.count
		count2 += m.count2
		per[m.from] += m.count
	}
	return count, count2, nil
}

// Deliver hands a node crew's computer a wire batch of interval src's
// messages; Complete tells it, with an empty slab, that src has sent all
// it will this superstep. The computer applies neither before the step's
// Dispatch. Both fail once the attempt is over.
func (cr *Crew) Deliver(src int, batch []Message) error {
	return cr.toApply[0].Put(workerMsg{kind: kindBatch, from: src, batch: batch})
}

// Complete: see Deliver.
func (cr *Crew) Complete(src int) error {
	return cr.toApply[0].Put(workerMsg{kind: kindSegment, from: src})
}

// managerGet receives the next worker notification, honoring both the
// timeout and context cancellation: it polls in short slices, so a
// cancelled run notices within ~20ms even when no worker is producing
// notifications. The manager mailbox is only ever closed by this
// goroutine (Teardown), so inside managerGet a timed-out GetTimeout
// always means "no message yet", never "closed".
func (cr *Crew) managerGet(phase string) (workerMsg, error) {
	var deadline time.Time
	if cr.timeout > 0 {
		deadline = now().Add(cr.timeout)
	}
	const tick = 20 * time.Millisecond
	for {
		if cerr := cr.ctx.Err(); cerr != nil {
			return workerMsg{}, fmt.Errorf("core: %s interrupted: %w", phase, cerr)
		}
		wait := tick
		if !deadline.IsZero() {
			rem := deadline.Sub(now())
			if rem <= 0 {
				return workerMsg{}, fmt.Errorf("core: superstep watchdog: no worker notification within %v during %s", cr.timeout, phase)
			}
			if rem < wait {
				wait = rem
			}
		}
		if m, ok := cr.toManager.GetTimeout(wait); ok {
			return m, nil
		}
	}
}
