package core

import (
	"fmt"

	"repro/internal/fault"
)

// computer is the paper's computing worker (Algorithm 3). It owns the
// vertices v with v mod Computers == id and folds incoming messages into
// their values, message-driven, concurrently with dispatching. Messages
// arrive as dense slabs (kindSegment) carrying one pre-combined message
// per vertex, exactly one from each of the crew's dispatchers every
// superstep, and — on a cluster node — as wire batches of the intervals
// other nodes dispatch (kindBatch, then an empty slab). Every interval's
// messages apply in ascending interval order, so float sums are
// bit-identical at every pool geometry and on every node, and none
// before the superstep's start (Crew.Dispatch, after the value file's
// Begin): a node's peers may stream to it before it has begun the step.
type computer struct {
	id   int
	crew *Crew

	updates int64
	applied int // messages of the current slab or batch: paces the abort poll
	// begun is set from the superstep's start to its barrier; until then
	// everything is held. held[i] is interval i's slab of this superstep
	// once it has arrived and until its turn (noSlab marks an empty one,
	// or a wire interval complete); batches[i] the wire batches of
	// interval i received and not yet applied; next the interval that
	// applies next. SequentialPhases (ablation mode) holds everything
	// until the barrier.
	begun   bool
	held    []*Slab
	batches [][][]Message
	next    int
}

// noSlab is what a computer holds for an interval whose slab arrived
// empty, or whose wire messages are complete: its turn passes without a
// slab apply.
var noSlab = new(Slab)

// missingSlabsError is a computer reaching the barrier before every
// interval has reached it: a broken hand-off, since a dispatcher sends
// one slab to each computer before it reports DISPATCH_OVER, and a
// cluster node passes the barrier only after every peer's end-of-stream.
type missingSlabsError struct {
	computer, applied, intervals int
	step                         int64
}

func (e *missingSlabsError) Error() string {
	return fmt.Sprintf("core: computer %d reached the superstep %d barrier with %d of %d intervals applied",
		e.computer, e.step, e.applied, e.intervals)
}

// Execute is the computing worker's actor loop. A failure — a returned
// error or a panic in the vertex program — reaches the manager through
// the actor system (Crew.failed).
func (c *computer) Execute() error {
	cr := c.crew
	c.held = make([]*Slab, len(cr.intervals))
	c.batches = make([][][]Message, len(cr.intervals))
	for {
		m, ok := cr.toApply[c.id].Get()
		if !ok {
			return nil
		}
		switch m.kind {
		case kindIterationStart:
			c.begun = true
		case kindSegment:
			s := m.seg
			if m.count == 0 {
				s = noSlab
			}
			c.held[m.from] = s
		case kindBatch:
			c.batches[m.from] = append(c.batches[m.from], m.batch) // held as received: no copy
		case kindComputeOver:
			// FIFO mailbox ordering guarantees everything sent before the
			// barrier has been received above.
			c.applyHeld()
			if c.next != len(c.held) {
				return &missingSlabsError{computer: c.id, applied: c.next, intervals: len(c.held), step: m.step}
			}
			c.next, c.begun = 0, false
			ack := workerMsg{kind: kindComputeOver, from: c.id, count: c.updates}
			c.updates = 0
			if err := cr.toManager.Put(ack); err != nil {
				return nil // manager mailbox closed: teardown in progress
			}
			continue
		case kindSystemOver:
			return nil
		default:
			return fmt.Errorf("core: computer %d: unexpected message kind %v", c.id, m.kind)
		}
		if c.begun && !cr.sequential {
			c.applyHeld()
		}
	}
}

// applyHeld applies what has arrived of the intervals whose turn has
// come: from next up to the first interval not yet complete, whose wire
// messages so far it applies too.
//
//gpsa:noalloc
func (c *computer) applyHeld() {
	for c.next < len(c.held) {
		if bs := c.batches[c.next]; len(bs) > 0 {
			for _, b := range bs {
				c.applyBatch(b)
			}
			clear(bs)
			c.batches[c.next] = bs[:0]
		}
		s := c.held[c.next]
		if s == nil {
			return
		}
		c.held[c.next] = nil
		c.next++
		if s != noSlab {
			c.processSegment(s)
		}
	}
}

// processSegment folds a dense accumulator segment into the update
// column via the value file's bulk-apply: one pre-combined message per
// present vertex, visited in vertex order. The reset hands the slab back
// to its dispatcher through the barrier ack.
//
//gpsa:noalloc
func (c *computer) processSegment(seg *Slab) {
	vf := c.crew.vf
	c.applied = 0
	c.updates += vf.BulkApply(vf.Epoch(), int64(c.id), int64(len(c.crew.toApply)), seg.Bits, seg.Vals, c.compute)
	seg.Reset()
}

// applyBatch folds wire messages into the update column, one combined
// message per destination of the batch's source interval.
//
//gpsa:noalloc
func (c *computer) applyBatch(batch []Message) {
	vf := c.crew.vf
	u := vf.Updater(vf.Epoch())
	c.applied = 0
	fn := c.compute
	for _, m := range batch {
		changed, stop := u.Apply(int64(m.Dst), m.Val, fn)
		if stop {
			break
		}
		if changed {
			c.updates++
		}
	}
	u.Publish()
}

// compute is the computer's vertexfile.ApplyFunc: Program.Compute behind
// the computing worker's fault sites, hit once per message. The abort
// flag is polled at the first message of every slab or batch and every
// 256 after: once it is set the rest is dropped — the superstep is
// rolled back anyway, and a prompt unwind is what bounds the latency of
// a graceful SIGINT stop under slow user programs.
func (c *computer) compute(v int64, cur, msg uint64, first bool) (uint64, bool, bool) {
	if c.applied&0xFF == 0 && c.crew.aborted.Load() {
		return 0, false, true
	}
	c.applied++
	fault.Panic(fault.SiteComputerMsg)
	fault.Stall(fault.SiteComputerStall)
	newVal, changed := c.crew.prog.Compute(v, cur, msg, first)
	return newVal, changed, false
}
