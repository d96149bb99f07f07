package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/vertexfile"
)

// computer is the paper's computing worker (Algorithm 3). It owns the
// vertices v with v mod Computers == id and folds incoming messages into
// their values, message-driven, concurrently with dispatching. Messages
// arrive as dense slabs (kindSegment) carrying one pre-combined message
// per vertex, exactly one from each dispatcher every superstep, and are
// applied in ascending dispatcher order — the cluster's ascending source
// interval — so float sums are bit-identical at every pool geometry.
type computer struct {
	id  int
	eng *Engine

	updates int64
	// held[i] is dispatcher i's slab of this superstep once it has
	// arrived and until its turn (noSlab marks an empty one); next is the
	// dispatcher whose slab applies next. SequentialPhases (ablation
	// mode) holds every slab until the barrier.
	held []*Slab
	next int
}

// noSlab is what a computer holds for a dispatcher whose slab arrived
// empty: its turn passes without an apply.
var noSlab = new(Slab)

// missingSlabsError is a computer reaching the barrier without a slab
// (or empty marker) from every dispatcher: a broken hand-off, since a
// dispatcher sends one to each computer before it reports DISPATCH_OVER.
type missingSlabsError struct {
	computer, applied, dispatchers int
	step                           int64
}

func (e *missingSlabsError) Error() string {
	return fmt.Sprintf("core: computer %d reached the superstep %d barrier with %d of %d dispatcher slabs applied",
		e.computer, e.step, e.applied, e.dispatchers)
}

// Execute is the computing worker's actor loop.
func (c *computer) Execute() (err error) {
	defer func() {
		if r := recover(); r != nil {
			ferr := fmt.Errorf("core: computer %d: panic: %v", c.id, r)
			// Unblock the manager, then re-panic so the supervisor's
			// restart policy decides whether a fresh incarnation takes
			// over this mailbox.
			c.eng.toManager.Put(workerMsg{kind: kindFailed, from: c.id, err: ferr}) //nolint:errcheck
			panic(r)
		}
	}()
	c.updates = 0
	c.held = make([]*Slab, len(c.eng.intervals))
	c.next = 0
	for {
		m, ok := c.eng.toApply[c.id].Get()
		if !ok {
			return nil
		}
		switch m.kind {
		case kindSegment:
			s := m.seg
			if m.count == 0 {
				s = noSlab
			}
			c.held[m.from] = s
			if !c.eng.cfg.SequentialPhases {
				c.applyHeld()
			}
		case kindComputeOver:
			// FIFO mailbox ordering guarantees every slab sent before the
			// barrier has been received above.
			c.applyHeld()
			if c.next != len(c.held) {
				err := &missingSlabsError{computer: c.id, applied: c.next, dispatchers: len(c.held), step: m.step}
				c.eng.toManager.Put(workerMsg{kind: kindFailed, from: c.id, err: err}) //nolint:errcheck
				return err
			}
			c.next = 0
			ack := workerMsg{kind: kindComputeOver, from: c.id, count: c.updates}
			c.updates = 0
			if err := c.eng.toManager.Put(ack); err != nil {
				return nil // manager mailbox closed: teardown in progress
			}
		case kindSystemOver:
			return nil
		default:
			return fmt.Errorf("core: computer %d: unexpected message kind %v", c.id, m.kind)
		}
	}
}

// applyHeld applies the held slabs whose turn has come: from next up to
// the first dispatcher whose slab has not arrived yet.
//
//gpsa:noalloc
func (c *computer) applyHeld() {
	for c.next < len(c.held) && c.held[c.next] != nil {
		s := c.held[c.next]
		c.held[c.next] = nil
		c.next++
		if s != noSlab {
			c.processSegment(s)
		}
	}
}

// processSegment folds a dense accumulator segment into the update
// column via the value file's bulk-apply: one pre-combined message per
// present vertex, visited in vertex order. Each message hits the
// computing worker's fault sites, and the abort flag is polled every 256:
// once it is set the rest is dropped — the superstep is rolled back
// anyway, and a prompt unwind is what bounds the latency of a graceful
// SIGINT stop under slow user programs. The reset hands the slab back to
// its dispatcher through the barrier ack.
//
//gpsa:noalloc
func (c *computer) processSegment(seg *Slab) {
	eng := c.eng
	step := eng.vf.Epoch()
	stride := int64(len(eng.toApply))
	n := 0
	c.updates += eng.vf.BulkApply(step, int64(c.id), stride, seg.Bits, seg.Vals,
		//lint:noalloc one closure per segment, not per message, and the compiler stack-allocates it (gpsa-lint -escape proves no heap escape here)
		func(v int64, cur, msg uint64, first bool) (uint64, bool, bool) {
			if n&0xFF == 0 && eng.aborted.Load() {
				return 0, false, true
			}
			n++
			fault.Panic(fault.SiteComputerMsg)
			fault.Stall(fault.SiteComputerStall)
			newVal, changed := eng.prog.Compute(v, cur, msg, first)
			return newVal, changed, false
		})
	seg.Reset()
}

// ApplyBatch applies Compute for each message of batch to the update
// column of vf's current superstep (paper Algorithm 3) — a batch always
// belongs to the superstep running — through the value file's Updater,
// which owns the first-message rule and the column digest's delta, and
// returns how many vertex values it wrote. It is the cluster's apply of
// the messages a node receives (from its own slab or over the wire) at
// the barrier.
//
//gpsa:noalloc
func ApplyBatch(vf *vertexfile.File, prog Program, batch []Message) (updates int64) {
	u := vf.Updater(vf.Epoch())
	fn := programApply{prog}.apply
	for _, m := range batch {
		if changed, _ := u.Apply(int64(m.Dst), m.Val, fn); changed {
			updates++
		}
	}
	u.Publish()
	return updates
}

// programApply adapts Program.Compute to vertexfile.ApplyFunc; a batch
// never stops early.
type programApply struct{ prog Program }

func (p programApply) apply(v int64, cur, msg uint64, first bool) (uint64, bool, bool) {
	newVal, changed := p.prog.Compute(v, cur, msg, first)
	return newVal, changed, false
}
