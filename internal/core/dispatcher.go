package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/actor"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vertexfile"
)

// Scan is the paper's dispatcher loop (Algorithm 2), the one way a CSR
// interval becomes messages — core's dispatcher actors and the cluster's
// nodes both drive it. It streams the interval, skips vertices whose
// dispatch-column slot is stale, calls GenMsg for each out-edge of the
// fresh ones and folds them at the source: a message goes to the worker
// owning its destination (dst mod workers, paper §V-A) and combines, a
// left fold in generation order, into that worker's slab at slot
// dst / workers. The caller owns the slabs and hands them off.
//
// Run must be called between the value file's Begin for the superstep
// and its commit: a stale vertex makes it look up the next vertex
// Begin's active-set bitmap marks (vertexfile.NextActive) and jump the
// cursor to that vertex's index block (graph.Cursor.SkipTo), so a sparse
// frontier does not stream the whole interval. The bitmap is only a skip
// hint — every vertex the cursor reads is still checked against its
// stale flag — and it is exact: nothing freshens a dispatch slot during
// a superstep, so a vertex it leaves out cannot be fresh.
type Scan struct {
	// Hooks, all optional. KillSite is a fault.Error site hit once per
	// vertex, read or jumped, whose firing makes Run return Killed;
	// MsgSite a fault.Panic site hit once per message. Aborted is polled
	// once per vertex read (set: Run returns errAborted).
	KillSite, MsgSite string
	Killed            error
	Aborted           *atomic.Bool

	gf    *graph.File
	vf    *vertexfile.File
	prog  Program
	slabs []*Slab

	// owner fast path, hoisted out of the per-edge loop: dst mod workers
	// is a mask (and the slab index a shift) when the worker count is a
	// power of two.
	workers  int
	ownMask  graph.VertexID // workers-1 when workers is a power of two
	ownShift uint           // log2(workers) for the slab index
	usesMask bool
}

// NewScan prepares a scan of prog over gf and vf that folds into slabs,
// one per computing worker.
func NewScan(gf *graph.File, vf *vertexfile.File, prog Program, slabs []*Slab) *Scan {
	workers := len(slabs)
	s := &Scan{gf: gf, vf: vf, prog: prog, slabs: slabs, workers: workers}
	if workers&(workers-1) == 0 {
		s.usesMask = true
		s.ownMask = graph.VertexID(workers - 1)
		s.ownShift = uint(bits.TrailingZeros(uint(workers)))
	}
	return s
}

// route resolves the worker owning dst and dst's slot in its slab. One
// worker is its own case: the mask path costs a cluster scan ~8%.
func (s *Scan) route(dst graph.VertexID) (wk int, slot int64) {
	if s.workers == 1 {
		return 0, int64(dst)
	}
	if s.usesMask {
		return int(dst & s.ownMask), int64(dst >> s.ownShift)
	}
	return int(dst) % s.workers, int64(dst) / int64(s.workers)
}

// Run scans interval iv in superstep step and returns how many messages
// it generated.
//
//gpsa:noalloc
func (s *Scan) Run(iv graph.Interval, step int64) (sent int64, err error) {
	col := vertexfile.DispatchCol(step)
	weighted := s.gf.Weighted()
	cur := s.gf.Cursor(iv)
	active := int64(-1) // the next vertex Begin's bitmap marks, once looked up
	for {
		v, deg, edges, ok := cur.Next()
		if !ok {
			break
		}
		if s.Aborted != nil && s.Aborted.Load() {
			return sent, errAborted
		}
		if fault.Error(s.KillSite) != nil {
			return sent, s.Killed
		}
		slot := s.vf.Load(col, v)
		if vertexfile.Stale(slot) {
			// Not updated last superstep: skip vertex and edges. Past the
			// last active vertex looked up, look up the next and jump to
			// its index block; before it, the block's stale head streams.
			if v >= active {
				active = s.vf.NextActive(v+1, iv.EndVertex)
				at := iv.EndVertex
				if active < iv.EndVertex {
					at = cur.SkipTo(active)
				}
				if err := s.jumped(at - v - 1); err != nil {
					return sent, err
				}
				if at == iv.EndVertex {
					break
				}
			}
			continue
		}
		payload := vertexfile.Payload(slot)
		for i := 0; i < int(deg); i++ {
			dst, w := graph.DecodeEdge(edges, i, weighted)
			msgVal, send := s.prog.GenMsg(v, payload, deg, dst, w)
			if !send {
				continue
			}
			fault.Panic(s.MsgSite)
			s.fold(dst, msgVal)
			sent++
		}
		// Consume: invalidate so the vertex is skipped until recomputed
		// (paper Algorithm 2, setHighestBitTo1).
		s.vf.Store(col, v, slot|vertexfile.StaleBit)
	}
	return sent, cur.Err()
}

// jumped accounts for n vertices the cursor jumped over: KillSite is hit
// once per vertex whether read or jumped, so a plan's hit index names the
// same instant of the stream with or without skipping. Unarmed, it is
// one flag test.
//
//gpsa:noalloc
func (s *Scan) jumped(n int64) error {
	if s.KillSite == "" || !fault.Enabled() {
		return nil
	}
	for ; n > 0; n-- {
		if fault.Error(s.KillSite) != nil {
			return s.Killed
		}
	}
	return nil
}

// fold combines a message into its slot in the owning worker's slab. A
// slab has one slot per owned vertex, so it never overflows, and holding
// it to the end of the interval folds the most messages at the source —
// on the repository benchmark (R-MAT 2^18 / 4M edges, GOMAXPROCS=2)
// PageRank's job wall went 0.92 s → 0.65 s and its fold ratio 0.47 →
// 0.04 against handing off every 16 Ki entries (DESIGN.md "Message
// path").
//
//gpsa:noalloc
func (s *Scan) fold(dst graph.VertexID, val uint64) {
	wk, idx := s.route(dst)
	sl := s.slabs[wk]
	word, bit := idx>>6, uint64(1)<<uint(idx&63)
	if sl.Bits[word]&bit != 0 {
		sl.Vals[idx] = s.prog.CombineMsg(sl.Vals[idx], val)
		return
	}
	sl.Bits[word] |= bit
	sl.Vals[idx] = val
}

// dispatcher is the paper's dispatcher worker as an actor. It owns one
// interval of the CSR edge file and, each superstep, scans it into its
// slabs, one per computing worker, and hands each off whole when the
// interval is done.
type dispatcher struct {
	id       int
	eng      *Engine
	interval graph.Interval
	scan     *Scan
	slabs    []*Slab // row id of Engine.slabs

	delivered int64 // messages delivered this superstep (post-combining)
	denseSegs int64 // slabs handed off this superstep
}

// Execute is the dispatcher's actor loop: block on a command, run the
// superstep, notify the manager, repeat until SYSTEM_OVER.
func (d *dispatcher) Execute() (err error) {
	defer func() {
		if r := recover(); r != nil {
			ferr := fmt.Errorf("core: dispatcher %d: panic: %v", d.id, r)
			// Unblock the manager, which is waiting for DISPATCH_OVER,
			// then re-panic so the supervisor's restart policy decides
			// whether a fresh incarnation takes over this mailbox.
			d.eng.toManager.Put(workerMsg{kind: kindFailed, from: d.id, err: ferr}) //nolint:errcheck
			panic(r)
		}
	}()
	eng := d.eng
	d.slabs = eng.slabs[d.id]
	d.scan = NewScan(eng.gf, eng.vf, eng.prog, d.slabs)
	d.scan.MsgSite = fault.SiteDispatcherMsg
	d.scan.Aborted = &eng.aborted
	for {
		cmd, ok := eng.toDisp[d.id].Get()
		if !ok || cmd.kind == kindSystemOver {
			return nil
		}
		if cmd.kind != kindIterationStart {
			return fmt.Errorf("core: dispatcher %d: unexpected command %v", d.id, cmd.kind)
		}
		d.delivered, d.denseSegs = 0, 0
		sent, err := d.runSuperstep(cmd.step)
		if err != nil {
			if d.aborting(err) {
				// The manager is already tearing this superstep down;
				// park until teardown instead of failing. Partial slabs
				// die with the crew: spawn resets them.
				continue
			}
			eng.toManager.Put(workerMsg{kind: kindFailed, from: d.id, err: err}) //nolint:errcheck
			return err
		}
		over := workerMsg{kind: kindDispatchOver, from: d.id, count: sent, count2: d.delivered}
		if err := eng.toManager.Put(over); err != nil {
			return nil // manager mailbox closed: teardown in progress
		}
	}
}

// aborting reports whether err is teardown fallout rather than a real
// failure: an explicit abort, a mailbox closed under the dispatcher, or
// anything that happened after the engine raised the abort flag.
func (d *dispatcher) aborting(err error) bool {
	return errors.Is(err, errAborted) || errors.Is(err, actor.ErrMailboxClosed) || d.eng.aborted.Load()
}

// runSuperstep scans the interval, then hands every computer its slab,
// in worker order.
//
//gpsa:noalloc
func (d *dispatcher) runSuperstep(step int64) (sent int64, err error) {
	if sent, err = d.scan.Run(d.interval, step); err != nil {
		return sent, err
	}
	for wk := range d.slabs {
		if err := d.flushDense(wk); err != nil {
			return sent, err
		}
	}
	metrics.Add(metrics.CtrAccumFolded, sent-d.delivered) // each message either filled a slot or folded
	metrics.Add(metrics.CtrAccumDelivered, d.delivered)
	metrics.Add(metrics.CtrAccumDenseSegs, d.denseSegs)
	return sent, nil
}

// flushDense hands slab wk to its computer; the dispatcher does not
// touch it again until the next superstep. An empty slab goes as a
// marker with count 0 — the computer applies slabs in dispatcher order,
// so it must hear from every dispatcher — and is not counted.
//
//gpsa:noalloc
func (d *dispatcher) flushDense(wk int) error {
	s := d.slabs[wk]
	n := int64(s.Len())
	if n > 0 {
		d.delivered += n
		d.denseSegs++
	}
	return d.eng.toApply[wk].Put(workerMsg{kind: kindSegment, from: d.id, seg: s, count: n})
}
