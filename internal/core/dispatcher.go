package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/actor"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vertexfile"
)

// dispatcher is the paper's dispatcher worker (Algorithm 2) as an actor,
// and its scan the one way a CSR interval becomes messages. It owns one
// interval of the CSR edge file and, each superstep, streams it, skips
// vertices whose dispatch-column slot is stale, calls GenMsg for each
// out-edge of the fresh ones (once per fresh vertex for a program that
// declares a Fold; see foldAll) and folds them at the source: a message
// goes to the computer owning its destination (dst mod computers, paper
// §V-A) and combines, a left fold in generation order, into that
// computer's slab at slot dst / computers. When the interval is done it
// hands each slab off whole.
//
// A stale vertex makes the scan look up the next vertex Begin's
// active-set bitmap marks (vertexfile.NextActive) and jump the cursor to
// that vertex's index block (graph.Cursor.SkipTo), so a sparse frontier
// does not stream the whole interval. The bitmap is only a skip hint —
// every vertex the cursor reads is still checked against its stale flag
// — and it is exact: nothing freshens a dispatch slot during a
// superstep, so a vertex it leaves out cannot be fresh.
type dispatcher struct {
	k        int // index into the crew's local intervals
	src      int // the interval's index in the partition
	crew     *Crew
	interval graph.Interval
	gf       *graph.File
	vf       *vertexfile.File
	prog     Program
	kernel   Fold    // the program's checked Fold (Crew.fold)
	slabs    []*Slab // row k of Crew.slabs

	// owner fast path, hoisted out of the per-edge loop: dst mod workers
	// is a mask (and the slab index a shift) when the worker count is a
	// power of two.
	workers  int
	ownMask  graph.VertexID // workers-1 when workers is a power of two
	ownShift uint           // log2(workers) for the slab index
	usesMask bool

	delivered int64 // messages delivered this superstep (post-combining)
	denseSegs int64 // slabs handed off this superstep
}

// route resolves the worker owning dst and dst's slot in its slab. One
// worker is its own case: the mask path costs a cluster scan ~8%.
func (d *dispatcher) route(dst graph.VertexID) (wk int, slot int64) {
	if d.workers == 1 {
		return 0, int64(dst)
	}
	if d.usesMask {
		return int(dst & d.ownMask), int64(dst >> d.ownShift)
	}
	return int(dst) % d.workers, int64(dst) / int64(d.workers)
}

// scan streams the interval in superstep step, between the value file's
// Begin and commit, and returns how many messages it generated. The
// abort flag is polled, and the crew's kill hook called, once per vertex
// read.
//
//gpsa:noalloc
func (d *dispatcher) scan(step int64) (sent int64, err error) {
	iv, cr := d.interval, d.crew
	col := vertexfile.DispatchCol(step)
	weighted := d.gf.Weighted()
	stride := 1 // words per edge
	if weighted {
		stride = 2
	}
	cur := d.gf.Cursor(iv)
	active := int64(-1) // the next vertex Begin's bitmap marks, once looked up
	for {
		v, deg, edges, ok := cur.Next()
		if !ok {
			break
		}
		if cr.aborted.Load() {
			return sent, errAborted
		}
		if cr.kill != nil && fault.Enabled() {
			if err := cr.kill(); err != nil {
				return sent, err
			}
		}
		slot := d.vf.Load(col, v)
		if vertexfile.Stale(slot) {
			// Not updated last superstep: skip vertex and edges. Past the
			// last active vertex looked up, look up the next and jump to
			// its index block; before it, the block's stale head streams.
			if v >= active {
				active = d.vf.NextActive(v+1, iv.EndVertex)
				at := iv.EndVertex
				if active < iv.EndVertex {
					at = cur.SkipTo(active)
				}
				if err := d.jumped(at - v - 1); err != nil {
					return sent, err
				}
				if at == iv.EndVertex {
					break
				}
			}
			continue
		}
		payload := vertexfile.Payload(slot)
		if d.kernel != FoldPerEdge && deg > 0 {
			// One message for every out-edge (Program's Fold); the
			// message site books a hit per message, as below.
			dst, w := graph.DecodeEdge(edges, 0, weighted)
			if msgVal, send := d.prog.GenMsg(v, payload, deg, dst, w); send {
				fault.PanicN(fault.SiteDispatcherMsg, int(deg))
				d.foldAll(edges, stride, msgVal)
				sent += int64(deg)
			}
		} else {
			for i := 0; i < int(deg); i++ {
				dst, w := graph.DecodeEdge(edges, i, weighted)
				msgVal, send := d.prog.GenMsg(v, payload, deg, dst, w)
				if !send {
					continue
				}
				fault.Panic(fault.SiteDispatcherMsg)
				d.fold(dst, msgVal)
				sent++
			}
		}
		// Consume: invalidate so the vertex is skipped until recomputed
		// (paper Algorithm 2, setHighestBitTo1).
		d.vf.Store(col, v, slot|vertexfile.StaleBit)
	}
	return sent, cur.Err()
}

// jumped accounts for n vertices the cursor jumped over: the kill hook is
// called once per vertex whether read or jumped, so a plan's hit index
// names the same instant of one dispatcher's stream with or without
// skipping (a node's dispatchers share the count as they interleave).
// Unarmed, it is one flag test.
//
//gpsa:noalloc
func (d *dispatcher) jumped(n int64) error {
	kill := d.crew.kill
	if kill == nil || !fault.Enabled() {
		return nil
	}
	for ; n > 0; n-- {
		if err := kill(); err != nil {
			return err
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
func (d *dispatcher) fold(dst graph.VertexID, val uint64) {
	wk, idx := d.route(dst)
	sl := d.slabs[wk]
	if claim(sl.Bits, idx) {
		val = d.prog.CombineMsg(sl.Vals[idx], val)
	}
	sl.Vals[idx] = val
}

// claim marks slot idx present and reports whether it already was.
func claim(bits []uint64, idx int64) bool {
	word, bit := idx>>6, uint64(1)<<uint(idx&63)
	had := bits[word]&bit != 0
	bits[word] |= bit
	return had
}

// foldAll folds val, the one message a fresh vertex of a program
// declaring a Fold sends along every out-edge, into each destination's
// slot: a left fold in edge order, as fold's, so both paths leave the
// same slab bit for bit. edges holds a destination every stride words.
// The kernel is chosen here, once per vertex: each is its own loop with
// the combiner inlined, and with one computer the slab row is hoisted
// out of it.
//
//gpsa:noalloc
func (d *dispatcher) foldAll(edges []uint32, stride int, val uint64) {
	switch d.kernel {
	case FoldSumFloat64:
		d.foldSum(edges, stride, val)
	case FoldMinUint64:
		d.foldMin(edges, stride, val)
	case FoldOrUint64:
		d.foldOr(edges, stride, val)
	}
}

// foldSum is foldAll's float64-sum loop.
//
//gpsa:noalloc
func (d *dispatcher) foldSum(edges []uint32, stride int, val uint64) {
	if d.workers == 1 {
		vals, bits := d.slabs[0].Vals, d.slabs[0].Bits
		for i := 0; i < len(edges); i += stride {
			idx, m := int64(edges[i]), val
			if claim(bits, idx) {
				m = sumFloat64(vals[idx], val)
			}
			vals[idx] = m
		}
		return
	}
	for i := 0; i < len(edges); i += stride {
		wk, idx := d.route(edges[i])
		sl, m := d.slabs[wk], val
		if claim(sl.Bits, idx) {
			m = sumFloat64(sl.Vals[idx], val)
		}
		sl.Vals[idx] = m
	}
}

// foldMin is foldAll's uint64-min loop.
//
//gpsa:noalloc
func (d *dispatcher) foldMin(edges []uint32, stride int, val uint64) {
	if d.workers == 1 {
		vals, bits := d.slabs[0].Vals, d.slabs[0].Bits
		for i := 0; i < len(edges); i += stride {
			idx, m := int64(edges[i]), val
			if claim(bits, idx) {
				m = minUint64(vals[idx], val)
			}
			vals[idx] = m
		}
		return
	}
	for i := 0; i < len(edges); i += stride {
		wk, idx := d.route(edges[i])
		sl, m := d.slabs[wk], val
		if claim(sl.Bits, idx) {
			m = minUint64(sl.Vals[idx], val)
		}
		sl.Vals[idx] = m
	}
}

// foldOr is foldAll's uint64-or loop.
//
//gpsa:noalloc
func (d *dispatcher) foldOr(edges []uint32, stride int, val uint64) {
	if d.workers == 1 {
		vals, bits := d.slabs[0].Vals, d.slabs[0].Bits
		for i := 0; i < len(edges); i += stride {
			idx, m := int64(edges[i]), val
			if claim(bits, idx) {
				m = orUint64(vals[idx], val)
			}
			vals[idx] = m
		}
		return
	}
	for i := 0; i < len(edges); i += stride {
		wk, idx := d.route(edges[i])
		sl, m := d.slabs[wk], val
		if claim(sl.Bits, idx) {
			m = orUint64(sl.Vals[idx], val)
		}
		sl.Vals[idx] = m
	}
}

// Execute is the dispatcher's actor loop: block on a command, run the
// superstep, notify the manager, repeat until SYSTEM_OVER. A failure is
// returned, and the actor system reports it to the manager (Crew.failed).
func (d *dispatcher) Execute() error {
	cr := d.crew
	d.gf, d.vf, d.prog, d.kernel, d.slabs = cr.gf, cr.vf, cr.prog, cr.fold, cr.slabs[d.k]
	if d.workers = len(d.slabs); d.workers&(d.workers-1) == 0 {
		d.usesMask = true
		d.ownMask = graph.VertexID(d.workers - 1)
		d.ownShift = uint(bits.TrailingZeros(uint(d.workers)))
	}
	for {
		cmd, ok := cr.toDisp[d.k].Get()
		if !ok || cmd.kind == kindSystemOver {
			return nil
		}
		if cmd.kind != kindIterationStart {
			return fmt.Errorf("core: dispatcher %d: unexpected command %v", d.src, cmd.kind)
		}
		d.delivered, d.denseSegs = 0, 0
		sent, err := d.runSuperstep(cmd.step)
		if err != nil {
			if errors.Is(err, errAborted) || errors.Is(err, actor.ErrMailboxClosed) || cr.aborted.Load() {
				// Teardown fallout, not a failure: the manager is already
				// tearing this superstep down, so park until it does.
				// Partial slabs die with the attempt: Spawn resets them.
				continue
			}
			return err
		}
		over := workerMsg{kind: kindDispatchOver, from: d.k, count: sent, count2: d.delivered}
		if err := cr.toManager.Put(over); err != nil {
			return nil // manager mailbox closed: teardown in progress
		}
	}
}

// runSuperstep scans the interval, runs the crew's hand-off if it has
// one, then hands every computer its slab, in worker order.
//
//gpsa:noalloc
func (d *dispatcher) runSuperstep(step int64) (sent int64, err error) {
	if sent, err = d.scan(step); err != nil {
		return sent, err
	}
	if h := d.crew.handoff; h != nil {
		n, err := h(d.src, d.slabs[0])
		d.delivered += n
		if err != nil {
			return sent, err
		}
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
// marker with count 0 — the computer applies slabs in interval order,
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
	return d.crew.toApply[wk].Put(workerMsg{kind: kindSegment, from: d.src, seg: s, count: n})
}
