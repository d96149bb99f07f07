package core

import "sync"

// arena is the engine-owned memory pool behind the message hot path.
//
// The message paths recycle two kinds of buffers at high rate, each of
// one fixed geometry per engine: dense slabs and []Message batch
// buffers. Earlier revisions used sync.Pool, but the garbage collector
// empties those between cycles, so a multi-second run kept
// re-allocating megabyte slabs it had just released — the ~2 B/msg
// EXPERIMENTS.md records for revision 9f06539. The arena instead holds
// explicit free lists owned by the engine: nothing is ever dropped
// until the engine itself is garbage, so steady-state supersteps run
// allocation-free.
//
// Ownership protocol (see DESIGN.md "Memory discipline & prefetch"):
//
//   - A buffer has exactly one owner at a time: the dispatcher filling
//     it, the mailbox carrying it, the computer draining it, or the
//     arena. Handoff transfers ownership; double-release is a bug.
//   - Buffers come out of the arena empty (slab bits clear, message
//     buffers length 0). Release re-establishes that invariant, so an
//     aborted superstep's partial state can never leak into a retry.
//   - In race/poison builds every release also overwrites the payload
//     bytes with a poison pattern, so any read of recycled memory that
//     slipped past the presence metadata yields loud garbage instead of
//     a stale-but-plausible value.
//
// Both free lists are guarded by one mutex; acquisition happens per
// batch or per superstep, never per message, so contention is nil.
type arena struct {
	mu sync.Mutex

	// slabs hold denseSeg buffers; every slab in an engine shares the
	// same geometry (slabVals value slots), so a single list suffices.
	slabs    []*denseSeg
	slabVals int64

	// bufs holds batch buffers, all of capacity batchCap
	// (Config.BatchSize).
	bufs     [][]Message
	batchCap int
}

// poisonWord is the value poison-on-release paints over recycled
// payloads. It decodes to an absurd result for every shipped algorithm
// (a denormal-huge float, a ~4-billion BFS level), so leaks are loud.
const poisonWord uint64 = 0xDEADBEEFDEADBEEF

// poisonReleases enables poison-on-release. It defaults on under the
// race detector (poison_race.go) and off otherwise; tests may flip it
// to exercise the recycling protocol in regular builds.
var poisonReleases = poisonDefault

func newArena(slabVals int64, batchCap int) *arena {
	return &arena{slabVals: slabVals, batchCap: batchCap}
}

// getSlab returns an empty dense slab (count 0, bits clear).
//
//gpsa:noalloc
func (a *arena) getSlab() *denseSeg {
	a.mu.Lock()
	if n := len(a.slabs); n > 0 {
		s := a.slabs[n-1]
		a.slabs = a.slabs[:n-1]
		a.mu.Unlock()
		return s
	}
	a.mu.Unlock()
	return &denseSeg{
		vals: make([]uint64, a.slabVals),
		bits: make([]uint64, (a.slabVals+63)/64),
	}
}

// putSlab recycles a dense slab, clearing its presence bitmap (values
// are meaningless wherever the bit is clear, so only the bitmap needs
// the memset) and poisoning the values in poison builds. A partially
// consumed slab — abort mid-segment — is cleaned by the same stroke.
//
//gpsa:noalloc
func (a *arena) putSlab(s *denseSeg) {
	if s == nil || int64(len(s.vals)) != a.slabVals {
		return // foreign geometry (engine reconfigured): let it go
	}
	for i := range s.bits {
		s.bits[i] = 0
	}
	s.count = 0
	if poisonReleases {
		for i := range s.vals {
			s.vals[i] = poisonWord
		}
	}
	a.mu.Lock()
	//lint:noalloc free-list growth, bounded by the in-flight slab count and amortized by prewarm
	a.slabs = append(a.slabs, s)
	a.mu.Unlock()
}

// getBuf returns an empty batch buffer of capacity batchCap.
//
//gpsa:noalloc
func (a *arena) getBuf() []Message {
	a.mu.Lock()
	if n := len(a.bufs); n > 0 {
		b := a.bufs[n-1]
		a.bufs = a.bufs[:n-1]
		a.mu.Unlock()
		return b
	}
	a.mu.Unlock()
	return make([]Message, 0, a.batchCap)
}

// putBuf recycles a batch buffer, poisoning it in poison builds.
//
//gpsa:noalloc
func (a *arena) putBuf(b []Message) {
	if cap(b) != a.batchCap {
		return // foreign geometry: let it go
	}
	if poisonReleases {
		b = b[:a.batchCap]
		for i := range b {
			b[i] = Message{Dst: 0xDEADBEEF, Val: poisonWord}
		}
	}
	a.mu.Lock()
	//lint:noalloc free-list growth, bounded by the in-flight buffer count and amortized by prewarm
	a.bufs = append(a.bufs, b[:0])
	a.mu.Unlock()
}

// warmSlabs stocks the slab free list with n slabs. Engine.New sizes n
// to the in-flight bound — one slab per (dispatcher, computer) pair —
// so the whole run draws from the free list and never allocates a slab.
func (a *arena) warmSlabs(n int) {
	warm := make([]*denseSeg, 0, n)
	for i := 0; i < n; i++ {
		warm = append(warm, a.getSlab())
	}
	for _, s := range warm {
		a.putSlab(s)
	}
}

// warmBufs stocks the batch free list with n buffers.
func (a *arena) warmBufs(n int) {
	warm := make([][]Message, 0, n)
	for i := 0; i < n; i++ {
		warm = append(warm, a.getBuf())
	}
	for _, b := range warm {
		a.putBuf(b)
	}
}
