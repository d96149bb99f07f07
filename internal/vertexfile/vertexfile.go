// Package vertexfile implements GPSA's memory-mapped vertex value file
// (paper §IV-D/F, Fig. 5).
//
// The file stores two 64-bit value slots per vertex — two "columns" that
// alternate roles every superstep: in superstep s the dispatch column
// (s mod 2) is read by dispatcher actors, and the update column (1 - s
// mod 2) is written by computing actors. The highest bit of each slot is
// the paper's update flag: 1 ("stale") means the vertex was not updated in
// the previous superstep and is skipped by dispatchers; 0 ("fresh") means
// its new value must be dispatched.
//
// Correctness note (a deviation from the paper's literal protocol,
// recorded in DESIGN.md): if a vertex is updated in superstep s but
// receives no message in superstep s+1, its newest value sits in a column
// that becomes the *update* column of superstep s+2 and would be silently
// overwritten on the next first-message, and the paper's first-message
// rule ("fetch value from the message sending column") would then resurrect
// a value that is two supersteps old. This package therefore maintains the
// invariant that *at the start of every superstep the dispatch column
// holds the newest payload of every vertex*, by copying, at the superstep
// barrier, the dispatch-column payload over every update-column slot that
// stayed stale (reconcile, run by CommitStep). That is also what makes
// the paper's lightweight fault tolerance sound: the dispatch column of
// the crashed superstep is a complete, payload-immutable snapshot of the
// previous superstep's state.
//
// Reconcile costs what the superstep's active set costs, not O(|V|). It
// rests on a second invariant: *a vertex stale in the dispatch column at
// Begin holds the same payload in both columns*. Create, reconcile
// itself, Recover, Rollback, AdoptInterval and FastForward all leave
// every stale vertex so, and computing actors only write the update
// column, so only the vertices Begin's active-set bitmap marks — those
// updated in the previous superstep — can need a copy or a re-stale. The
// column digest follows the same way: it is a sum over vertices, and
// every update-column write (Updater.Apply) books its change to the sum,
// so the commit adds the booked deltas instead of rehashing the column.
// The pass is sequential and raceless: it runs between supersteps.
//
// Durability contract (format v4; the full statement lives in DESIGN.md):
// every state transition writes and syncs its data before sealing and
// syncing the header that makes the data authoritative. Begin syncs the
// active-set bitmap before sealing the header running; CommitState syncs
// the reconciled columns before sealing the header clean at the next
// epoch. A header therefore never describes column or bitmap bytes that
// did not reach the file first, and Open cross-checks the sealed column
// digest so a violated ordering is detected rather than silently trusted.
package vertexfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/mmap"
)

// closeJoin unmaps m on a constructor error path, joining the close error
// into the primary one so a failing unmap is never silently dropped.
func closeJoin(err error, m *mmap.Map) error {
	return errors.Join(err, m.Close())
}

const (
	// StaleBit is the paper's "highest bit": set = not updated in the
	// last superstep.
	StaleBit uint64 = 1 << 63
	// PayloadMask extracts the 63-bit payload from a slot.
	PayloadMask = StaleBit - 1

	fileMagic   = 0x46565047 // "GPVF"
	fileVersion = 4
	headerBytes = 128
	headerWords = headerBytes / 8

	stateClean   = 0
	stateRunning = 1

	// maxVertices bounds the vertex count a header may claim, keeping
	// size arithmetic (16 bytes per vertex plus header and bitmap) far
	// from int64 overflow when Open validates untrusted files.
	maxVertices = int64(1) << 56
	// maxEpoch bounds the superstep counter a header may claim: no real
	// run approaches it, so a larger value means corruption.
	maxEpoch = int64(1) << 40
)

// Stale reports whether a slot carries the stale flag.
func Stale(slot uint64) bool { return slot&StaleBit != 0 }

// Payload extracts the 63-bit payload of a slot.
func Payload(slot uint64) uint64 { return slot & PayloadMask }

// Pack combines a payload with a staleness flag. The payload must fit in
// 63 bits.
func Pack(payload uint64, stale bool) uint64 {
	p := payload & PayloadMask
	if stale {
		p |= StaleBit
	}
	return p
}

// PackFloat64 encodes a non-negative float64 as a slot payload. Bit 63 of
// a non-negative IEEE 754 double is zero, so the numeric bits pass through
// unchanged; negative values would collide with the flag and are rejected.
func PackFloat64(v float64) (uint64, error) {
	if v < 0 || math.Signbit(v) {
		return 0, fmt.Errorf("vertexfile: negative value %g cannot share a slot with the flag bit", v)
	}
	return math.Float64bits(v), nil
}

// UnpackFloat64 decodes a payload written by PackFloat64.
func UnpackFloat64(p uint64) float64 { return math.Float64frombits(p & PayloadMask) }

// File is an open vertex value file. All slot accesses are atomic 64-bit
// loads and stores, making the dispatcher's flag writes and the computing
// workers' reads race-free without locks.
type File struct {
	path string
	m    *mmap.Map

	numVertices int64
	slots       []uint64 // 2*numVertices, interleaved: slot(v, col) = slots[2v+col]
	bitmap      []uint64 // ceil(numVertices/64): the persisted active-set snapshot
	header      []uint64 // first headerWords words of the mapping
	bitmapOff   int64
	slotsOff    int64

	torn         bool   // Open found a torn header and rolled it back
	lastRecovery string // "", "none", "exact", "conservative"

	// begun is set by Begin on this handle and cleared by a commit,
	// Rollback or Recover: reconcile reads Begin's bitmap and pending
	// holds only this handle's writes, so a commit needs both.
	begun bool
	// pending is the digest delta booked by Updater.Publish since the
	// last commit, Rollback or Recover (see colDigest).
	pending atomic.Uint64
}

// Header word indices (64-bit words of the 128-byte header):
//
//	word 0: magic (u32) | version (u32)
//	word 1: numVertices
//	word 2: epoch — completed supersteps
//	word 3: state — stateClean / stateRunning
//	word 4: FNV-1a checksum of all other header words
//	word 5: flags (bit 0: the computation has converged)
//	word 6: aggregator value at the last commit (float64 bits)
//	word 7: active-set checksum — FNV-1a over the epoch and the bitmap
//	        region; sealed by Begin, meaningful while state is running
//	word 8: column digest — colDigest of the current dispatch column;
//	        0 means absent (the last commit skipped reconcile)
//	word 9: dispatcher count the computation runs at (SetDispatchers);
//	        0 means not recorded
//	words 10-15: reserved (zero)
//
// Between the header and the slots sits the active-set bitmap region
// (ceil(numVertices/64) words): bit v records whether vertex v was fresh
// in the running superstep's dispatch column at Begin. Dispatchers
// consume (re-stale) fresh marks as they stream, so without this
// snapshot a crashed superstep could only be recovered conservatively
// (re-activate everything) — value-correct for idempotent programs but
// not bit-identical for order-sensitive float programs like PageRank.
//
// The checksum is re-sealed at every state transition (Create, Begin,
// Commit, Recover, Rollback). A header whose checksum does not match —
// or whose state word is neither clean nor running — was torn by a
// crash mid-flush; Open rolls such files back to the immutable dispatch
// column instead of trusting the state word.
const (
	hdrEpoch     = 2
	hdrState     = 3
	hdrSum       = 4
	hdrFlags     = 5
	hdrAggregate = 6
	hdrActiveSum = 7
	hdrColDigest = 8
	hdrDispatch  = 9
)

const flagConverged = 1 << 0

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for b := 0; b < 8; b++ {
		h ^= (w >> (8 * b)) & 0xFF
		h *= fnvPrime64
	}
	return h
}

// headerSum hashes every header word except the checksum itself with
// FNV-1a. Words are read atomically so sealing can race benignly with
// concurrent slot access.
func (f *File) headerSum() uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < headerWords; i++ {
		if i == hdrSum {
			continue
		}
		h = fnvWord(h, atomic.LoadUint64(&f.header[i]))
	}
	return h
}

func (f *File) sealHeader() { atomic.StoreUint64(&f.header[hdrSum], f.headerSum()) }

func (f *File) headerValid() bool {
	return atomic.LoadUint64(&f.header[hdrSum]) == f.headerSum()
}

// activeSum checksums the bitmap region together with the superstep it
// snapshots, so Recover can tell a bitmap sealed by step's Begin from
// stale bytes of an earlier superstep or a torn write.
func (f *File) activeSum(step int64) uint64 {
	h := fnvWord(uint64(fnvOffset64), uint64(step))
	for _, w := range f.bitmap {
		h = fnvWord(h, w)
	}
	return h
}

// mix hashes one (vertex, payload) pair for the column digest: the
// SplitMix64 finalizer over payload + v·golden-gamma, so equal payloads
// at different vertices, and a flipped payload bit, land far apart.
func mix(v int64, payload uint64) uint64 {
	z := payload + uint64(v)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// colDigest hashes the payloads of column col: fnvOffset64 + Σ_v
// mix(v, payload) mod 2^64. The sum is order-independent, so a write can
// update it in O(1) — subtract the old term, add the new (Updater.Apply)
// — and a commit seals it without an O(|V|) pass; Open, Verify, Recover,
// AdoptInterval and FastForward recompute it in full. The stale flags
// are excluded: they are advisory dispatch state, mutated in place by
// recovery, while the payloads are what resume correctness rests on.
func (f *File) colDigest(col int) uint64 {
	h := uint64(fnvOffset64)
	for v := int64(0); v < f.numVertices; v++ {
		h += mix(v, Payload(f.Load(col, v)))
	}
	return h
}

func bitmapWords(numVertices int64) int64 { return (numVertices + 63) / 64 }

// Create builds a new value file for numVertices vertices. init supplies
// each vertex's initial payload and whether the vertex starts active
// (fresh): PageRank activates every vertex, BFS only the root. Both
// columns receive the initial payload, so the dispatch-column invariant
// holds from superstep 0.
func Create(path string, numVertices int64, init func(v int64) (payload uint64, active bool)) (*File, error) {
	if numVertices <= 0 {
		return nil, fmt.Errorf("vertexfile: create %s: non-positive vertex count %d", path, numVertices)
	}
	if init == nil {
		init = func(int64) (uint64, bool) { return 0, true }
	}
	size := headerBytes + 8*bitmapWords(numVertices) + 16*numVertices
	m, err := mmap.Create(path, size, mmap.Options{})
	if err != nil {
		return nil, err
	}
	f, err := newFile(path, m, numVertices)
	if err != nil {
		return nil, closeJoin(err, m)
	}
	b := m.Bytes()
	binary.LittleEndian.PutUint32(b[0:], fileMagic)
	binary.LittleEndian.PutUint32(b[4:], fileVersion)
	binary.LittleEndian.PutUint64(b[8:], uint64(numVertices))
	f.setEpoch(0)
	f.setState(stateClean)
	for v := int64(0); v < numVertices; v++ {
		payload, active := init(v)
		// Column 0 is superstep 0's dispatch column: fresh for active
		// vertices. Column 1 is its update column: stale ("not yet
		// updated"), which is also the first-message detector.
		f.Store(0, v, Pack(payload, !active))
		f.Store(1, v, Pack(payload, true))
	}
	atomic.StoreUint64(&f.header[hdrColDigest], f.colDigest(0))
	f.sealHeader()
	if err := m.Sync(); err != nil {
		return nil, closeJoin(err, m)
	}
	return f, nil
}

// Open maps an existing value file, validating the header checksum, the
// clean/running state word, and the sealed column digest. A header torn
// by a crash mid-flush (checksum mismatch, or a state word that is
// neither clean nor running) is rolled back to the immutable dispatch
// column on the spot — Torn reports this. A file whose header is intact
// but records an in-progress superstep is opened as-is; call Recover to
// roll it back. A file whose sealed digest does not match its dispatch
// column was written out of order (header sealed before the column sync
// completed) or corrupted externally; it is rejected rather than trusted.
func Open(path string) (*File, error) {
	m, err := mmap.Open(path, mmap.Options{Writable: true})
	if err != nil {
		return nil, err
	}
	b := m.Bytes()
	if len(b) < headerBytes {
		return nil, closeJoin(fmt.Errorf("vertexfile: %s: truncated header", path), m)
	}
	if binary.LittleEndian.Uint32(b[0:]) != fileMagic {
		return nil, closeJoin(fmt.Errorf("vertexfile: %s: bad magic", path), m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != fileVersion {
		return nil, closeJoin(fmt.Errorf("vertexfile: %s: unsupported version %d", path, v), m)
	}
	n := int64(binary.LittleEndian.Uint64(b[8:]))
	if n <= 0 || n > maxVertices {
		return nil, closeJoin(fmt.Errorf("vertexfile: %s: absurd vertex count %d", path, n), m)
	}
	if want := headerBytes + 8*bitmapWords(n) + 16*n; int64(len(b)) < want {
		return nil, closeJoin(fmt.Errorf("vertexfile: %s: %d bytes, want %d for %d vertices", path, len(b), want, n), m)
	}
	f, err := newFile(path, m, n)
	if err != nil {
		return nil, closeJoin(err, m)
	}
	if e := f.Epoch(); e < 0 || e > maxEpoch {
		return nil, closeJoin(fmt.Errorf("vertexfile: %s: absurd epoch %d", path, e), m)
	}
	if s := f.state(); !f.headerValid() || (s != stateClean && s != stateRunning) {
		// Torn header: the state word cannot be trusted, so treat the
		// epoch's superstep as interrupted and roll back to the dispatch
		// column unconditionally.
		f.torn = true
		metrics.Inc(metrics.CtrOpenTorn)
		f.setState(stateRunning)
		if _, err := f.Recover(); err != nil {
			return nil, closeJoin(fmt.Errorf("vertexfile: %s: rolling back torn header: %w", path, err), m)
		}
		return f, nil
	}
	if want := atomic.LoadUint64(&f.header[hdrColDigest]); want != 0 {
		if got := f.colDigest(DispatchCol(f.Epoch())); got != want {
			metrics.Inc(metrics.CtrDigestMismatch)
			return nil, closeJoin(fmt.Errorf("vertexfile: %s: column digest mismatch (%#x, header sealed %#x): header sealed before column sync, or columns corrupted", path, got, want), m)
		}
	}
	return f, nil
}

// Torn reports whether Open found a torn header (failed checksum or
// invalid state word) and rolled the file back.
func (f *File) Torn() bool { return f.torn }

// LastRecovery describes the most recent Recover on this handle: "" if
// Recover never ran, "none" if the file was already clean, "exact" if the
// active-set bitmap was restored, "conservative" if every vertex was
// re-activated (torn header or unusable bitmap).
func (f *File) LastRecovery() string { return f.lastRecovery }

// NewMemory builds a purely in-memory value store with the same
// interface: Begin/Commit/Recover all work, with durability syncs as
// no-ops. Pairs with graph.NewMemoryFile for zero-file library
// embedding.
func NewMemory(numVertices int64, init func(v int64) (payload uint64, active bool)) (*File, error) {
	if numVertices <= 0 {
		return nil, fmt.Errorf("vertexfile: memory store: non-positive vertex count %d", numVertices)
	}
	if init == nil {
		init = func(int64) (uint64, bool) { return 0, true }
	}
	f := &File{
		path:        "(memory)",
		numVertices: numVertices,
		slots:       make([]uint64, 2*numVertices),
		bitmap:      make([]uint64, bitmapWords(numVertices)),
		header:      make([]uint64, headerWords),
	}
	for v := int64(0); v < numVertices; v++ {
		payload, active := init(v)
		f.Store(0, v, Pack(payload, !active))
		f.Store(1, v, Pack(payload, true))
	}
	atomic.StoreUint64(&f.header[hdrColDigest], f.colDigest(0))
	return f, nil
}

func newFile(path string, m *mmap.Map, numVertices int64) (*File, error) {
	bw := bitmapWords(numVertices)
	bitmapOff := int64(headerBytes)
	slotsOff := bitmapOff + 8*bw
	header, err := m.Uint64s(0, headerWords)
	if err != nil {
		return nil, err
	}
	bitmap, err := m.Uint64s(bitmapOff, bw)
	if err != nil {
		return nil, err
	}
	slots, err := m.Uint64s(slotsOff, 2*numVertices)
	if err != nil {
		return nil, err
	}
	// The retained views live exactly as long as the mapping: File owns m
	// and Close unmaps them together, and every slot access goes through
	// the atomic Load/Store accessors.
	return &File{
		path: path, m: m, numVertices: numVertices,
		//lint:colalias File owns the mapping; views and map share one lifetime and slots are accessed atomically
		slots: slots, bitmap: bitmap, header: header,
		bitmapOff: bitmapOff, slotsOff: slotsOff,
	}, nil
}

// NumVertices returns the vertex count.
func (f *File) NumVertices() int64 { return f.numVertices }

// Epoch returns the number of completed supersteps; the next superstep to
// run is Epoch() itself, and its dispatch column is DispatchCol(Epoch()).
func (f *File) Epoch() int64 { return int64(atomic.LoadUint64(&f.header[hdrEpoch])) }

func (f *File) setEpoch(e int64) { atomic.StoreUint64(&f.header[hdrEpoch], uint64(e)) }

func (f *File) state() uint64     { return atomic.LoadUint64(&f.header[hdrState]) }
func (f *File) setState(s uint64) { atomic.StoreUint64(&f.header[hdrState], s) }

// InProgress reports whether the file records an uncommitted superstep
// (i.e. the writer crashed or is still running).
func (f *File) InProgress() bool { return f.state() == stateRunning }

// Converged reports whether the last committed superstep concluded the
// computation. A resumed run can return immediately instead of
// re-running (and possibly perturbing) a finished result.
func (f *File) Converged() bool {
	return atomic.LoadUint64(&f.header[hdrFlags])&flagConverged != 0
}

// Aggregate returns the aggregator value sealed by the last commit (0 if
// the program does not aggregate).
func (f *File) Aggregate() float64 {
	return math.Float64frombits(atomic.LoadUint64(&f.header[hdrAggregate]))
}

// Digest returns the column digest the last commit sealed: colDigest of
// the current dispatch column, kept from the published deltas, so
// reading it is O(1). It is 0 after a commit that skipped reconcile
// (CommitState.Reconcile false), which seals none.
func (f *File) Digest() uint64 { return atomic.LoadUint64(&f.header[hdrColDigest]) }

// Dispatchers returns the dispatcher count SetDispatchers recorded, or 0
// if none was.
func (f *File) Dispatchers() int { return int(atomic.LoadUint64(&f.header[hdrDispatch])) }

// SetDispatchers records the dispatcher count the computation runs at.
// Float programs fold per dispatcher interval, so only a resume at the
// recorded count continues the uninterrupted run bit for bit. The header
// is resealed in place; the next Begin makes the record durable.
func (f *File) SetDispatchers(d int) {
	atomic.StoreUint64(&f.header[hdrDispatch], uint64(d))
	f.sealHeader()
}

// DispatchCol returns the dispatch (read) column for a superstep.
func DispatchCol(step int64) int { return int(step & 1) }

// UpdateCol returns the update (write) column for a superstep.
func UpdateCol(step int64) int { return int(step&1) ^ 1 }

// Load atomically reads slot (v, col).
//
//gpsa:noalloc
func (f *File) Load(col int, v int64) uint64 {
	return atomic.LoadUint64(&f.slots[2*v+int64(col)])
}

// Store atomically writes slot (v, col).
//
//gpsa:noalloc
func (f *File) Store(col int, v int64, slot uint64) {
	atomic.StoreUint64(&f.slots[2*v+int64(col)], slot)
}

// ApplyFunc folds one combined message into a vertex (Updater.Apply).
// cur carries first-message semantics already resolved against the
// dispatch column. Returning stop=true abandons the rest of the batch
// (run teardown); changed=false leaves the slot untouched.
type ApplyFunc func(v int64, cur, msg uint64, first bool) (newVal uint64, changed, stop bool)

// Updater is one writer's handle on a superstep's update column, and
// Apply the only way a vertex value changes. Each goroutine writing the
// column holds its own Updater and calls Publish when its batch is done:
// one atomic add per batch, not per write.
type Updater struct {
	f          *File
	dcol, ucol int
	delta      uint64 // booked digest delta not yet published
}

// Updater returns a write handle on superstep step's update column.
func (f *File) Updater(step int64) Updater {
	return Updater{f: f, dcol: DispatchCol(step), ucol: UpdateCol(step)}
}

// Apply folds msg into vertex v through fn. It applies the first-message
// rule of the paper's Algorithm 3 — a still-stale update slot reads its
// previous value from the dispatch column — stores a changed value
// fresh, and books the write's digest delta mix(v, new) − mix(v, cur).
// A superstep's deltas for v telescope to mix(v, final) − mix(v, start),
// which is what lets CommitStep seal the next dispatch column's digest
// without rehashing it.
//
//gpsa:noalloc
func (u *Updater) Apply(v int64, msg uint64, fn ApplyFunc) (changed, stop bool) {
	f := u.f
	slot := f.Load(u.ucol, v)
	first := Stale(slot)
	cur := Payload(slot)
	if first {
		cur = Payload(f.Load(u.dcol, v))
	}
	newVal, changed, stop := fn(v, cur, msg, first)
	if stop || !changed {
		return false, stop
	}
	newVal &= PayloadMask
	f.Store(u.ucol, v, newVal)
	u.delta += mix(v, newVal) - mix(v, cur)
	return true, false
}

// Publish hands the booked digest delta to the file for the next commit.
//
//gpsa:noalloc
func (u *Updater) Publish() {
	u.f.pending.Add(u.delta)
	u.delta = 0
}

// BulkApply folds a dense accumulator segment into superstep step's
// update column: for every set bit i of bits, vertex offset + i*stride
// receives the combined message vals[i] through Updater.Apply. It returns
// the number of vertices whose value changed. Present entries are visited
// in ascending vertex order, which keeps the fold deterministic.
//
//gpsa:noalloc
func (f *File) BulkApply(step, offset, stride int64, bits, vals []uint64, fn ApplyFunc) (updates int64) {
	u := f.Updater(step)
segment:
	for wi, word := range bits {
		base := int64(wi) * 64
		for ; word != 0; word &= word - 1 {
			i := base + int64(mathbits.TrailingZeros64(word))
			v := offset + i*stride
			if v >= f.numVertices {
				break segment
			}
			changed, stop := u.Apply(v, vals[i], fn)
			if stop {
				break segment
			}
			if changed {
				updates++
			}
		}
	}
	u.Publish()
	return updates
}

// NextActive returns the first vertex in [v, end) that Begin's active-set
// bitmap marks — fresh in the dispatch column when the running superstep
// began — or end if there is none. It is a skip hint for dispatchers; a
// slot's stale flag stays the authority.
//
//gpsa:noalloc
func (f *File) NextActive(v, end int64) int64 {
	end = min(end, f.numVertices)
	if v >= end {
		return end
	}
	wi := v >> 6
	w := f.bitmap[wi] &^ (uint64(1)<<uint(v&63) - 1)
	for w == 0 {
		wi++
		if wi<<6 >= end {
			return end
		}
		w = f.bitmap[wi]
	}
	return min(wi<<6+int64(mathbits.TrailingZeros64(w)), end)
}

func (f *File) syncHeader() error {
	if f.m == nil {
		return nil
	}
	return f.m.SyncRange(0, headerBytes)
}

func (f *File) syncBitmap() error {
	if f.m == nil {
		return nil
	}
	return f.m.SyncRange(f.bitmapOff, 8*int64(len(f.bitmap)))
}

func (f *File) syncSlots() error {
	if f.m == nil {
		return nil
	}
	return f.m.SyncRange(f.slotsOff, 16*f.numVertices)
}

// Begin marks superstep step as in progress. It snapshots the dispatch
// column's fresh flags into the persisted bitmap region — the exact
// active set a recovery needs, since dispatchers consume fresh marks as
// they stream — and, when durable, syncs the bitmap BEFORE sealing and
// syncing the running header, so a sealed header never vouches for
// bitmap bytes that did not reach the file. It must be called with the
// step equal to the current epoch.
func (f *File) Begin(step int64, durable bool) error {
	if step != f.Epoch() {
		return fmt.Errorf("vertexfile: begin superstep %d, but epoch is %d", step, f.Epoch())
	}
	col := DispatchCol(step)
	for i := range f.bitmap {
		f.bitmap[i] = 0
	}
	for v := int64(0); v < f.numVertices; v++ {
		if !Stale(f.Load(col, v)) {
			f.bitmap[v/64] |= 1 << uint(v%64)
		}
	}
	if durable {
		if err := f.syncBitmap(); err != nil {
			return fmt.Errorf("vertexfile: begin superstep %d: %w", step, err)
		}
	}
	fault.Crash(fault.SiteKillBeginActive)
	atomic.StoreUint64(&f.header[hdrActiveSum], f.activeSum(step))
	f.setState(stateRunning)
	f.sealHeader()
	f.begun = true
	if !durable {
		return nil
	}
	return f.syncHeader()
}

// CommitState carries what a commit seals into the header besides the
// epoch: whether the computation converged at this superstep and the
// aggregator's value, the algorithm state a resumed run needs to be a
// true continuation rather than a restart-from-values approximation.
type CommitState struct {
	// Reconcile restores the cross-superstep column invariants (see
	// reconcile); disable only for ablation runs of programs whose every
	// active vertex is re-updated each superstep.
	Reconcile bool
	// Durable syncs columns and header (in that order) to disk.
	Durable bool
	// Converged records that this superstep concluded the computation.
	Converged bool
	// Aggregate is the program's aggregator value at this superstep.
	Aggregate float64
}

// Commit reconciles the columns, advances the epoch past step, and
// records completion (durably when durable is set). It is shorthand for
// CommitStep with no algorithm state.
func (f *File) Commit(step int64, reconcile, durable bool) error {
	return f.CommitStep(step, CommitState{Reconcile: reconcile, Durable: durable})
}

// CommitStep completes superstep step: it reconciles the columns,
// computes the next dispatch column's digest, and seals state + epoch +
// convergence + aggregate into the header. Durability ordering: the
// column bytes are synced BEFORE the header is sealed and synced, so a
// crash at any instant leaves either a running header (superstep s rolls
// back) or a clean header whose digest provably matches the bytes on
// disk (superstep s committed) — never a sealed header describing column
// bytes that were not written. The superstep must have been begun on
// this handle: reconcile visits the vertices Begin's bitmap marks, and
// the digest adds the deltas this handle's Updaters published, so a
// commit without Begin is refused and leaves the file untouched.
func (f *File) CommitStep(step int64, st CommitState) error {
	if step != f.Epoch() {
		return fmt.Errorf("vertexfile: commit superstep %d, but epoch is %d", step, f.Epoch())
	}
	if !f.begun || !f.InProgress() {
		return fmt.Errorf("vertexfile: commit superstep %d: not begun on this handle; call Begin first", step)
	}
	if ferr := fault.Error(fault.SiteCommitTorn); ferr != nil {
		// Simulate a crash tearing the header mid-flush: the state word
		// still says running and the checksum no longer matches. Nothing
		// past this point ran, so the dispatch column is intact and both
		// Rollback (in-process retry) and Open (reopen after "death")
		// can roll the superstep back.
		atomic.StoreUint64(&f.header[hdrSum], f.headerSum()+1)
		return fmt.Errorf("vertexfile: commit superstep %d: %w", step, ferr)
	}
	var digest uint64
	if st.Reconcile {
		digest = f.reconcile(step)
	}
	fault.Crash(fault.SiteKillCommitColumns)
	if st.Durable {
		if ferr := fault.Error(fault.SiteColumnSync); ferr != nil {
			return fmt.Errorf("vertexfile: commit superstep %d: column sync: %w", step, ferr)
		}
		if err := f.syncSlots(); err != nil {
			return fmt.Errorf("vertexfile: commit superstep %d: column sync: %w", step, err)
		}
	}
	fault.Crash(fault.SiteKillCommitSeal)
	f.setEpoch(step + 1)
	f.setState(stateClean)
	var flags uint64
	if st.Converged {
		flags |= flagConverged
	}
	atomic.StoreUint64(&f.header[hdrFlags], flags)
	atomic.StoreUint64(&f.header[hdrAggregate], math.Float64bits(st.Aggregate))
	atomic.StoreUint64(&f.header[hdrColDigest], digest)
	f.sealHeader()
	f.begun = false
	f.pending.Store(0)
	if st.Durable {
		if err := f.syncHeader(); err != nil {
			return fmt.Errorf("vertexfile: commit superstep %d: header sync: %w", step, err)
		}
	}
	fault.Crash(fault.SiteKillCommitDone)
	return nil
}

// reconcile restores the cross-superstep invariants after superstep step
// and returns the digest of the next dispatch column:
//
//  1. For every vertex whose update-column slot stayed stale (not updated
//     in step), the dispatch-column payload is copied over it, so the
//     update column — the next superstep's dispatch column — holds the
//     newest payload of every vertex.
//  2. Every dispatch-column slot is re-marked stale: that column becomes
//     the next superstep's update column, whose stale flag doubles as the
//     first-message detector. (Dispatchers also stale consumed slots as
//     they go, per paper Algorithm 2; this pass additionally covers
//     vertices no dispatcher scanned.)
//
// Both are no-ops for a vertex stale at Begin (see the package doc), so
// only the vertices Begin's bitmap marks are visited, and the digest is
// the sealed one plus the published deltas. A file whose last commit
// skipped reconcile (digest word 0) never had those invariants restored,
// so it gets the full sweep and a full digest instead. Slots already in
// their reconciled state are not rewritten, which keeps their pages
// clean for the column msync.
func (f *File) reconcile(step int64) uint64 {
	d, u := DispatchCol(step), UpdateCol(step)
	sealed := atomic.LoadUint64(&f.header[hdrColDigest])
	if sealed == 0 {
		for v := int64(0); v < f.numVertices; v++ {
			f.reconcileVertex(d, u, v)
		}
		return f.colDigest(u)
	}
	for wi, word := range f.bitmap {
		for ; word != 0; word &= word - 1 {
			f.reconcileVertex(d, u, int64(wi)<<6|int64(mathbits.TrailingZeros64(word)))
		}
	}
	return sealed + f.pending.Load()
}

func (f *File) reconcileVertex(d, u int, v int64) {
	if slot := f.Load(u, v); Stale(slot) {
		if want := Payload(f.Load(d, v)) | StaleBit; want != slot {
			f.Store(u, v, want)
		}
	}
	if slot := f.Load(d, v); !Stale(slot) {
		f.Store(d, v, slot|StaleBit)
	}
}

// Recover rolls a crashed file back to the start of the interrupted
// superstep and returns that superstep number. The dispatch column of the
// crashed superstep is payload-immutable during execution (computing
// actors only write the update column; dispatchers only toggle flags), so
// it is a complete snapshot of the previous superstep's state.
//
// When the header's active-set checksum matches the bitmap region — the
// bitmap Begin sealed for exactly this superstep survived the crash —
// the rollback is exact: the dispatch column's fresh flags are restored
// from the bitmap, so the re-run regenerates the original message stream
// and even order-sensitive float programs (PageRank) resume bit-identical.
// Otherwise (torn header, damaged bitmap) it conservatively re-activates
// every vertex: redundant dispatches are harmless for the idempotent
// programs GPSA targets (the paper's recovery story, Fig. 6, has the same
// property). On a clean file Recover is a no-op returning the current
// epoch.
func (f *File) Recover() (int64, error) {
	f.begun = false
	f.pending.Store(0)
	step := f.Epoch()
	if !f.InProgress() {
		f.lastRecovery = "none"
		return step, nil
	}
	exact := !f.torn && atomic.LoadUint64(&f.header[hdrActiveSum]) == f.activeSum(step)
	d, u := DispatchCol(step), UpdateCol(step)
	for v := int64(0); v < f.numVertices; v++ {
		p := Payload(f.Load(d, v))
		if exact {
			active := f.bitmap[v/64]&(1<<uint(v%64)) != 0
			f.Store(d, v, Pack(p, !active))
		} else {
			f.Store(d, v, p) // fresh: conservatively re-activate
		}
		f.Store(u, v, p|StaleBit)
	}
	if exact {
		f.lastRecovery = "exact"
		metrics.Inc(metrics.CtrRecoverExact)
	} else {
		f.lastRecovery = "conservative"
		metrics.Inc(metrics.CtrRecoverConservative)
	}
	// Same ordering discipline as Commit: slots reach the file before the
	// header that declares them authoritative. The digest is re-sealed
	// from the surviving column — for an intact header this recomputes
	// the identical value; for a torn one it repairs a garbage word.
	if err := f.syncSlots(); err != nil {
		return 0, err
	}
	f.setState(stateClean)
	atomic.StoreUint64(&f.header[hdrColDigest], f.colDigest(d))
	f.sealHeader()
	if err := f.syncHeader(); err != nil {
		return 0, err
	}
	return step, nil
}

// Rollback restores the interrupted superstep step to its starting state
// using the active-set bitmap persisted by Begin. The dispatch column's
// payloads are authoritative (payload-immutable during the superstep);
// its flags are restored from the bitmap and the update column is reset
// to stale copies. The rollback is exact — only the vertices that were
// active re-dispatch — so a retried superstep regenerates the original
// message stream bit-for-bit, which is what lets even order-sensitive
// float programs (PageRank) retry without perturbing their results.
func (f *File) Rollback(step int64, durable bool) error {
	if step != f.Epoch() {
		return fmt.Errorf("vertexfile: rollback superstep %d, but epoch is %d", step, f.Epoch())
	}
	d, u := DispatchCol(step), UpdateCol(step)
	for v := int64(0); v < f.numVertices; v++ {
		p := Payload(f.Load(d, v))
		active := f.bitmap[v/64]&(1<<uint(v%64)) != 0
		f.Store(d, v, Pack(p, !active))
		f.Store(u, v, p|StaleBit)
	}
	f.begun = false
	f.pending.Store(0)
	metrics.Inc(metrics.CtrStepRollbacks)
	if durable {
		if err := f.syncSlots(); err != nil {
			return err
		}
	}
	f.setState(stateClean)
	f.sealHeader()
	if !durable {
		return nil
	}
	return f.syncHeader()
}

// Rewind un-commits superstep step: a file whose epoch is already step+1
// (Commit ran) is rolled back to the start of step, as if Begin(step) had
// just sealed it running and the crash happened immediately. It exists
// for coordinated distributed retry — when the cluster rolls a superstep
// back, nodes that committed before the failure was detected must rewind
// to rejoin the nodes that never finished.
//
// Soundness rests on two invariants that hold between Commit(step) and
// the next Begin: the old dispatch column DispatchCol(step) is still
// payload-immutable (Commit's reconcile only toggles its flags and
// writes the other column), so it remains the exact start-of-step
// snapshot; and the bitmap region still holds the active set Begin(step)
// sealed (Commit never touches it). Rewind therefore re-declares the
// superstep interrupted — epoch back to step, state running, header
// sealed and synced FIRST, so a crash at any instant leaves a header
// that describes a recoverable in-progress step — and then delegates to
// Recover, which restores the flags exactly from the bitmap and re-seals
// the digest with the same data-before-header ordering as Commit.
func (f *File) Rewind(step int64) error {
	if f.InProgress() {
		return fmt.Errorf("vertexfile: rewind superstep %d: file records an in-progress superstep; use Rollback or Recover", step)
	}
	if f.Epoch() != step+1 {
		return fmt.Errorf("vertexfile: rewind superstep %d, but epoch is %d, want %d", step, f.Epoch(), step+1)
	}
	f.setEpoch(step)
	f.setState(stateRunning)
	atomic.StoreUint64(&f.header[hdrFlags], 0)
	f.sealHeader()
	if err := f.syncHeader(); err != nil {
		return fmt.Errorf("vertexfile: rewind superstep %d: %w", step, err)
	}
	if _, err := f.Recover(); err != nil {
		return fmt.Errorf("vertexfile: rewind superstep %d: %w", step, err)
	}
	return nil
}

// Value returns the newest payload of v. It must only be called between
// supersteps (after Commit), when the dispatch column of the next
// superstep holds the newest payload of every vertex.
func (f *File) Value(v int64) uint64 {
	return Payload(f.Load(DispatchCol(f.Epoch()), v))
}

// Values copies the newest payload of every vertex into a fresh slice.
func (f *File) Values() []uint64 {
	out := make([]uint64, f.numVertices)
	col := DispatchCol(f.Epoch())
	for v := int64(0); v < f.numVertices; v++ {
		out[v] = Payload(f.Load(col, v))
	}
	return out
}

// AdviseRandom hints the kernel that slots will be accessed at random
// (the computing workers' pattern); best-effort, no-op for memory stores.
func (f *File) AdviseRandom() error {
	if f.m == nil {
		return nil
	}
	return f.m.Advise(mmap.AccessRandom)
}

// Sync flushes the mapping (no-op for memory stores).
func (f *File) Sync() error {
	if f.m == nil {
		return nil
	}
	return f.m.Sync()
}

// Close flushes and unmaps the file (no-op for memory stores).
func (f *File) Close() error {
	if f.m == nil {
		return nil
	}
	return f.m.Close()
}

// Path returns the backing file path.
func (f *File) Path() string { return f.path }
