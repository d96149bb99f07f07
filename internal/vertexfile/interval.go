// Interval migration primitives: extracting a contiguous vertex range
// from a sealed value file and adopting it into another, the byte-level
// mechanism under the cluster's elastic membership (live migration, node
// join/drain/replace). Both directions are barrier-only: a file that
// records an in-progress superstep refuses to extract or adopt, because
// only at a clean barrier does the dispatch column hold the newest
// payload — and the authoritative active flag — of every vertex.
package vertexfile

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Interval blob layout (little endian):
//
//	magic   u32  "GPVI"
//	version u32  1
//	epoch   u64  the epoch both donor and recipient must sit at
//	first   u64  first vertex id of the range
//	count   u64  number of vertices
//	digest  u64  FNV-1a over epoch, first, count, then every slot
//	slots   count x u64, the donor's dispatch-column slots verbatim
//	             (payload and stale flag together)
//
// The digest makes a truncated, padded, or bit-flipped blob detectable
// before a single slot is written, so a torn migration frame can never
// half-apply: AdoptInterval either installs the whole range or nothing.
const (
	intervalMagic       = 0x49565047 // "GPVI"
	intervalVersion     = 1
	intervalHeaderBytes = 40

	// maxIntervalVertices bounds the count a blob may claim, keeping the
	// length arithmetic far from overflow on untrusted input.
	maxIntervalVertices = int64(1) << 40
)

// intervalDigest chains the blob's identifying words and slots with the
// same FNV-1a primitive the file header uses.
func intervalDigest(epoch, first, count int64, slots []byte) uint64 {
	h := fnvWord(uint64(fnvOffset64), uint64(epoch))
	h = fnvWord(h, uint64(first))
	h = fnvWord(h, uint64(count))
	for off := 0; off+8 <= len(slots); off += 8 {
		h = fnvWord(h, binary.LittleEndian.Uint64(slots[off:]))
	}
	return h
}

// ExtractInterval serializes vertices [first, end) of the current
// dispatch column into a self-validating blob for AdoptInterval. The
// file must be at a barrier (no in-progress superstep): there the
// dispatch column is the complete, newest state of every vertex, and its
// stale flag is exactly the active bit the recipient needs — so one slot
// per vertex is the whole migration payload. The read is non-destructive;
// the donor keeps serving the range until the routing table says
// otherwise.
func (f *File) ExtractInterval(first, end int64) ([]byte, error) {
	if f.InProgress() {
		return nil, fmt.Errorf("vertexfile: extract [%d,%d): superstep %d in progress; migration is barrier-only", first, end, f.Epoch())
	}
	if first < 0 || end > f.numVertices || first >= end {
		return nil, fmt.Errorf("vertexfile: extract [%d,%d): out of range (have %d vertices)", first, end, f.numVertices)
	}
	epoch := f.Epoch()
	count := end - first
	col := DispatchCol(epoch)
	b := make([]byte, intervalHeaderBytes+8*count)
	binary.LittleEndian.PutUint32(b[0:], intervalMagic)
	binary.LittleEndian.PutUint32(b[4:], intervalVersion)
	binary.LittleEndian.PutUint64(b[8:], uint64(epoch))
	binary.LittleEndian.PutUint64(b[16:], uint64(first))
	binary.LittleEndian.PutUint64(b[24:], uint64(count))
	for v := first; v < end; v++ {
		binary.LittleEndian.PutUint64(b[intervalHeaderBytes+8*(v-first):], f.Load(col, v))
	}
	binary.LittleEndian.PutUint64(b[32:], intervalDigest(epoch, first, count, b[intervalHeaderBytes:]))
	return b, nil
}

// DecodeInterval validates an interval blob — magic, version, exact
// length, digest — and returns its epoch, range start, and slots. The
// returned slice is fresh (never aliases blob).
func DecodeInterval(blob []byte) (epoch, first int64, slots []uint64, err error) {
	if len(blob) < intervalHeaderBytes {
		return 0, 0, nil, fmt.Errorf("vertexfile: interval blob of %d bytes, want at least %d", len(blob), intervalHeaderBytes)
	}
	if binary.LittleEndian.Uint32(blob[0:]) != intervalMagic {
		return 0, 0, nil, fmt.Errorf("vertexfile: interval blob: bad magic")
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != intervalVersion {
		return 0, 0, nil, fmt.Errorf("vertexfile: interval blob: unsupported version %d", v)
	}
	epoch = int64(binary.LittleEndian.Uint64(blob[8:]))
	first = int64(binary.LittleEndian.Uint64(blob[16:]))
	count := int64(binary.LittleEndian.Uint64(blob[24:]))
	if epoch < 0 || epoch > maxEpoch {
		return 0, 0, nil, fmt.Errorf("vertexfile: interval blob: absurd epoch %d", epoch)
	}
	if first < 0 || count <= 0 || count > maxIntervalVertices {
		return 0, 0, nil, fmt.Errorf("vertexfile: interval blob: absurd range [%d, +%d)", first, count)
	}
	if int64(len(blob)) != intervalHeaderBytes+8*count {
		return 0, 0, nil, fmt.Errorf("vertexfile: interval blob of %d bytes, want %d for %d vertices", len(blob), intervalHeaderBytes+8*count, count)
	}
	want := binary.LittleEndian.Uint64(blob[32:])
	if got := intervalDigest(epoch, first, count, blob[intervalHeaderBytes:]); got != want {
		return 0, 0, nil, fmt.Errorf("vertexfile: interval blob: digest mismatch (computed %#x, blob carries %#x)", got, want)
	}
	slots = make([]uint64, count)
	for i := range slots {
		slots[i] = binary.LittleEndian.Uint64(blob[intervalHeaderBytes+8*i:])
	}
	return epoch, first, slots, nil
}

// AdoptInterval installs an extracted range into this file. The file
// must be at a barrier and at the same epoch the blob was extracted at —
// adopting across epochs would splice two different supersteps' states
// together. Each donor slot lands verbatim in the dispatch column
// (payload and active flag), and the update column receives the stale
// copy the first-message rule expects, exactly the state reconcile
// leaves behind — so the adopted range is bit-indistinguishable from one
// the recipient computed itself. Durability keeps the file's
// data-before-header ordering: slots sync first, then the re-sealed
// header (digest included) syncs after.
func (f *File) AdoptInterval(blob []byte, durable bool) error {
	epoch, first, slots, err := DecodeInterval(blob)
	if err != nil {
		return err
	}
	if f.InProgress() {
		return fmt.Errorf("vertexfile: adopt [%d,+%d): superstep %d in progress; migration is barrier-only", first, len(slots), f.Epoch())
	}
	if epoch != f.Epoch() {
		return fmt.Errorf("vertexfile: adopt [%d,+%d): blob extracted at epoch %d, file is at %d", first, len(slots), epoch, f.Epoch())
	}
	end := first + int64(len(slots))
	if end > f.numVertices || end < first {
		return fmt.Errorf("vertexfile: adopt [%d,%d): out of range (have %d vertices)", first, end, f.numVertices)
	}
	dcol, ucol := DispatchCol(epoch), UpdateCol(epoch)
	for i, slot := range slots {
		v := first + int64(i)
		f.Store(dcol, v, slot)
		f.Store(ucol, v, Payload(slot)|StaleBit)
	}
	if durable {
		if err := f.syncSlots(); err != nil {
			return fmt.Errorf("vertexfile: adopt [%d,%d): %w", first, end, err)
		}
	}
	if atomic.LoadUint64(&f.header[hdrColDigest]) != 0 {
		atomic.StoreUint64(&f.header[hdrColDigest], f.colDigest(dcol))
	}
	f.sealHeader()
	if durable {
		if err := f.syncHeader(); err != nil {
			return fmt.Errorf("vertexfile: adopt [%d,%d): %w", first, end, err)
		}
	}
	return nil
}

// FastForward advances a freshly created file (epoch 0, clean) straight
// to epoch, producing the state a node joining a running job needs:
// every slot of both columns carries its initial payload marked stale —
// no vertex active, no update pending — so the first AdoptInterval calls
// paint in the authoritative ranges and everything else stays inert. The
// update column's stale flags matter as much as the dispatch column's:
// they are the first-message detector for the superstep about to run,
// and FastForward must stale both columns because an odd target epoch
// swaps their roles relative to Create's layout.
func (f *File) FastForward(epoch int64, durable bool) error {
	if f.InProgress() {
		return fmt.Errorf("vertexfile: fast-forward to epoch %d: superstep in progress", epoch)
	}
	if f.Epoch() != 0 {
		return fmt.Errorf("vertexfile: fast-forward to epoch %d: file is already at epoch %d", epoch, f.Epoch())
	}
	if epoch < 0 || epoch > maxEpoch {
		return fmt.Errorf("vertexfile: fast-forward to absurd epoch %d", epoch)
	}
	if epoch == 0 {
		return nil
	}
	for v := int64(0); v < f.numVertices; v++ {
		f.Store(0, v, Payload(f.Load(0, v))|StaleBit)
		f.Store(1, v, Payload(f.Load(1, v))|StaleBit)
	}
	if durable {
		if err := f.syncSlots(); err != nil {
			return fmt.Errorf("vertexfile: fast-forward to epoch %d: %w", epoch, err)
		}
	}
	f.setEpoch(epoch)
	if atomic.LoadUint64(&f.header[hdrColDigest]) != 0 {
		atomic.StoreUint64(&f.header[hdrColDigest], f.colDigest(DispatchCol(epoch)))
	}
	f.sealHeader()
	if durable {
		if err := f.syncHeader(); err != nil {
			return fmt.Errorf("vertexfile: fast-forward to epoch %d: %w", epoch, err)
		}
	}
	return nil
}
