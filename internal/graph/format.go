package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"os"

	"repro/internal/diskio"
	"repro/internal/mmap"
)

// csrSink couples the fault-injectable output file with the incremental
// FNV-1a digest the ".sum" sidecar seals: every byte the bufio layer
// flushes passes through exactly once, so sealing costs no second read
// of the finished file. Only bytes that actually reached the file are
// hashed — a short write leaves digest and file consistent.
type csrSink struct {
	f *diskio.File
	h hash.Hash64
	n int64
}

func (s *csrSink) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	s.h.Write(p[:n])
	s.n += int64(n)
	return n, err
}

// On-disk CSR format (paper Fig. 4, "a CSR file with vertex degrees"):
//
//	header (40 bytes, little endian):
//	  magic       uint32  "GPSA"
//	  version     uint32
//	  flags       uint64  bit 0: weighted
//	  numVertices uint64
//	  numEdges    uint64
//	  reserved    uint64
//	records, one per vertex in id order:
//	  degree      uint32
//	  edges       degree × uint32 destination
//	              (weighted: degree × [uint32 destination, float32 bits])
//	  sentinel    uint32 = 0xFFFFFFFF   (the paper's "-1" separator)
//
// A sidecar index file (path + ".idx") records, every stride vertices, the
// word offset of the vertex's record within the record region and the
// cumulative edge count, enabling O(1) balanced partitioning of the edge
// stream across dispatcher actors without materializing indptr.

const (
	fileMagic   = 0x41535047 // "GPSA"
	fileVersion = 1
	idxMagic    = 0x58445047 // "GPDX"

	flagWeighted = 1 << 0

	headerBytes = 40
)

// IndexEntry locates the record of FirstVertex within the record region.
type IndexEntry struct {
	FirstVertex int64
	WordOff     int64 // offset in 4-byte words from the record region start
	CumEdges    int64 // edges of all vertices before FirstVertex
}

// Interval is a contiguous range of vertices assigned to one dispatcher:
// ids [FirstVertex, EndVertex) occupying words [StartWord, EndWord) of the
// record region and containing Edges edges. This is the paper's
// "interval" structure (§V-D).
type Interval struct {
	FirstVertex int64
	EndVertex   int64
	StartWord   int64
	EndWord     int64
	Edges       int64
}

// Writer streams a CSR file vertex by vertex, building the sidecar index
// as it goes. Vertices must be appended in id order, exactly NumVertices
// of them, with edge counts summing to NumEdges.
type Writer struct {
	w        *bufio.Writer
	sink     *csrSink
	path     string
	idxPath  string
	weighted bool

	numVertices int64
	numEdges    int64
	stride      int64

	nextVertex int64
	cumEdges   int64
	wordOff    int64
	index      []IndexEntry

	scratch [4]byte
}

// NewWriter creates path (and path+".idx" at Finish) for a graph with the
// given dimensions.
func NewWriter(path string, numVertices, numEdges int64, weighted bool) (*Writer, error) {
	if numVertices < 0 || numVertices > MaxVertices {
		return nil, fmt.Errorf("graph: writer: vertex count %d out of range", numVertices)
	}
	if numEdges < 0 {
		return nil, fmt.Errorf("graph: writer: negative edge count")
	}
	f, err := diskio.Create(path)
	if err != nil {
		return nil, fmt.Errorf("graph: writer: %w", err)
	}
	sink := &csrSink{f: f, h: newCSRHash()}
	w := &Writer{
		w:           bufio.NewWriterSize(sink, 1<<20),
		sink:        sink,
		path:        path,
		idxPath:     path + ".idx",
		weighted:    weighted,
		numVertices: numVertices,
		numEdges:    numEdges,
		stride:      indexStride(numVertices),
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	var flags uint64
	if weighted {
		flags |= flagWeighted
	}
	binary.LittleEndian.PutUint64(hdr[8:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(numVertices))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(numEdges))
	if _, err := w.w.Write(hdr[:]); err != nil {
		f.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
		return nil, fmt.Errorf("graph: writer header: %w", err)
	}
	return w, nil
}

func indexStride(numVertices int64) int64 {
	s := numVertices / 8192
	if s < 1 {
		s = 1
	}
	return s
}

func (w *Writer) putWord(x uint32) error {
	binary.LittleEndian.PutUint32(w.scratch[:], x)
	_, err := w.w.Write(w.scratch[:])
	w.wordOff++
	return err
}

// AppendVertex writes the record for the next vertex. For unweighted
// graphs weights must be nil; for weighted graphs it must have len(dsts).
func (w *Writer) AppendVertex(dsts []VertexID, weights []float32) error {
	if w.nextVertex >= w.numVertices {
		return fmt.Errorf("graph: writer: vertex %d beyond declared count %d", w.nextVertex, w.numVertices)
	}
	if w.weighted != (weights != nil) {
		return fmt.Errorf("graph: writer: weights presence mismatch (file weighted=%v)", w.weighted)
	}
	if weights != nil && len(weights) != len(dsts) {
		return fmt.Errorf("graph: writer: %d weights for %d edges", len(weights), len(dsts))
	}
	if w.nextVertex%w.stride == 0 {
		w.index = append(w.index, IndexEntry{FirstVertex: w.nextVertex, WordOff: w.wordOff, CumEdges: w.cumEdges})
	}
	if err := w.putWord(uint32(len(dsts))); err != nil {
		return err
	}
	for i, d := range dsts {
		if int64(d) >= w.numVertices {
			return fmt.Errorf("graph: writer: vertex %d edge targets %d outside [0,%d)", w.nextVertex, d, w.numVertices)
		}
		if err := w.putWord(d); err != nil {
			return err
		}
		if w.weighted {
			if err := w.putWord(math.Float32bits(weights[i])); err != nil {
				return err
			}
		}
	}
	if err := w.putWord(Sentinel); err != nil {
		return err
	}
	w.nextVertex++
	w.cumEdges += int64(len(dsts))
	return nil
}

// Finish flushes and fsyncs the data file, writes the sidecar index,
// and seals the ".sum" checksum sidecar. It must be called exactly
// once, after all vertices have been appended.
func (w *Writer) Finish() error {
	if w.nextVertex != w.numVertices {
		w.sink.f.Close() //lint:syncerr error path: the append protocol already failed
		return fmt.Errorf("graph: writer: %d vertices appended, declared %d", w.nextVertex, w.numVertices)
	}
	if w.cumEdges != w.numEdges {
		w.sink.f.Close() //lint:syncerr error path: the append protocol already failed
		return fmt.Errorf("graph: writer: %d edges appended, declared %d", w.cumEdges, w.numEdges)
	}
	w.index = append(w.index, IndexEntry{FirstVertex: w.numVertices, WordOff: w.wordOff, CumEdges: w.cumEdges})
	if err := w.w.Flush(); err != nil {
		w.sink.f.Close() //lint:syncerr error path: the flush already failed and is being reported
		return fmt.Errorf("graph: writer flush: %w", err)
	}
	if err := w.sink.f.Sync(); err != nil {
		w.sink.f.Close() //lint:syncerr error path: the sync already failed and is being reported
		return fmt.Errorf("graph: writer sync: %w", err)
	}
	if err := w.sink.f.Close(); err != nil {
		return fmt.Errorf("graph: writer close: %w", err)
	}
	if err := writeIndex(w.idxPath, w.stride, w.index); err != nil {
		return err
	}
	return sealCSR(w.path, w.sink.h.Sum64(), w.sink.n)
}

func writeIndex(path string, stride int64, entries []IndexEntry) error {
	f, err := diskio.Create(path)
	if err != nil {
		return fmt.Errorf("graph: index: %w", err)
	}
	bw := bufio.NewWriter(f)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], idxMagic)
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(stride))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(entries)))
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
		return err
	}
	var rec [24]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.FirstVertex))
		binary.LittleEndian.PutUint64(rec[8:], uint64(e.WordOff))
		binary.LittleEndian.PutUint64(rec[16:], uint64(e.CumEdges))
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //lint:syncerr error path: the flush already failed and is being reported
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:syncerr error path: the sync already failed and is being reported
		return err
	}
	return f.Close()
}

// readIndex loads the sidecar index of a graph with numVertices vertices.
// The header's stride and entry count are checked before any entry is
// read, and entries are appended as they arrive rather than preallocated
// from the declared count, so a corrupt count fails on a short read
// instead of a huge allocation. checkIndex validates the entries.
func readIndex(path string, numVertices int64) (stride int64, entries []IndexEntry, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close() //lint:syncerr read-only handle; no durability contract on close
	br := bufio.NewReader(f)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("graph: index header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != idxMagic {
		return 0, nil, fmt.Errorf("graph: %s: bad index magic", path)
	}
	stride = int64(binary.LittleEndian.Uint64(hdr[8:]))
	n := int64(binary.LittleEndian.Uint64(hdr[16:]))
	if stride < 1 {
		return 0, nil, fmt.Errorf("graph: %s: index stride %d, want at least 1", path, stride)
	}
	// One entry per stride vertices, plus the terminal one at numVertices.
	want := numVertices/stride + 1
	if numVertices%stride != 0 {
		want++
	}
	if n != want {
		return 0, nil, fmt.Errorf("graph: %s: index declares %d entries, want %d for %d vertices at stride %d", path, n, want, numVertices, stride)
	}
	var rec [24]byte
	for i := int64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return 0, nil, fmt.Errorf("graph: index entry %d: %w", i, err)
		}
		entries = append(entries, IndexEntry{
			FirstVertex: int64(binary.LittleEndian.Uint64(rec[0:])),
			WordOff:     int64(binary.LittleEndian.Uint64(rec[8:])),
			CumEdges:    int64(binary.LittleEndian.Uint64(rec[16:])),
		})
	}
	return stride, entries, nil
}

// WriteFile writes g to path in the on-disk CSR format (plus sidecar
// index).
func WriteFile(path string, g *CSR) error {
	if err := g.Validate(); err != nil {
		return err
	}
	w, err := NewWriter(path, g.NumVertices, g.NumEdges, g.Weighted())
	if err != nil {
		return err
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if err := w.AppendVertex(g.Neighbors(VertexID(v)), g.EdgeWeights(VertexID(v))); err != nil {
			return err
		}
	}
	return w.Finish()
}

// File is an opened on-disk CSR graph, memory mapped. It is safe for
// concurrent cursors.
type File struct {
	Path        string
	NumVertices int64
	NumEdges    int64
	weighted    bool
	version     uint32

	m      *mmap.Map
	raw    []byte   // whole mapping
	words  []uint32 // record region (version 1)
	stride int64
	index  []IndexEntry
}

// OpenFile maps the CSR file at path. The sidecar index is loaded if
// present and rebuilt by a sequential scan otherwise.
func OpenFile(path string, mode mmap.Mode) (*File, error) {
	m, err := mmap.Open(path, mmap.Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	b := m.Bytes()
	if len(b) < headerBytes {
		m.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
		return nil, fmt.Errorf("graph: %s: truncated header", path)
	}
	if binary.LittleEndian.Uint32(b[0:]) != fileMagic {
		m.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
		return nil, fmt.Errorf("graph: %s: bad magic", path)
	}
	version := binary.LittleEndian.Uint32(b[4:])
	if version != fileVersion && version != fileVersionCompact {
		m.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
		return nil, fmt.Errorf("graph: %s: unsupported version %d", path, version)
	}
	flags := binary.LittleEndian.Uint64(b[8:])
	nv, ne := int64(binary.LittleEndian.Uint64(b[16:])), int64(binary.LittleEndian.Uint64(b[24:]))
	if nv < 0 || nv > MaxVertices || ne < 0 {
		m.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
		return nil, fmt.Errorf("graph: %s: absurd header counts (%d vertices, %d edges)", path, nv, ne)
	}
	f := &File{
		Path:        path,
		NumVertices: nv,
		NumEdges:    ne,
		weighted:    flags&flagWeighted != 0,
		version:     version,
		m:           m,
		//lint:colalias read-only CSR mapping; File owns m and the view is never written through
		raw: b,
	}
	if version == fileVersion {
		nWords := (int64(len(b)) - headerBytes) / 4
		//lint:colalias read-only CSR word view; File owns m and the view is never written through
		f.words, err = m.Uint32s(headerBytes, nWords)
		if err != nil {
			m.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
			return nil, err
		}
		wantWords := f.NumVertices*2 + f.NumEdges*f.edgeWords()
		if nWords < wantWords {
			m.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
			return nil, fmt.Errorf("graph: %s: %d record words, want %d", path, nWords, wantWords)
		}
	}
	if f.stride, f.index, err = readIndex(path+".idx", f.NumVertices); err != nil {
		if !os.IsNotExist(err) {
			m.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
			return nil, err
		}
		var rerr error
		if version == fileVersionCompact {
			rerr = f.rebuildIndexCompact()
		} else {
			rerr = f.rebuildIndex()
		}
		if rerr != nil {
			m.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
			return nil, rerr
		}
	}
	if err := f.checkIndex(); err != nil {
		m.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
		return nil, err
	}
	return f, nil
}

func (f *File) edgeWords() int64 {
	if f.weighted {
		return 2
	}
	return 1
}

// rebuildIndex scans the record region to reconstruct the sidecar index.
func (f *File) rebuildIndex() error {
	f.stride = indexStride(f.NumVertices)
	f.index = f.index[:0]
	var off, cum int64
	ew := f.edgeWords()
	for v := int64(0); v < f.NumVertices; v++ {
		if v%f.stride == 0 {
			f.index = append(f.index, IndexEntry{FirstVertex: v, WordOff: off, CumEdges: cum})
		}
		if off >= int64(len(f.words)) {
			return fmt.Errorf("graph: %s: truncated at vertex %d", f.Path, v)
		}
		deg := int64(f.words[off])
		off += 1 + deg*ew + 1
		cum += deg
	}
	f.index = append(f.index, IndexEntry{FirstVertex: f.NumVertices, WordOff: off, CumEdges: cum})
	return nil
}

// checkIndex validates every index entry, since cursors seek to them
// (readIndex has checked the stride and the entry count): entry k sits
// at vertex min(k·stride, |V|), the first at offset 0 with no edges
// before it, offsets and edge counts never decrease and stay inside the
// record region and the header's edge count, and the terminal entry
// accounts for every edge.
func (f *File) checkIndex() error {
	limit := int64(len(f.words))
	if f.version == fileVersionCompact {
		limit = int64(len(f.raw)) - headerBytes
	}
	last := len(f.index) - 1
	var prev IndexEntry
	for k, e := range f.index {
		want := int64(k) * f.stride // k < last keeps this below |V|
		if k == last {
			want = f.NumVertices
		}
		switch {
		case e.FirstVertex != want:
			return fmt.Errorf("graph: %s: index entry %d starts at vertex %d, want %d", f.Path, k, e.FirstVertex, want)
		case k == 0 && (e.WordOff != 0 || e.CumEdges != 0):
			return fmt.Errorf("graph: %s: index entry 0 at offset %d after %d edges, want 0 and 0", f.Path, e.WordOff, e.CumEdges)
		case e.WordOff < prev.WordOff || e.CumEdges < prev.CumEdges:
			return fmt.Errorf("graph: %s: index entry %d (offset %d, %d edges) precedes entry %d (offset %d, %d edges)",
				f.Path, k, e.WordOff, e.CumEdges, k-1, prev.WordOff, prev.CumEdges)
		case e.WordOff > limit:
			return fmt.Errorf("graph: %s: index entry %d offset %d beyond record region (%d)", f.Path, k, e.WordOff, limit)
		case e.CumEdges > f.NumEdges:
			return fmt.Errorf("graph: %s: index entry %d counts %d edges, header has %d", f.Path, k, e.CumEdges, f.NumEdges)
		}
		prev = e
	}
	if prev.CumEdges != f.NumEdges {
		return fmt.Errorf("graph: %s: index terminal entry counts %d edges, header has %d", f.Path, prev.CumEdges, f.NumEdges)
	}
	return nil
}

// Weighted reports whether edges carry weights.
func (f *File) Weighted() bool { return f.weighted }

// AdviseSequential hints the kernel that the mapping will be streamed
// (the dispatcher access pattern); best-effort and a no-op for memory
// images.
func (f *File) AdviseSequential() error {
	if f.m == nil {
		return nil
	}
	return f.m.Advise(mmap.AccessSequential)
}

// Close unmaps the file (no-op for memory images).
func (f *File) Close() error {
	if f.m == nil {
		return nil
	}
	return f.m.Close()
}

// WholeInterval returns the interval covering the entire graph.
func (f *File) WholeInterval() Interval {
	last := f.index[len(f.index)-1]
	return Interval{
		FirstVertex: 0,
		EndVertex:   f.NumVertices,
		StartWord:   0,
		EndWord:     last.WordOff,
		Edges:       f.NumEdges,
	}
}

// Partition splits the graph into at most n intervals with approximately
// equal edge counts (the paper's "assign vertices to the dispatcher
// worker by the average edges" strategy, §V-A). Interval boundaries snap
// to index entries; fewer than n intervals are returned when the graph is
// too small to split further.
func (f *File) Partition(n int) []Interval {
	if n < 1 {
		n = 1
	}
	bounds := []IndexEntry{f.index[0]}
	for k := 1; k < n; k++ {
		target := f.NumEdges * int64(k) / int64(n)
		// First index entry with CumEdges >= target.
		lo, hi := 0, len(f.index)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if f.index[mid].CumEdges < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		e := f.index[lo]
		if e.FirstVertex > bounds[len(bounds)-1].FirstVertex && e.FirstVertex < f.NumVertices {
			bounds = append(bounds, e)
		}
	}
	bounds = append(bounds, f.index[len(f.index)-1])

	ivs := make([]Interval, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		ivs = append(ivs, Interval{
			FirstVertex: a.FirstVertex,
			EndVertex:   b.FirstVertex,
			StartWord:   a.WordOff,
			EndWord:     b.WordOff,
			Edges:       b.CumEdges - a.CumEdges,
		})
	}
	return ivs
}

// Cursor returns a sequential reader over the records of iv. Cursors are
// single-goroutine objects; compact-format cursors decode into an
// internal scratch buffer that Next reuses, so the returned edge slice is
// only valid until the next call.
func (f *File) Cursor(iv Interval) *Cursor {
	return &Cursor{
		words:    f.words,
		bytes:    f.bytesRegionSafe(),
		index:    f.index,
		stride:   f.stride,
		version:  f.version,
		pos:      iv.StartWord,
		end:      iv.EndWord,
		v:        iv.FirstVertex,
		endV:     iv.EndVertex,
		weighted: f.weighted,
	}
}

func (f *File) bytesRegionSafe() []byte {
	if len(f.raw) < headerBytes {
		return nil
	}
	return f.raw[headerBytes:]
}

// Cursor streams vertex records sequentially; this is the access pattern
// of a GPSA dispatcher actor (§V-D: "the dispatcher worker can identify
// which vertex it is processing" from the id sequence and offsets).
type Cursor struct {
	words    []uint32     // version 1 record region
	bytes    []byte       // version 2 record region
	index    []IndexEntry // the file's index, for SkipTo
	stride   int64
	version  uint32
	pos, end int64
	v, endV  int64
	weighted bool
	scratch  []uint32 // version 2 decode buffer
	err      error
}

// Next advances to the next vertex record. edges holds deg raw words for
// unweighted files and 2×deg interleaved (dst, float32-bits) words for
// weighted files; it aliases the mapping and must not be retained across
// Close. ok is false at the end of the interval or on a corrupt record
// (check Err).
//
//gpsa:noalloc
func (c *Cursor) Next() (v int64, deg uint32, edges []uint32, ok bool) {
	if c.version == fileVersionCompact {
		return c.nextCompact()
	}
	if c.err != nil || c.v >= c.endV || c.pos >= c.end {
		return 0, 0, nil, false
	}
	deg = c.words[c.pos]
	ew := int64(1)
	if c.weighted {
		ew = 2
	}
	recEnd := c.pos + 1 + int64(deg)*ew // sentinel position
	if recEnd+1 > c.end || recEnd >= int64(len(c.words)) {
		c.err = fmt.Errorf("graph: cursor: vertex %d record overruns interval", c.v)
		return 0, 0, nil, false
	}
	if c.words[recEnd] != Sentinel {
		c.err = fmt.Errorf("graph: cursor: vertex %d missing sentinel", c.v)
		return 0, 0, nil, false
	}
	v = c.v
	edges = c.words[c.pos+1 : recEnd]
	c.pos = recEnd + 1
	c.v++
	return v, deg, edges, true
}

// SkipTo moves the cursor forward to the start of the index block holding
// vertex v (index entry v/stride) when that block starts past the cursor
// and inside its interval, and returns the vertex the next Next reads.
// It never moves backward or out of the interval, and it lands on a
// block start, so Next still reads every vertex from the returned one
// up to v: a caller skipping to v steps over the rest itself. Index
// offsets are in the file's own units, so plain and compact files seek
// alike.
//
//gpsa:noalloc
func (c *Cursor) SkipTo(v int64) int64 {
	if c.err != nil || v <= c.v || v >= c.endV {
		return c.v
	}
	if k := v / c.stride; k < int64(len(c.index)) {
		if e := c.index[k]; e.FirstVertex > c.v && e.WordOff <= c.end {
			c.v, c.pos = e.FirstVertex, e.WordOff
		}
	}
	return c.v
}

// Err returns the first corruption error encountered, if any.
func (c *Cursor) Err() error { return c.err }

// DecodeEdge extracts edge i from a raw edge slice returned by Next.
//
//gpsa:noalloc
func DecodeEdge(edges []uint32, i int, weighted bool) (dst VertexID, w float32) {
	if weighted {
		return edges[2*i], math.Float32frombits(edges[2*i+1])
	}
	return edges[i], 0
}

// CSR decodes the whole file, of either format, into an in-memory graph.
func (f *File) CSR() (*CSR, error) {
	edges := make([]Edge, 0, f.NumEdges)
	c := f.Cursor(f.WholeInterval())
	for {
		v, deg, raw, ok := c.Next()
		if !ok {
			break
		}
		for i := 0; i < int(deg); i++ {
			d, w := DecodeEdge(raw, i, f.weighted)
			edges = append(edges, Edge{Src: VertexID(v), Dst: d, Weight: w})
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return FromEdges(edges, f.NumVertices, f.weighted)
}
