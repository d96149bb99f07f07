// Package preprocess converts raw edge-list inputs into the on-disk CSR
// format GPSA streams (paper §V-B). Edge-list inputs are not grouped by
// source vertex, so conversion groups them with a bounded-memory external
// counting sort:
//
//   - Placement. Edges are read into a chunk of at most Options.ChunkEdges
//     and each chunk is placed by source with one stable counting pass:
//     chunk-local counts over its source range, a prefix sum, one scatter.
//     There is no comparison sort.
//   - Spill only above the bound. A full chunk is written to a run file
//     only when one more edge arrives, and the last chunk stays in memory
//     as the final run, so an input of at most ChunkEdges edges creates no
//     temp file.
//   - Stable merge. Runs merge by (source, run index), one whole source
//     group at a time, directly into the CSR writer; the in-memory run is
//     the last input of that same merge.
//
// Each vertex's out-edges therefore come out in input order whatever
// ChunkEdges is, and the .gpsa, .idx and .sum files are byte-identical to
// graph.WriteFile(graph.FromEdges(edges)) — or graph.WriteFileCompact of
// it with Options.Compact. Memory is O(ChunkEdges + |V|) regardless of
// edge count: 12 B per chunk edge (20 B weighted), 4 B per vertex of a
// chunk's source range, and, in a multi-run merge, one vertex's out-edges
// plus a read buffer per run sharing the chunk's byte budget. Inputs
// larger than RAM convert fine (the same discipline GraphChi's sharder
// uses).
package preprocess

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"repro/internal/diskio"
	"repro/internal/graph"
)

// Options tunes conversion.
type Options struct {
	// ChunkEdges bounds the edges held in memory at once (default 1<<22:
	// 48 MiB of chunk buffers unweighted, 80 MiB weighted; values above
	// math.MaxInt32 are clamped to it). An input of at most ChunkEdges
	// edges is placed in memory and never spills; above it, each full
	// chunk becomes a run file once the next edge arrives. The output
	// does not depend on it.
	ChunkEdges int
	// Weighted retains the third edge-list column as float32 weights.
	Weighted bool
	// Compact writes the varint-delta compact CSR format (version 2)
	// instead of the plain word format.
	Compact bool
	// TempDir holds the spilled runs (default: alongside the output). It
	// is used only by inputs of more than ChunkEdges edges.
	TempDir string
	// NumVertices forces the vertex-id space; 0 infers max(id)+1. An id
	// at or above it — or at or above graph.MaxVertices, which the format
	// reserves for its sentinel — is rejected as soon as it is read.
	NumVertices int64
}

// Stats reports what a conversion did.
type Stats struct {
	NumVertices int64
	NumEdges    int64
	Runs        int // sorted runs merged, the in-memory last one included
}

const (
	defaultChunkEdges = 1 << 22
	// maxChunkEdges keeps every within-chunk offset in a uint32.
	maxChunkEdges = math.MaxInt32
)

// EdgeListToCSR converts the text edge list at inputPath into a CSR file
// at outputPath (plus sidecar index).
func EdgeListToCSR(inputPath, outputPath string, opt Options) (*Stats, error) {
	in, err := os.Open(inputPath)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	defer in.Close() //lint:syncerr read-only handle; no durability contract on close
	return ConvertEdgeStream(newTextEdgeReader(in), outputPath, opt)
}

// EdgesToCSR converts an in-memory edge list (convenience path for tests
// and small graphs).
func EdgesToCSR(edges []graph.Edge, outputPath string, opt Options) (*Stats, error) {
	return ConvertEdgeStream(&sliceEdgeReader{edges: edges}, outputPath, opt)
}

// EdgeReader yields edges one at a time; io.EOF terminates the stream.
type EdgeReader interface {
	ReadEdge() (graph.Edge, error)
}

// positioner is implemented by readers that can name where in their
// input the edge they returned last came from; errors about other
// readers' edges name the edge's ordinal instead.
type positioner interface {
	position() string
}

type sliceEdgeReader struct {
	edges []graph.Edge
	i     int
}

func (r *sliceEdgeReader) ReadEdge() (graph.Edge, error) {
	if r.i >= len(r.edges) {
		return graph.Edge{}, io.EOF
	}
	e := r.edges[r.i]
	r.i++
	return e, nil
}

// textEdgeReader parses the SNAP text format incrementally. It accepts a
// subset of what graph.ParseEdgeList accepts (fields separated by spaces,
// tabs or carriage returns only) and yields the same edges for it.
type textEdgeReader struct {
	sc   *bufio.Scanner
	line int
}

func newTextEdgeReader(r io.Reader) *textEdgeReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &textEdgeReader{sc: sc}
}

func (t *textEdgeReader) ReadEdge() (graph.Edge, error) {
	for t.sc.Scan() {
		t.line++
		b := skipSpace(t.sc.Bytes())
		if len(b) == 0 || b[0] == '#' || b[0] == '%' {
			continue
		}
		e, err := parseEdgeLine(b)
		if err != nil {
			return graph.Edge{}, fmt.Errorf("preprocess: line %d: %w", t.line, err)
		}
		return e, nil
	}
	if err := t.sc.Err(); err != nil {
		return graph.Edge{}, err
	}
	return graph.Edge{}, io.EOF
}

func (t *textEdgeReader) position() string { return fmt.Sprintf("line %d", t.line) }

func parseEdgeLine(b []byte) (graph.Edge, error) {
	src, rest, err := parseUint(b)
	if err != nil {
		return graph.Edge{}, fmt.Errorf("bad source: %v", err)
	}
	dst, rest, err := parseUint(rest)
	if err != nil {
		return graph.Edge{}, fmt.Errorf("bad destination: %v", err)
	}
	e := graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
	// Optional weight: the third field, parsed as graph.ParseEdgeList
	// parses it; later fields are ignored there and here.
	if rest = skipSpace(rest); len(rest) > 0 {
		f := rest[:fieldEnd(rest)]
		w, err := strconv.ParseFloat(string(f), 32)
		if err != nil {
			return graph.Edge{}, fmt.Errorf("bad weight %q: %v", f, err)
		}
		e.Weight = float32(w)
	}
	return e, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

func skipSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	return b
}

func fieldEnd(b []byte) int {
	i := 0
	for i < len(b) && !isSpace(b[i]) {
		i++
	}
	return i
}

// parseUint reads one decimal field; it must end at a separator or at
// the end of the line.
func parseUint(b []byte) (uint64, []byte, error) {
	b = skipSpace(b)
	i := 0
	var x uint64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		x = x*10 + uint64(b[i]-'0')
		if x > uint64(graph.MaxVertices) {
			return 0, nil, fmt.Errorf("id overflows 32 bits")
		}
		i++
	}
	if i == 0 || i < len(b) && !isSpace(b[i]) {
		return 0, nil, fmt.Errorf("expected integer in %q", b)
	}
	return x, b[i:], nil
}

// ConvertEdgeStream drives the full conversion: pass 1 places every
// chunk and spills all but the last, pass 2 merges the runs into the CSR
// writer.
func ConvertEdgeStream(r EdgeReader, outputPath string, opt Options) (*Stats, error) {
	if opt.ChunkEdges <= 0 {
		opt.ChunkEdges = defaultChunkEdges
	}
	opt.ChunkEdges = min(opt.ChunkEdges, maxChunkEdges)
	if opt.TempDir == "" {
		opt.TempDir = filepath.Dir(outputPath)
	}
	if opt.NumVertices > graph.MaxVertices {
		return nil, fmt.Errorf("preprocess: NumVertices %d exceeds the maximum %d", opt.NumVertices, graph.MaxVertices)
	}

	s := &sorter{opt: opt, limit: graph.MaxVertices}
	if opt.NumVertices > 0 {
		s.limit = opt.NumVertices
	}
	defer s.removeRuns()
	if err := s.read(r); err != nil {
		return nil, err
	}
	numVertices := opt.NumVertices
	if numVertices <= 0 {
		numVertices = s.maxID + 1
	}
	if numVertices == 0 {
		numVertices = 1 // an empty input still yields a valid 1-vertex file
	}

	var w recordWriter
	var err error
	if opt.Compact {
		w, err = graph.NewCompactWriter(outputPath, numVertices, s.numEdges, opt.Weighted)
	} else {
		w, err = graph.NewWriter(outputPath, numVertices, s.numEdges, opt.Weighted)
	}
	if err != nil {
		return nil, err
	}
	if err := s.merge(w, numVertices); err != nil {
		return nil, err
	}
	return &Stats{NumVertices: numVertices, NumEdges: s.numEdges, Runs: s.runs()}, nil
}

// recordWriter is the per-vertex sink shared by both CSR formats.
type recordWriter interface {
	AppendVertex(dsts []graph.VertexID, weights []float32) error
	Finish() error
}

// sorter holds one conversion's state between its two passes.
type sorter struct {
	opt   Options
	limit int64 // every vertex id must be below it

	// The chunk being read, in input order.
	src, dst []graph.VertexID
	wts      []float32

	placed  chunk    // the last placed chunk; after pass 1, the in-memory run
	spilled []string // run files, in input order
	bw      *bufio.Writer

	maxID    int64 // the largest id read; -1 before any edge
	numEdges int64
}

// chunk is one run placed by source: the edges of source lo+g are
// dst[off[g]:off[g+1]] (and wts likewise), in input order.
type chunk struct {
	lo  graph.VertexID
	off []uint32
	dst []graph.VertexID
	wts []float32
}

// read is pass 1: it checks every id, spills each full chunk once the
// next edge arrives, and places the last chunk in memory.
func (s *sorter) read(r EdgeReader) error {
	s.maxID = -1
	s.src = make([]graph.VertexID, 0, s.opt.ChunkEdges)
	s.dst = make([]graph.VertexID, 0, s.opt.ChunkEdges)
	if s.opt.Weighted {
		s.wts = make([]float32, 0, s.opt.ChunkEdges)
	}
	for {
		e, err := r.ReadEdge()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if int64(e.Src) >= s.limit || int64(e.Dst) >= s.limit {
			return s.rangeError(r, e)
		}
		if len(s.src) == s.opt.ChunkEdges {
			if err := s.spill(); err != nil {
				return err
			}
		}
		s.src = append(s.src, e.Src)
		s.dst = append(s.dst, e.Dst)
		if s.opt.Weighted {
			s.wts = append(s.wts, e.Weight)
		}
		s.maxID = max(s.maxID, int64(e.Src), int64(e.Dst))
		s.numEdges++
	}
	if len(s.src) > 0 {
		s.place()
	}
	s.src, s.dst, s.wts = nil, nil, nil // placed; the merge does not need them
	return nil
}

// rangeError reports an edge carrying an id at or above s.limit.
func (s *sorter) rangeError(r EdgeReader, e graph.Edge) error {
	which, id := "source", e.Src
	if int64(e.Src) < s.limit {
		which, id = "destination", e.Dst
	}
	where := fmt.Sprintf("edge %d", s.numEdges+1)
	if p, ok := r.(positioner); ok {
		where = p.position()
	}
	bound := fmt.Sprintf("the id limit %d", graph.MaxVertices)
	if s.opt.NumVertices > 0 {
		bound = fmt.Sprintf("NumVertices %d", s.opt.NumVertices)
	}
	return fmt.Errorf("preprocess: %s: %s id %d is not below %s", where, which, id, bound)
}

// place groups the chunk by source into s.placed, keeping input order
// within each group, and empties the chunk.
func (s *sorter) place() {
	lo, hi := s.src[0], s.src[0]
	for _, v := range s.src[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	c := &s.placed
	c.lo = lo
	n := int(hi-lo) + 1
	c.off = resize(c.off, n+1)
	clear(c.off)
	for _, v := range s.src {
		c.off[v-lo+1]++
	}
	for g := 1; g <= n; g++ {
		c.off[g] += c.off[g-1]
	}
	c.dst = resize(c.dst, len(s.src))
	if s.opt.Weighted {
		c.wts = resize(c.wts, len(s.src))
	}
	// off[g] is group g's write cursor during the scatter, which leaves
	// it at the start of group g+1; shifting by one restores the starts.
	for i, v := range s.src {
		g := v - lo
		k := c.off[g]
		c.off[g]++
		c.dst[k] = s.dst[i]
		if s.opt.Weighted {
			c.wts[k] = s.wts[i]
		}
	}
	copy(c.off[1:], c.off[:n])
	c.off[0] = 0
	s.src, s.dst, s.wts = s.src[:0], s.dst[:0], s.wts[:0]
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// spill places the full chunk and writes it as the next run file: for
// each non-empty source group in ascending order, a (source, count)
// header, the destinations and, weighted, the weights — all
// little-endian 32-bit words.
func (s *sorter) spill() error {
	s.place()
	f, err := diskio.CreateTemp(s.opt.TempDir, "gpsa-run-*.bin")
	if err != nil {
		return err
	}
	s.spilled = append(s.spilled, f.Name())
	// bufio.Writer errors are sticky: Flush reports any failed write.
	if s.bw == nil {
		s.bw = bufio.NewWriterSize(nil, 1<<20)
	}
	bw := s.bw
	bw.Reset(f)
	c := &s.placed
	for g := 0; g+1 < len(c.off); g++ {
		a, b := c.off[g], c.off[g+1]
		if a == b {
			continue
		}
		hdr := [2]uint32{c.lo + graph.VertexID(g), b - a}
		putWords(bw, hdr[:], ident)
		putWords(bw, c.dst[a:b], ident)
		if s.opt.Weighted {
			putWords(bw, c.wts[a:b], math.Float32bits)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //lint:syncerr best-effort cleanup; the primary error is already propagating
		return err
	}
	return f.Close()
}

func ident(x uint32) uint32 { return x }

// putWords writes ws to bw, encoding each as a little-endian word with enc.
func putWords[T any](bw *bufio.Writer, ws []T, enc func(T) uint32) {
	var b [4]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint32(b[:], enc(w))
		bw.Write(b[:])
	}
}

// getWords fills ws from br, decoding each little-endian word with dec.
func getWords[T any](br *bufio.Reader, ws []T, dec func(uint32) T) error {
	for len(ws) > 0 {
		n := min(len(ws), br.Size()/4)
		b, err := br.Peek(4 * n)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return fmt.Errorf("preprocess: run file: %w", err)
		}
		for i := range n {
			ws[i] = dec(binary.LittleEndian.Uint32(b[4*i:]))
		}
		br.Discard(4 * n)
		ws = ws[n:]
	}
	return nil
}

func (s *sorter) runs() int {
	if s.numEdges == 0 {
		return 0
	}
	return len(s.spilled) + 1
}

func (s *sorter) removeRuns() {
	for _, path := range s.spilled {
		os.Remove(path)
	}
}

// run is one merge input: a spilled run file, or the in-memory last
// chunk. Its head is its next source group: src and n edges.
type run struct {
	idx  int // input order, which breaks ties on src
	src  graph.VertexID
	n    uint32
	done bool

	br *bufio.Reader // spilled
	c  *chunk        // in memory
	g  int           // in memory: the head group's index in c.off
}

// before orders merge heads by (source, run index), which keeps each
// vertex's edges in input order.
func (r *run) before(o *run) bool {
	return r.src < o.src || r.src == o.src && r.idx < o.idx
}

// advance moves the head to the next non-empty group.
func (r *run) advance() error {
	if r.c != nil {
		for r.g++; r.g+1 < len(r.c.off); r.g++ {
			if r.n = r.c.off[r.g+1] - r.c.off[r.g]; r.n > 0 {
				r.src = r.c.lo + graph.VertexID(r.g)
				return nil
			}
		}
		r.done = true
		return nil
	}
	if _, err := r.br.Peek(1); err == io.EOF {
		r.done = true
		return nil
	}
	var hdr [2]uint32
	if err := getWords(r.br, hdr[:], ident); err != nil {
		return err
	}
	r.src, r.n = hdr[0], hdr[1]
	return nil
}

// take appends the head group to dsts (and wts, when weighted) and
// advances.
func (r *run) take(dsts []graph.VertexID, wts []float32, weighted bool) ([]graph.VertexID, []float32, error) {
	if r.c != nil {
		a, b := r.c.off[r.g], r.c.off[r.g+1]
		dsts = append(dsts, r.c.dst[a:b]...)
		if weighted {
			wts = append(wts, r.c.wts[a:b]...)
		}
		return dsts, wts, r.advance()
	}
	k, n := len(dsts), int(r.n)
	dsts = slices.Grow(dsts, n)[:k+n]
	if err := getWords(r.br, dsts[k:], ident); err != nil {
		return nil, nil, err
	}
	if weighted {
		wts = slices.Grow(wts, n)[:k+n]
		if err := getWords(r.br, wts[k:], math.Float32frombits); err != nil {
			return nil, nil, err
		}
	}
	return dsts, wts, r.advance()
}

// siftDown restores the heap order below h[i].
func siftDown(h []*run, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// merge is pass 2: it streams every vertex's record, in vertex order,
// into w.
func (s *sorter) merge(w recordWriter, numVertices int64) error {
	weighted := s.opt.Weighted
	h := make([]*run, 0, s.runs())
	if len(s.spilled) > 0 {
		// The read buffers together take about what the chunk took, 12 B
		// per edge, but 4 KiB to 1 MiB each.
		size := min(max(12*s.opt.ChunkEdges/len(s.spilled), 4<<10), 1<<20)
		for i, path := range s.spilled {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close() //lint:syncerr read-only handle; no durability contract on close
			r := &run{idx: i, br: bufio.NewReaderSize(f, size)}
			if err := r.advance(); err != nil {
				return err
			}
			h = append(h, r)
		}
	}
	if s.numEdges > 0 {
		r := &run{idx: len(s.spilled), c: &s.placed, g: -1}
		if err := r.advance(); err != nil {
			return err
		}
		h = append(h, r)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	var none, wts []float32 // weighted files take non-nil weights
	if weighted {
		none, wts = []float32{}, []float32{}
	}
	var dsts []graph.VertexID
	next := int64(0) // the next vertex to append
	for len(h) > 0 {
		v := h[0].src
		for ; next < int64(v); next++ {
			if err := w.AppendVertex(nil, none); err != nil {
				return err
			}
		}
		dsts, wts = dsts[:0], wts[:0]
		for len(h) > 0 && h[0].src == v {
			var err error
			if dsts, wts, err = h[0].take(dsts, wts, weighted); err != nil {
				return err
			}
			if h[0].done {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0)
		}
		if err := w.AppendVertex(dsts, wts); err != nil {
			return err
		}
		next++
	}
	for ; next < numVertices; next++ {
		if err := w.AppendVertex(nil, none); err != nil {
			return err
		}
	}
	return w.Finish()
}
