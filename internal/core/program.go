package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// Program is a user-defined vertex program: the paper's initialize,
// genMsg and compute functions (Fig. 3), plus a message combiner.
//
// Vertex values are 63-bit payloads stored in the two-column value file;
// see package vertexfile for helpers encoding floats and integers.
//
// A program may also declare, with a method Fold() Fold, that its
// message ignores dst and weight and that its CombineMsg is one of the
// kernels Fold names. The dispatcher then calls GenMsg once per fresh
// vertex with a positive out-degree (dst and weight those of its first
// edge) and folds that one message along every out-edge through the
// kernel, instead of calling GenMsg and CombineMsg per edge. The engine
// checks the declared kernel against CombineMsg when it builds its
// crew (ErrFoldMismatch). A type that embeds a declaring program and
// overrides GenMsg to read dst or weight must override Fold too,
// returning FoldPerEdge.
type Program interface {
	// Init returns vertex v's initial payload and whether the vertex
	// starts active (active vertices dispatch in superstep 0: every
	// vertex for PageRank, only the root for BFS).
	Init(v int64) (payload uint64, active bool)

	// GenMsg produces the message value to send along one out-edge of a
	// fresh vertex (paper §IV-E: the message value may depend on the
	// vertex value, the out-degree, and the edge weight). Returning
	// send=false suppresses the message.
	GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (msgVal uint64, send bool)

	// Compute folds one incoming message into the destination vertex's
	// value (paper §IV-F, Algorithm 3). cur is the vertex's current
	// value: on the first message of a superstep it is the previous
	// superstep's value (fetched from the dispatch column), afterwards
	// the accumulating new value. changed=false leaves the vertex value
	// untouched and the vertex inactive.
	//
	// If Compute reports changed=false on a first message, a later
	// message in the same superstep is delivered with first=true again;
	// programs must therefore treat first as "cur is the previous
	// superstep's value", which is naturally idempotent for the
	// min/sum-style folds vertex-centric programs use.
	Compute(dst int64, cur uint64, msg uint64, first bool) (newVal uint64, changed bool)

	// CombineMsg merges two messages bound for the same vertex into one
	// (Pregel's message combiner). Dispatchers fold at the source, a left
	// fold in generation order, into one dense slab entry per destination
	// (see accum.go; the cluster folds the same way per source interval),
	// so Compute sees one combined message per destination from each
	// fold. Compute must not be able to tell the combined message from
	// the two it replaces: min-folds (BFS, CC, SSSP) combine with min,
	// PageRank's accumulation with float sum.
	CombineMsg(a, b uint64) uint64
}

// Fold names a message combiner the dispatcher has a kernel for: a
// program's optional Fold() method returns one (see Program). The zero
// value keeps the per-edge path.
type Fold uint8

const (
	FoldPerEdge    Fold = iota // GenMsg per edge, CombineMsg per fold
	FoldSumFloat64             // CombineMsg(a, b) is the float64 sum a+b
	FoldMinUint64              // CombineMsg(a, b) is min(a, b) as uint64
	FoldOrUint64               // CombineMsg(a, b) is a|b
)

var foldNames = [...]string{"per-edge", "float64 sum", "uint64 min", "uint64 or"}

// ErrFoldMismatch is wrapped by the error engine construction returns
// when a program's declared Fold is not a kernel, or disagrees with its
// own CombineMsg on foldProbes.
var ErrFoldMismatch = errors.New("core: declared fold does not match CombineMsg")

// folder is the optional declaration (see Program).
type folder interface{ Fold() Fold }

// The kernels. A kernel's loop (dispatcher.go) and the probe check both
// call these, so the check covers the code the loop runs.
func sumFloat64(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}
func minUint64(a, b uint64) uint64 { return min(a, b) }
func orUint64(a, b uint64) uint64  { return a | b }

// combine applies kernel f; it is only called on a kernel.
func (f Fold) combine(a, b uint64) uint64 {
	switch f {
	case FoldSumFloat64:
		return sumFloat64(a, b)
	case FoldMinUint64:
		return minUint64(a, b)
	default:
		return orUint64(a, b)
	}
}

// foldProbes are the words a declared kernel is checked on, as both
// operands of every pair: the float64 edge cases (±0, ±Inf, one NaN,
// the extreme subnormals, ±1 and the largest finite value), the uint64
// ones (0, 1, 2, MaxUint64−1, MaxUint64, the sign bit) and 16 words of
// a fixed splitmix64 stream.
var foldProbes = func() []uint64 {
	p := []uint64{
		0, 1 << 63, // ±0
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x7FF8000000000001,                        // NaN
		1, 0x000FFFFFFFFFFFFF, 0x8000000000000001, // subnormals
		0x3FF0000000000000, 0xBFF0000000000000, math.Float64bits(math.MaxFloat64),
		2, math.MaxUint64 - 1, math.MaxUint64,
	}
	for x, i := uint64(0x9E3779B97F4A7C15), 0; i < 16; i++ {
		x += 0x9E3779B97F4A7C15
		z := (x ^ x>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		p = append(p, z^z>>31)
	}
	return p
}()

// foldOf returns the kernel prog declares, FoldPerEdge if none, checked
// against prog's own CombineMsg on every pair of foldProbes, so a
// wrapper that overrides CombineMsg cannot run a kernel it no longer
// matches.
func foldOf(prog Program) (Fold, error) {
	fp, ok := prog.(folder)
	if !ok {
		return FoldPerEdge, nil
	}
	f := fp.Fold()
	if f == FoldPerEdge {
		return f, nil
	}
	if int(f) >= len(foldNames) {
		return 0, fmt.Errorf("%w: %T declares fold %d, which is not a kernel", ErrFoldMismatch, prog, f)
	}
	for _, a := range foldProbes {
		for _, b := range foldProbes {
			if got, want := f.combine(a, b), prog.CombineMsg(a, b); got != want {
				return 0, fmt.Errorf("%w: %T declares %s, but CombineMsg(%#x, %#x) = %#x, not %#x",
					ErrFoldMismatch, prog, foldNames[f], a, b, want, got)
			}
		}
	}
	return f, nil
}

// Message is one vertex update message: the paper's (destination id,
// value) pair.
type Message struct {
	Dst graph.VertexID
	Val uint64
}
