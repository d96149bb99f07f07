package algorithms

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/vertexfile"
)

// Unreached is the BFS/CC "infinity" payload (all 63 payload bits set).
const Unreached = vertexfile.PayloadMask

// BFS computes hop distances from Root (the paper's bfs workload): only
// the root starts active, and a vertex adopts the smallest level offered.
type BFS struct {
	Root graph.VertexID
}

// Init activates the root at level 0; everything else is unreached.
func (b BFS) Init(v int64) (uint64, bool) {
	if v == int64(b.Root) {
		return 0, true
	}
	return Unreached, false
}

// GenMsg offers level+1 to each neighbor.
func (b BFS) GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (uint64, bool) {
	return payload + 1, true
}

// Compute keeps the minimum level.
func (b BFS) Compute(dst int64, cur uint64, msg uint64, first bool) (uint64, bool) {
	if msg < cur {
		return msg, true
	}
	return cur, false
}

// CombineMsg merges two level offers by minimum.
func (b BFS) CombineMsg(a, c uint64) uint64 {
	if a < c {
		return a
	}
	return c
}

// Fold declares that the message ignores dst and weight and CombineMsg
// is a uint64 min.
func (b BFS) Fold() core.Fold { return core.FoldMinUint64 }

// ConnectedComponents labels every vertex with the smallest vertex id in
// its component (the paper's CC workload). Run it on a symmetrized graph
// for weakly connected components.
type ConnectedComponents struct{}

// Init labels each vertex with itself, active.
func (ConnectedComponents) Init(v int64) (uint64, bool) { return uint64(v), true }

// GenMsg offers the current label to each neighbor.
func (ConnectedComponents) GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (uint64, bool) {
	return payload, true
}

// Compute keeps the minimum label.
func (ConnectedComponents) Compute(dst int64, cur uint64, msg uint64, first bool) (uint64, bool) {
	if msg < cur {
		return msg, true
	}
	return cur, false
}

// CombineMsg merges two label offers by minimum.
func (ConnectedComponents) CombineMsg(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Fold declares that the message ignores dst and weight and CombineMsg
// is a uint64 min.
func (ConnectedComponents) Fold() core.Fold { return core.FoldMinUint64 }

// SSSP computes single-source shortest paths over edge weights (an
// extension beyond the paper's workloads; it exercises the weighted CSR
// format). Distances are float64 payloads; unreached is +Inf.
type SSSP struct {
	Source graph.VertexID
}

// Init activates the source at distance 0.
func (s SSSP) Init(v int64) (uint64, bool) {
	if v == int64(s.Source) {
		return math.Float64bits(0), true
	}
	return math.Float64bits(math.Inf(1)), false
}

// GenMsg offers dist+|weight|. Preprocessing accepts negative weights
// (a "0 1 -3" line converts as written), so the |w| clamp is the only
// guard keeping distances non-negative.
func (s SSSP) GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (uint64, bool) {
	d := math.Float64frombits(payload) + math.Abs(float64(weight))
	return math.Float64bits(d), true
}

// Compute keeps the minimum distance.
func (s SSSP) Compute(dst int64, cur uint64, msg uint64, first bool) (uint64, bool) {
	if math.Float64frombits(msg) < math.Float64frombits(cur) {
		return msg, true
	}
	return cur, false
}

// CombineMsg merges two distance offers by minimum (non-negative float64
// bit patterns order like the floats themselves).
func (s SSSP) CombineMsg(a, b uint64) uint64 {
	if math.Float64frombits(a) < math.Float64frombits(b) {
		return a
	}
	return b
}

// DistOf decodes an SSSP payload.
func DistOf(payload uint64) float64 { return math.Float64frombits(payload) }

// InDegree counts each vertex's in-degree in a single superstep (run
// with MaxSupersteps == 1).
type InDegree struct{}

// Init starts every vertex at zero, active.
func (InDegree) Init(v int64) (uint64, bool) { return 0, true }

// GenMsg sends 1 along every edge.
func (InDegree) GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (uint64, bool) {
	return 1, true
}

// Compute sums the incoming ones.
func (InDegree) Compute(dst int64, cur uint64, msg uint64, first bool) (uint64, bool) {
	if first {
		return msg, true
	}
	return cur + msg, true
}

// CombineMsg sums the counts.
func (InDegree) CombineMsg(a, b uint64) uint64 { return a + b }
