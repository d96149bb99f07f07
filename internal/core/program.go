package core

import "repro/internal/graph"

// Program is a user-defined vertex program: the paper's initialize,
// genMsg and compute functions (Fig. 3), plus a message combiner.
//
// Vertex values are 63-bit payloads stored in the two-column value file;
// see package vertexfile for helpers encoding floats and integers.
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

// Message is one vertex update message: the paper's (destination id,
// value) pair.
type Message struct {
	Dst graph.VertexID
	Val uint64
}
