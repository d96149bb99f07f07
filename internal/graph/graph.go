// Package graph provides the graph representations used across all three
// engines in this repository: in-memory edge lists and CSR, and the GPSA
// on-disk CSR format of the paper (Fig. 4) — per-vertex records carrying
// the out-degree, the destination list, and a -1 sentinel — streamed
// sequentially by dispatcher actors through a memory mapping.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// VertexID identifies a vertex. The paper assumes vertices are labeled
// 0..|V|-1; twitter-2010's 41.6 M vertices fit comfortably in 32 bits.
type VertexID = uint32

// Sentinel terminates a vertex's edge list in the on-disk format; it is
// the paper's "-1" separator.
const Sentinel uint32 = 0xFFFFFFFF

// MaxVertices bounds |V| so ids never collide with Sentinel.
const MaxVertices = int64(Sentinel)

// Edge is a directed edge with an optional weight (used by weighted
// algorithms such as SSSP; unweighted algorithms ignore it).
type Edge struct {
	Src    VertexID
	Dst    VertexID
	Weight float32
}

// CSR is an in-memory compressed-sparse-row graph. Indptr has length
// NumVertices+1; the out-neighbors of v are Dst[Indptr[v]:Indptr[v+1]].
// Weights is nil for unweighted graphs, otherwise parallel to Dst.
type CSR struct {
	NumVertices int64
	NumEdges    int64
	Indptr      []int64
	Dst         []VertexID
	Weights     []float32
}

// OutDegree returns the out-degree of v.
func (g *CSR) OutDegree(v VertexID) uint32 {
	return uint32(g.Indptr[v+1] - g.Indptr[v])
}

// Neighbors returns the out-neighbor slice of v. The slice aliases the
// graph and must not be modified.
func (g *CSR) Neighbors(v VertexID) []VertexID {
	return g.Dst[g.Indptr[v]:g.Indptr[v+1]]
}

// EdgeWeights returns the weight slice parallel to Neighbors(v), or nil
// for unweighted graphs.
func (g *CSR) EdgeWeights(v VertexID) []float32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.Indptr[v]:g.Indptr[v+1]]
}

// Weighted reports whether the graph carries edge weights.
func (g *CSR) Weighted() bool { return g.Weights != nil }

// Validate checks structural invariants: monotone Indptr, edge targets in
// range, and consistent counts. It is used by tests and by loaders after
// reading untrusted files.
func (g *CSR) Validate() error {
	if g.NumVertices < 0 || g.NumVertices > MaxVertices {
		return fmt.Errorf("graph: vertex count %d out of range", g.NumVertices)
	}
	if int64(len(g.Indptr)) != g.NumVertices+1 {
		return fmt.Errorf("graph: indptr length %d, want %d", len(g.Indptr), g.NumVertices+1)
	}
	if len(g.Indptr) > 0 {
		if g.Indptr[0] != 0 {
			return fmt.Errorf("graph: indptr[0] = %d, want 0", g.Indptr[0])
		}
		if last := g.Indptr[g.NumVertices]; last != g.NumEdges {
			return fmt.Errorf("graph: indptr[V] = %d, want edge count %d", last, g.NumEdges)
		}
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if g.Indptr[v+1] < g.Indptr[v] {
			return fmt.Errorf("graph: indptr not monotone at vertex %d", v)
		}
	}
	if int64(len(g.Dst)) != g.NumEdges {
		return fmt.Errorf("graph: dst length %d, want %d", len(g.Dst), g.NumEdges)
	}
	if g.Weights != nil && len(g.Weights) != len(g.Dst) {
		return fmt.Errorf("graph: weights length %d, want %d", len(g.Weights), len(g.Dst))
	}
	for i, d := range g.Dst {
		if int64(d) >= g.NumVertices {
			return fmt.Errorf("graph: edge %d targets vertex %d outside [0, %d)", i, d, g.NumVertices)
		}
	}
	return nil
}

// ErrNaNWeight is wrapped by the error ingest returns for a NaN edge
// weight, naming its edge, line or record. A min over NaN depends on the
// order it folds in, so a NaN weight would make SSSP's result depend on
// the dispatcher count. ±Inf weights are accepted.
var ErrNaNWeight = errors.New("graph: NaN edge weight")

// FromEdges builds a CSR from an edge list using a counting sort on the
// source vertex, O(V+E). numVertices must exceed every vertex id that
// appears; pass 0 to infer it from the edges. Weighted selects whether
// edge weights are retained.
func FromEdges(edges []Edge, numVertices int64, weighted bool) (*CSR, error) {
	if numVertices == 0 {
		for _, e := range edges {
			if int64(e.Src) >= numVertices {
				numVertices = int64(e.Src) + 1
			}
			if int64(e.Dst) >= numVertices {
				numVertices = int64(e.Dst) + 1
			}
		}
	}
	if numVertices > MaxVertices {
		return nil, fmt.Errorf("graph: %d vertices exceed maximum %d", numVertices, MaxVertices)
	}
	g := &CSR{
		NumVertices: numVertices,
		NumEdges:    int64(len(edges)),
		Indptr:      make([]int64, numVertices+1),
		Dst:         make([]VertexID, len(edges)),
	}
	if weighted {
		g.Weights = make([]float32, len(edges))
	}
	for i, e := range edges {
		if int64(e.Src) >= numVertices || int64(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge %d->%d outside vertex range %d", e.Src, e.Dst, numVertices)
		}
		if weighted && math.IsNaN(float64(e.Weight)) {
			return nil, fmt.Errorf("graph: edge %d (%d->%d): %w", i+1, e.Src, e.Dst, ErrNaNWeight)
		}
		g.Indptr[e.Src+1]++
	}
	for v := int64(0); v < numVertices; v++ {
		g.Indptr[v+1] += g.Indptr[v]
	}
	next := make([]int64, numVertices)
	copy(next, g.Indptr[:numVertices])
	for _, e := range edges {
		i := next[e.Src]
		next[e.Src]++
		g.Dst[i] = e.Dst
		if weighted {
			g.Weights[i] = e.Weight
		}
	}
	return g, nil
}

// SortNeighbors sorts each vertex's adjacency list by destination id,
// giving a canonical form useful for tests and deterministic traversal.
func (g *CSR) SortNeighbors() {
	for v := int64(0); v < g.NumVertices; v++ {
		lo, hi := g.Indptr[v], g.Indptr[v+1]
		if g.Weights == nil {
			dst := g.Dst[lo:hi]
			sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
			continue
		}
		dst, w := g.Dst[lo:hi], g.Weights[lo:hi]
		idx := make([]int, len(dst))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return dst[idx[i]] < dst[idx[j]] })
		nd := make([]VertexID, len(dst))
		nw := make([]float32, len(w))
		for i, j := range idx {
			nd[i], nw[i] = dst[j], w[j]
		}
		copy(dst, nd)
		copy(w, nw)
	}
}

// Symmetrize returns the graph with every edge doubled in both
// directions (weights preserved). Weakly-connected-components runs
// propagate labels against edge direction, so the paper's CC workloads
// run on the symmetrized graph.
func (g *CSR) Symmetrize() *CSR {
	edges := make([]Edge, 0, 2*g.NumEdges)
	for v := int64(0); v < g.NumVertices; v++ {
		ws := g.EdgeWeights(VertexID(v))
		for i, d := range g.Neighbors(VertexID(v)) {
			var w float32
			if ws != nil {
				w = ws[i]
			}
			edges = append(edges, Edge{Src: VertexID(v), Dst: d, Weight: w},
				Edge{Src: d, Dst: VertexID(v), Weight: w})
		}
	}
	s, err := FromEdges(edges, g.NumVertices, g.Weights != nil)
	if err != nil {
		// Cannot happen: edges come from a validated graph.
		panic(err)
	}
	return s
}

// Reverse returns the transpose graph (every edge u->v becomes v->u).
// GraphChi-style engines need in-edges as well as out-edges.
func (g *CSR) Reverse() *CSR {
	edges := make([]Edge, 0, g.NumEdges)
	for v := int64(0); v < g.NumVertices; v++ {
		ws := g.EdgeWeights(VertexID(v))
		for i, d := range g.Neighbors(VertexID(v)) {
			e := Edge{Src: d, Dst: VertexID(v)}
			if ws != nil {
				e.Weight = ws[i]
			}
			edges = append(edges, e)
		}
	}
	r, err := FromEdges(edges, g.NumVertices, g.Weights != nil)
	if err != nil {
		// Cannot happen: edges come from a validated graph.
		panic(err)
	}
	return r
}
