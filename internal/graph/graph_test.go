package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// paperExample is the graph of paper Fig. 4: vertex 0 -> {2, 3}, and the
// remaining structure implied by the CSR illustration.
func paperExample(t *testing.T) *CSR {
	t.Helper()
	g, err := FromEdges([]Edge{
		{Src: 0, Dst: 2}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 0},
		{Src: 2, Dst: 1}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 1},
	}, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := paperExample(t)
	if g.NumVertices != 4 || g.NumEdges != 6 {
		t.Fatalf("dims = (%d, %d), want (4, 6)", g.NumVertices, g.NumEdges)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []VertexID{2, 3}) {
		t.Fatalf("Neighbors(0) = %v, want [2 3]", got)
	}
	if g.OutDegree(2) != 2 || g.OutDegree(1) != 1 {
		t.Fatalf("degrees wrong: deg(2)=%d deg(1)=%d", g.OutDegree(2), g.OutDegree(1))
	}
}

func TestFromEdgesInfersVertexCount(t *testing.T) {
	g, err := FromEdges([]Edge{{Src: 9, Dst: 3}}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 10 {
		t.Fatalf("inferred %d vertices, want 10", g.NumVertices)
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges([]Edge{{Src: 5, Dst: 0}}, 3, false); err == nil {
		t.Fatal("edge with src beyond vertex count accepted")
	}
	if _, err := FromEdges([]Edge{{Src: 0, Dst: 5}}, 3, false); err == nil {
		t.Fatal("edge with dst beyond vertex count accepted")
	}
}

func TestFromEdgesEmptyGraph(t *testing.T) {
	g, err := FromEdges(nil, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(4) != 0 {
		t.Fatal("empty graph has edges")
	}
}

func TestWeightsRetained(t *testing.T) {
	g, err := FromEdges([]Edge{{Src: 0, Dst: 1, Weight: 2.5}, {Src: 0, Dst: 2, Weight: 1.5}}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("graph not weighted")
	}
	ws := g.EdgeWeights(0)
	if len(ws) != 2 || ws[0] != 2.5 || ws[1] != 1.5 {
		t.Fatalf("EdgeWeights(0) = %v", ws)
	}
	if g.EdgeWeights(1) == nil {
		t.Fatal("weighted graph returned nil weights for vertex 1")
	}
}

// FromEdges, which every in-memory CSR passes through, rejects a NaN
// weight when it keeps weights, and keeps ±Inf.
func TestFromEdgesRejectsNaNWeight(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: float32(math.NaN())}}
	if _, err := FromEdges(edges, 3, true); !errors.Is(err, ErrNaNWeight) {
		t.Fatalf("NaN weight: err = %v, want ErrNaNWeight", err)
	}
	if _, err := FromEdges(edges, 3, false); err != nil {
		t.Fatalf("NaN weight, unweighted: %v", err)
	}
	edges[1].Weight = float32(math.Inf(-1))
	if _, err := FromEdges(edges, 3, true); err != nil {
		t.Fatalf("-Inf weight: %v", err)
	}
}

func TestReverse(t *testing.T) {
	g := paperExample(t)
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	r.SortNeighbors()
	// In-edges of 3 are from 0 and 2.
	if got := r.Neighbors(3); !reflect.DeepEqual(got, []VertexID{0, 2}) {
		t.Fatalf("Reverse Neighbors(3) = %v, want [0 2]", got)
	}
	if r.NumEdges != g.NumEdges {
		t.Fatalf("reverse edge count %d, want %d", r.NumEdges, g.NumEdges)
	}
}

func TestReversePreservesWeights(t *testing.T) {
	g, err := FromEdges([]Edge{{Src: 0, Dst: 1, Weight: 7}}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	r := g.Reverse()
	if ws := r.EdgeWeights(1); len(ws) != 1 || ws[0] != 7 {
		t.Fatalf("reverse weights = %v, want [7]", ws)
	}
}

func TestSortNeighbors(t *testing.T) {
	g, err := FromEdges([]Edge{
		{Src: 0, Dst: 3, Weight: 3}, {Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 2},
	}, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	g.SortNeighbors()
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []VertexID{1, 2, 3}) {
		t.Fatalf("sorted neighbors = %v", got)
	}
	if ws := g.EdgeWeights(0); !reflect.DeepEqual(ws, []float32{1, 2, 3}) {
		t.Fatalf("weights did not follow sort: %v", ws)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *CSR {
		g, _ := FromEdges([]Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}, 2, false)
		return g
	}
	g := fresh()
	g.Indptr[0] = 1
	if g.Validate() == nil {
		t.Fatal("nonzero indptr[0] passed validation")
	}
	g = fresh()
	g.Indptr[1] = 5
	if g.Validate() == nil {
		t.Fatal("non-monotone/overflowing indptr passed validation")
	}
	g = fresh()
	g.Dst[0] = 99
	if g.Validate() == nil {
		t.Fatal("out-of-range destination passed validation")
	}
	g = fresh()
	g.NumEdges = 3
	if g.Validate() == nil {
		t.Fatal("inconsistent edge count passed validation")
	}
}

func randomEdges(rng *rand.Rand, v int64, e int) []Edge {
	edges := make([]Edge, e)
	for i := range edges {
		edges[i] = Edge{
			Src:    VertexID(rng.Int63n(v)),
			Dst:    VertexID(rng.Int63n(v)),
			Weight: rng.Float32(),
		}
	}
	return edges
}

// Property: FromEdges then ToEdges preserves the multiset of edges.
func TestCSRRoundTripProperty(t *testing.T) {
	fn := func(seed int64, nRaw uint8, eRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		v := int64(nRaw%50) + 1
		edges := randomEdges(rng, v, int(eRaw%500))
		g, err := FromEdges(edges, v, true)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		back := g.ToEdges()
		if len(back) != len(edges) {
			return false
		}
		count := func(es []Edge) map[Edge]int {
			m := make(map[Edge]int)
			for _, e := range es {
				m[e]++
			}
			return m
		}
		return reflect.DeepEqual(count(edges), count(back))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reverse is an involution up to neighbor ordering.
func TestReverseInvolutionProperty(t *testing.T) {
	fn := func(seed int64, nRaw uint8, eRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		v := int64(nRaw%40) + 1
		g, err := FromEdges(randomEdges(rng, v, int(eRaw%300)), v, false)
		if err != nil {
			return false
		}
		rr := g.Reverse().Reverse()
		g.SortNeighbors()
		rr.SortNeighbors()
		return reflect.DeepEqual(g.Indptr, rr.Indptr) && reflect.DeepEqual(g.Dst, rr.Dst)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
