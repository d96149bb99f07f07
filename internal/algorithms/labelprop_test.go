package algorithms_test

import (
	"testing"

	"repro"
	"repro/internal/algorithms"
	"repro/internal/graph"
)

// Two offers of one label combine to the one that can still travel
// further, whichever argument it is; a smaller label wins whatever its
// TTL. Payload layout: label | TTL<<32.
func TestLabelPropagationCombineKeepsLargerTTL(t *testing.T) {
	lp := algorithms.LabelPropagation{Rounds: 9}
	short, long := uint64(5)|2<<32, uint64(5)|7<<32
	smaller := uint64(4) | 1<<32
	for _, tc := range []struct{ a, b, want uint64 }{
		{short, long, long},
		{long, short, long},
		{long, smaller, smaller},
		{smaller, long, smaller},
	} {
		if got := lp.CombineMsg(tc.a, tc.b); got != tc.want {
			t.Errorf("CombineMsg(%#x, %#x) = %#x, want %#x", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLabelPropagationTTLBoundsSpread(t *testing.T) {
	// A long path 0-1-2-...-9 (symmetric). With TTL 3, label 0 can only
	// travel 3 hops before dying; vertices beyond keep smaller-of-local
	// labels, never 0.
	var edges []graph.Edge
	for v := graph.VertexID(0); v < 9; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1}, graph.Edge{Src: v + 1, Dst: v})
	}
	g, err := graph.FromEdges(edges, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	path := save(t, g)

	vals, res, err := gpsa.Run(path, algorithms.LabelPropagation{Rounds: 3}, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer vals.Close()
	if !res.Converged {
		t.Fatal("label propagation did not converge")
	}
	if l := algorithms.LPLabelOf(vals.Raw(3)); l != 0 {
		t.Fatalf("vertex 3 (within TTL) label = %d, want 0", l)
	}
	if l := algorithms.LPLabelOf(vals.Raw(9)); l == 0 {
		t.Fatal("vertex 9 adopted label 0 despite TTL 3")
	}
}

func TestLabelPropagationLargeTTLEqualsComponents(t *testing.T) {
	g := testGraph(t, 12).Symmetrize()
	path := save(t, g)
	vals, _, err := gpsa.Run(path, algorithms.LabelPropagation{Rounds: 10000}, gpsa.RunOptions{Supersteps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	defer vals.Close()
	want := algorithms.TrueComponents(g)
	for v := int64(0); v < g.NumVertices; v++ {
		if algorithms.LPLabelOf(vals.Raw(v)) != want[v] {
			t.Fatalf("vertex %d: label %d, want component %d",
				v, algorithms.LPLabelOf(vals.Raw(v)), want[v])
		}
	}
}

func TestLabelPropagationIsolatedVertexKeepsOwnLabel(t *testing.T) {
	g, err := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := gpsa.Run(save(t, g), algorithms.LabelPropagation{}, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer vals.Close()
	if l := algorithms.LPLabelOf(vals.Raw(2)); l != 2 {
		t.Fatalf("isolated vertex label = %d, want 2", l)
	}
}
