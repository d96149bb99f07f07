package xstream_test

import (
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xstream"
)

func rmat(t testing.TB, v, e, seed int64) *graph.CSR {
	t.Helper()
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: v, Edges: e, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func prep(t testing.TB, g *graph.CSR, k int) *xstream.Layout {
	t.Helper()
	l, err := xstream.Preprocess(g, t.TempDir(), k)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func run(t testing.TB, l *xstream.Layout, prog core.Program, steps int) (*xstream.Engine, *xstream.Result) {
	t.Helper()
	e, err := xstream.NewEngine(l, prog, xstream.Config{MaxSupersteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

func TestLayoutRoundTrip(t *testing.T) {
	g := rmat(t, 250, 1500, 1)
	dir := t.TempDir()
	l, err := xstream.Preprocess(g, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	re, err := xstream.OpenLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumVertices != l.NumVertices || re.NumEdges != l.NumEdges || re.K != l.K || re.Weighted != l.Weighted {
		t.Fatalf("reloaded layout differs")
	}
	for v := range l.OutDeg {
		if l.OutDeg[v] != re.OutDeg[v] {
			t.Fatalf("degree of %d differs", v)
		}
	}
}

func TestPreprocessRejectsEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xstream.Preprocess(g, t.TempDir(), 2); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestXStreamBFSMatchesReference(t *testing.T) {
	g := rmat(t, 400, 2500, 2)
	l := prep(t, g, 4)
	e, res := run(t, l, algorithms.BFS{Root: 0}, 200)
	if !res.Converged {
		t.Fatal("BFS did not converge")
	}
	want := algorithms.TrueBFS(g, 0)
	for v := int64(0); v < g.NumVertices; v++ {
		got := e.Value(v)
		if want[v] == -1 {
			if got != algorithms.Unreached {
				t.Fatalf("vertex %d reached unexpectedly (level %d)", v, got)
			}
			continue
		}
		if got != uint64(want[v]) {
			t.Fatalf("vertex %d: level %d, want %d", v, got, want[v])
		}
	}
}

func TestXStreamCCMatchesUnionFind(t *testing.T) {
	g := rmat(t, 300, 1000, 3).Symmetrize()
	l := prep(t, g, 3)
	e, res := run(t, l, algorithms.ConnectedComponents{}, 300)
	if !res.Converged {
		t.Fatal("CC did not converge")
	}
	want := algorithms.TrueComponents(g)
	for v := int64(0); v < g.NumVertices; v++ {
		if e.Value(v) != uint64(want[v]) {
			t.Fatalf("vertex %d: label %d, want %d", v, e.Value(v), want[v])
		}
	}
}

func TestXStreamPageRankMatchesGPSASemantics(t *testing.T) {
	// X-Stream runs the same core.Program, so 5 supersteps must equal the
	// serial reference exactly (up to float association).
	g := rmat(t, 200, 1400, 4)
	l := prep(t, g, 4)
	e, _ := run(t, l, algorithms.PageRank{}, 5)
	want, _ := algorithms.ReferenceRun(g, algorithms.PageRank{}, 5)
	for v := int64(0); v < g.NumVertices; v++ {
		got := math.Float64frombits(e.Value(v))
		ref := algorithms.RankOf(want[v])
		if math.Abs(got-ref) > 1e-9*(1+ref) {
			t.Fatalf("vertex %d: rank %g, want %g", v, got, ref)
		}
	}
}

func TestXStreamStreamsAllEdgesEverySuperstep(t *testing.T) {
	// The edge-centric signature: even with a single active vertex,
	// scatter reads the whole edge file each superstep.
	var edges []graph.Edge
	const n = 500
	for v := graph.VertexID(0); v+1 < n; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1})
	}
	g, err := graph.FromEdges(edges, n, false)
	if err != nil {
		t.Fatal(err)
	}
	l := prep(t, g, 4)
	_, res := run(t, l, algorithms.BFS{Root: 0}, 20)
	wantStreamed := int64(res.Supersteps) * g.NumEdges
	if res.EdgesStreamed != wantStreamed {
		t.Fatalf("streamed %d edges over %d supersteps, want %d (no skipping in X-Stream)",
			res.EdgesStreamed, res.Supersteps, wantStreamed)
	}
}

func TestXStreamSinglePartition(t *testing.T) {
	g := rmat(t, 60, 300, 5).Symmetrize()
	l := prep(t, g, 1)
	e, res := run(t, l, algorithms.ConnectedComponents{}, 100)
	if !res.Converged {
		t.Fatal("CC did not converge with one partition")
	}
	want := algorithms.TrueComponents(g)
	for v := int64(0); v < g.NumVertices; v++ {
		if e.Value(v) != uint64(want[v]) {
			t.Fatalf("vertex %d mismatch", v)
		}
	}
}

func TestXStreamMorePartitionsThanVertices(t *testing.T) {
	g, err := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	l := prep(t, g, 64) // clamped to |V|
	if l.K > 3 {
		t.Fatalf("K = %d not clamped", l.K)
	}
	e, _ := run(t, l, algorithms.BFS{Root: 0}, 10)
	if e.Value(2) != 2 {
		t.Fatalf("level of 2 = %d", e.Value(2))
	}
}

func TestXStreamInMemoryMatchesOutOfCore(t *testing.T) {
	g := rmat(t, 300, 2000, 8).Symmetrize()
	l := prep(t, g, 4)

	disk, err := xstream.NewEngine(l, algorithms.ConnectedComponents{}, xstream.Config{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if _, err := disk.Run(); err != nil {
		t.Fatal(err)
	}

	mem, err := xstream.NewEngine(l, algorithms.ConnectedComponents{}, xstream.Config{MaxSupersteps: 200, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	res, err := mem.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("in-memory run did not converge")
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if disk.Value(v) != mem.Value(v) {
			t.Fatalf("vertex %d: disk %d, memory %d", v, disk.Value(v), mem.Value(v))
		}
	}
}

func TestXStreamWeightedSSSP(t *testing.T) {
	edges, err := gen.RMAT(gen.RMATConfig{Vertices: 150, Edges: 900, Seed: 6, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(edges, 150, true)
	if err != nil {
		t.Fatal(err)
	}
	l := prep(t, g, 3)
	e, res := run(t, l, algorithms.SSSP{Source: 0}, 500)
	if !res.Converged {
		t.Fatal("SSSP did not converge")
	}
	want := algorithms.TrueSSSP(g, 0)
	for v := int64(0); v < g.NumVertices; v++ {
		got := algorithms.DistOf(e.Value(v))
		if math.IsInf(want[v], 1) {
			if !math.IsInf(got, 1) {
				t.Fatalf("vertex %d reached unexpectedly", v)
			}
			continue
		}
		if math.Abs(got-want[v]) > 1e-5*(1+want[v]) {
			t.Fatalf("vertex %d: dist %g, want %g", v, got, want[v])
		}
	}
}
