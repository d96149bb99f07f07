package cluster_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	gpsa "repro"
	"repro/internal/algorithms"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vertexfile"
)

func save(t testing.TB, g *graph.CSR) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gpsa")
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func rmat(t testing.TB, v, e, seed int64) *graph.CSR {
	t.Helper()
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: v, Edges: e, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNodeValueFilesSealVerifiableDigests runs PageRank and BFS on a
// 3-node cluster and verifies every node's value file afterwards: the
// sealed column digest is maintained from the deltas the barrier apply
// (core.ApplyBatch) books, so it must equal a full recomputation — a
// lost delta shows up here, before any reopen trips over it.
func TestNodeValueFilesSealVerifiableDigests(t *testing.T) {
	path := save(t, rmat(t, 500, 4000, 3))
	for _, prog := range []gpsa.Program{algorithms.PageRank{}, algorithms.BFS{Root: 0}} {
		dir := t.TempDir()
		if _, _, err := cluster.Run(path, prog, cluster.Config{Nodes: 3, Splits: 2, MaxSupersteps: 8, WorkDir: dir}); err != nil {
			t.Fatalf("%T: %v", prog, err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "node-*.gpvf"))
		if err != nil || len(files) != 3 {
			t.Fatalf("%T: node value files %v (%v), want 3", prog, files, err)
		}
		for _, f := range files {
			if state, err := vertexfile.VerifyState(f); err != nil || state != "sealed" {
				t.Fatalf("%T: %s: state %q, %v; want sealed", prog, filepath.Base(f), state, err)
			}
		}
	}
}

func TestClusterCCMatchesSerialReference(t *testing.T) {
	g := rmat(t, 500, 3000, 1).Symmetrize()
	want, _ := algorithms.ReferenceRun(g, algorithms.ConnectedComponents{}, 100)
	for _, nodes := range []int{1, 2, 3, 5} {
		res, values, err := cluster.Run(save(t, g), algorithms.ConnectedComponents{}, cluster.Config{Nodes: nodes})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if !res.Converged {
			t.Fatalf("nodes=%d: did not converge in %d supersteps", nodes, res.Supersteps)
		}
		for v := int64(0); v < g.NumVertices; v++ {
			if values[v] != want[v] {
				t.Fatalf("nodes=%d vertex %d: %d, want %d", nodes, v, values[v], want[v])
			}
		}
	}
}

func TestClusterBFSMatchesSerialReference(t *testing.T) {
	g := rmat(t, 400, 2500, 2)
	prog := algorithms.BFS{Root: 0}
	want, _ := algorithms.ReferenceRun(g, prog, 200)
	res, values, err := cluster.Run(save(t, g), prog, cluster.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("BFS did not converge")
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if values[v] != want[v]&vertexfile.PayloadMask {
			t.Fatalf("vertex %d: level %d, want %d", v, values[v], want[v])
		}
	}
}

func TestClusterPageRankMatchesSerialReference(t *testing.T) {
	g := rmat(t, 300, 2000, 3)
	want, _ := algorithms.ReferenceRun(g, algorithms.PageRank{}, 5)
	res, values, err := cluster.Run(save(t, g), algorithms.PageRank{}, cluster.Config{Nodes: 4, MaxSupersteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 5 {
		t.Fatalf("ran %d supersteps", res.Supersteps)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		got := algorithms.RankOf(values[v])
		ref := algorithms.RankOf(want[v] & vertexfile.PayloadMask)
		if math.Abs(got-ref) > 1e-9*(1+ref) {
			t.Fatalf("vertex %d: rank %g, want %g", v, got, ref)
		}
	}
}

func TestClusterStatsAggregation(t *testing.T) {
	// Chain 0->1->2 split across 2+ nodes: messages cross the wire.
	g, err := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	res, values, err := cluster.Run(save(t, g), algorithms.BFS{Root: 0}, cluster.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 || res.Updates != 2 {
		t.Fatalf("messages=%d updates=%d, want 2 and 2", res.Messages, res.Updates)
	}
	if values[2] != 2 {
		t.Fatalf("level of 2 = %d", values[2])
	}
	if len(res.Steps) != res.Supersteps {
		t.Fatalf("steps recorded: %d, supersteps: %d", len(res.Steps), res.Supersteps)
	}
}

func TestClusterMoreNodesThanIntervals(t *testing.T) {
	// A tiny graph cannot be split 8 ways; the cluster shrinks gracefully.
	g, err := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	res, values, err := cluster.Run(save(t, g), algorithms.BFS{Root: 0}, cluster.Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 8 || res.Nodes < 1 {
		t.Fatalf("nodes = %d", res.Nodes)
	}
	if values[1] != 1 {
		t.Fatalf("level of 1 = %d", values[1])
	}
}

// TestClusterCombining pins the source-side fold's message count: a
// round carries exactly one message per distinct (source interval,
// destination) pair — no more (an unfolded duplicate) and no fewer (a
// lost one). The expectation is recomputed from the CSR,
// the final interval table and PageRank's activity rule (a vertex
// dispatches at step 0 and after every step it received a message in).
func TestClusterCombining(t *testing.T) {
	g := rmat(t, 3000, 40000, 4)
	const steps = 4
	res, _, err := cluster.Run(save(t, g), algorithms.PageRank{}, cluster.Config{Nodes: 3, Splits: 2, MaxSupersteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	ivOf := make([]int, g.NumVertices)
	for _, a := range res.Assignments {
		for v := a.First; v < a.End; v++ {
			ivOf[v] = a.Interval
		}
	}
	active := make([]bool, g.NumVertices)
	for v := range active {
		active[v] = true
	}
	if len(res.Steps) != steps {
		t.Fatalf("ran %d supersteps, want %d", len(res.Steps), steps)
	}
	for _, st := range res.Steps {
		pairs := map[[2]int64]bool{}
		next := make([]bool, g.NumVertices)
		for u := int64(0); u < g.NumVertices; u++ {
			if !active[u] {
				continue
			}
			for _, d := range g.Neighbors(graph.VertexID(u)) {
				pairs[[2]int64{int64(ivOf[u]), int64(d)}] = true
				next[d] = true
			}
		}
		active = next
		if st.Delivered != int64(len(pairs)) {
			t.Fatalf("step %d: delivered %d messages, want one per (source interval, destination) pair: %d (generated %d)",
				st.Step, st.Delivered, len(pairs), st.Messages)
		}
	}
}

// TestClusterOneNodeEqualsCore pins the cluster's fold to core's. Core
// dispatcher i folds interval i of Partition(D) into one slab per
// computer, and every computer applies the D slabs in ascending
// dispatcher order; the cluster folds per source interval of
// Partition(Nodes×Splits) and applies in ascending interval. So float
// PageRank at core D×C is bit-identical to the cluster at 1×D and D×1,
// whatever C.
func TestClusterOneNodeEqualsCore(t *testing.T) {
	for _, seed := range []int64{3, 5, 7} {
		path := save(t, rmat(t, 3000, 40000, seed))
		for _, d := range []int{1, 2, 3, 6} {
			var want []uint64
			for _, cl := range [][2]int{{1, d}, {d, 1}} {
				_, got, err := cluster.Run(path, algorithms.PageRank{}, cluster.Config{Nodes: cl[0], Splits: cl[1], MaxSupersteps: 5})
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				assertSameValues(t, fmt.Sprintf("seed %d: cluster %dx%d vs 1x%d", seed, cl[0], cl[1], d), got, want)
			}
			for _, c := range []int{1, 2, 3} {
				vals, _, err := gpsa.Run(path, algorithms.PageRank{}, gpsa.RunOptions{Supersteps: 5, Dispatchers: d, Computers: c})
				if err != nil {
					t.Fatal(err)
				}
				got := make([]uint64, vals.NumVertices())
				for v := range got {
					got[v] = vals.Raw(int64(v))
				}
				if err := vals.Close(); err != nil {
					t.Fatal(err)
				}
				assertSameValues(t, fmt.Sprintf("seed %d: core %dx%d vs cluster 1x%d", seed, d, c, d), got, want)
			}
		}
	}
}

// TestClusterGeometryInvariant runs one 6-interval partition as
// Nodes×Splits = 1×6, 2×3, 3×2 and 6×1: the same intervals reach their
// computer as a local slab in one geometry and as wire batches in
// another, so bit-identical PageRank pins that both paths deliver the
// same combined messages in the same order.
func TestClusterGeometryInvariant(t *testing.T) {
	path := save(t, rmat(t, 3000, 40000, 3))
	var want []uint64
	for _, geo := range [][2]int{{1, 6}, {2, 3}, {3, 2}, {6, 1}} {
		res, got, err := cluster.Run(path, algorithms.PageRank{}, cluster.Config{Nodes: geo[0], Splits: geo[1], MaxSupersteps: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Assignments) != 6 {
			t.Fatalf("%dx%d: %d intervals, want 6", geo[0], geo[1], len(res.Assignments))
		}
		if want == nil {
			want = got
			continue
		}
		assertSameValues(t, fmt.Sprintf("%dx%d vs 1x6", geo[0], geo[1]), got, want)
	}
}

// TestClusterLabelPropagation runs label propagation, whose fold is a
// minimum with a TTL tie-break, on the cluster against the serial
// reference, which applies every message unfolded.
func TestClusterLabelPropagation(t *testing.T) {
	g := rmat(t, 500, 3000, 9).Symmetrize()
	prog := algorithms.LabelPropagation{Rounds: 6}
	want, _ := algorithms.ReferenceRun(g, prog, 100)
	for i := range want {
		want[i] &= vertexfile.PayloadMask
	}
	path := save(t, g)
	for _, nodes := range []int{1, 3} {
		res, got, err := cluster.Run(path, prog, cluster.Config{Nodes: nodes, Splits: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("nodes=%d: did not converge", nodes)
		}
		if res.Delivered >= res.Messages {
			t.Fatalf("nodes=%d: delivered %d of %d messages; expected a source-side fold", nodes, res.Delivered, res.Messages)
		}
		assertSameValues(t, fmt.Sprintf("nodes=%d", nodes), got, want)
	}
}

// TestClusterSizesBounded pins the MaxWorkers bound on Nodes×Splits: a
// size past it fails with a typed *SizeError before any node, channel or
// partition is built — at these sizes either would exhaust memory or
// spin for minutes — while Nodes×Splits at the bound runs.
func TestClusterSizesBounded(t *testing.T) {
	path := save(t, rmat(t, 64, 300, 1))
	for _, tc := range []struct {
		field string
		cfg   cluster.Config
	}{
		{"Splits", cluster.Config{Nodes: 4, Splits: 2_000_000_000}},
		{"Nodes", cluster.Config{Nodes: cluster.MaxWorkers + 1}},
	} {
		_, _, err := cluster.Run(path, algorithms.PageRank{}, tc.cfg)
		var se *cluster.SizeError
		if !errors.As(err, &se) || se.Field != tc.field {
			t.Fatalf("%s: err = %v, want a *cluster.SizeError naming %s", tc.field, err, tc.field)
		}
	}
	cfg := cluster.Config{Nodes: 2, Splits: cluster.MaxWorkers / 2, MaxSupersteps: 1}
	if _, _, err := cluster.Run(path, algorithms.PageRank{}, cfg); err != nil {
		t.Fatalf("sizes at the bound: %v", err)
	}
}

func assertSameValues(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	differ, first := 0, -1
	for v := range want {
		if got[v] != want[v] {
			if differ == 0 {
				first = v
			}
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%s: %d of %d vertices differ; first: vertex %d = %#x, want %#x", what, differ, len(want), first, got[first], want[first])
	}
}
