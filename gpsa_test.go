package gpsa_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/algorithms"
	"repro/internal/gen"
)

func saveSample(t *testing.T) (string, *gpsa.CSR) {
	t.Helper()
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 400, Edges: 2500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gpsa")
	if err := gpsa.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestBuildGraphAndSave(t *testing.T) {
	g, err := gpsa.BuildGraph([]gpsa.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 3 || g.NumEdges != 2 {
		t.Fatalf("dims (%d, %d)", g.NumVertices, g.NumEdges)
	}
	path := filepath.Join(t.TempDir(), "tiny.gpsa")
	if err := gpsa.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	levels, res, err := gpsa.BFS(path, 0, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || levels[2] != 2 {
		t.Fatalf("levels = %v, converged = %v", levels, res.Converged)
	}
}

func TestLoadEdgeList(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "e.txt")
	if err := os.WriteFile(p, []byte("# c\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	edges, err := gpsa.LoadEdgeList(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 || edges[1] != (gpsa.Edge{Src: 1, Dst: 2}) {
		t.Fatalf("edges = %v", edges)
	}
}

func TestRunCustomProgramAndValues(t *testing.T) {
	path, g := saveSample(t)
	vals, res, err := gpsa.Run(path, algorithms.ConnectedComponents{}, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer vals.Close()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if vals.NumVertices() != g.NumVertices {
		t.Fatalf("NumVertices = %d", vals.NumVertices())
	}
	want := algorithms.TrueComponents(g.Symmetrize())
	_ = want // directed label propagation differs from weak components; just sanity-check labels
	for v := int64(0); v < g.NumVertices; v++ {
		if vals.Uint(v) > uint64(v) {
			t.Fatalf("vertex %d: label %d exceeds own id", v, vals.Uint(v))
		}
	}
}

func TestRunCleansUpTempValueFiles(t *testing.T) {
	path, _ := saveSample(t)
	dir := filepath.Dir(path)
	vals, _, err := gpsa.Run(path, algorithms.ConnectedComponents{}, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vals.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) >= 12 && e.Name()[:12] == ".gpsa-values" {
			t.Fatalf("temp value file %s not removed", e.Name())
		}
	}
}

func TestRunRejectsMissingGraph(t *testing.T) {
	if _, _, err := gpsa.Run("/nonexistent/g.gpsa", algorithms.ConnectedComponents{}, gpsa.RunOptions{}); err == nil {
		t.Fatal("missing graph accepted")
	}
}

func TestResumeContinuesRun(t *testing.T) {
	path, g := saveSample(t)
	values := filepath.Join(t.TempDir(), "v.gpvf")
	prog := algorithms.ConnectedComponents{}

	vals, res, err := gpsa.Run(path, prog, gpsa.RunOptions{Supersteps: 1, ValuesPath: values})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Skip("graph converged in one superstep; nothing to resume")
	}
	if err := vals.Close(); err != nil {
		t.Fatal(err)
	}

	vals, res, err = gpsa.Resume(path, values, prog, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer vals.Close()
	if !res.Converged {
		t.Fatal("resumed run did not converge")
	}

	want, _ := algorithms.ReferenceRun(g, prog, 100)
	for v := int64(0); v < g.NumVertices; v++ {
		if vals.Uint(v) != want[v] {
			t.Fatalf("vertex %d: %d, want %d", v, vals.Uint(v), want[v])
		}
	}
}

// TestResumeKeepsRecordedDispatchers pins that a value file records the
// dispatcher count its computation started at: PageRank written at 2
// dispatchers for 3 supersteps and resumed with Dispatchers 3 to 6 must
// run the resume at 2 and end bit-identical to an uninterrupted 2×1 run.
// Float programs fold per dispatcher interval, so a resume at 3 would
// change the low bits of most vertices.
func TestResumeKeepsRecordedDispatchers(t *testing.T) {
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 3000, Edges: 40000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gpsa")
	if err := gpsa.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	prog := algorithms.PageRank{}
	want, _, err := gpsa.Run(path, prog, gpsa.RunOptions{Supersteps: 6, Dispatchers: 2, Computers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()

	values := filepath.Join(dir, "v.gpvf")
	vals, _, err := gpsa.Run(path, prog, gpsa.RunOptions{Supersteps: 3, Dispatchers: 2, Computers: 1, ValuesPath: values})
	if err != nil {
		t.Fatal(err)
	}
	if err := vals.Close(); err != nil {
		t.Fatal(err)
	}
	vals, res, err := gpsa.Resume(path, values, prog, gpsa.RunOptions{Supersteps: 6, Dispatchers: 3, Computers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer vals.Close()
	differ := 0
	for v := int64(0); v < g.NumVertices; v++ {
		if vals.Raw(v) != want.Raw(v) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d vertices differ from the uninterrupted 2x1 run", differ, g.NumVertices)
	}
	if d := len(res.DispatcherMessages); d != 2 {
		t.Fatalf("resume ran on %d dispatchers, want the recorded 2", d)
	}
}

func TestPageRankDefaultsToFiveSupersteps(t *testing.T) {
	path, _ := saveSample(t)
	_, res, err := gpsa.PageRank(path, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 5 {
		t.Fatalf("ran %d supersteps, want the paper's 5", res.Supersteps)
	}
}

func TestSSSPAndUnreachable(t *testing.T) {
	g, err := gpsa.BuildWeightedGraph([]gpsa.Edge{
		{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 2, Weight: 3},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.gpsa")
	if err := gpsa.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	dists, _, err := gpsa.SSSP(path, 0, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dists[2] != 5 {
		t.Fatalf("dist[2] = %g, want 5", dists[2])
	}
	if !gpsa.Unreachable(dists[3]) || gpsa.Unreachable(dists[1]) {
		t.Fatalf("reachability flags wrong: %v", dists)
	}
	if !math.IsInf(dists[3], 1) {
		t.Fatalf("unreached distance = %g", dists[3])
	}
}

func TestProgressCallbackFires(t *testing.T) {
	path, _ := saveSample(t)
	var steps int
	_, res, err := gpsa.PageRank(path, gpsa.RunOptions{
		Supersteps: 3,
		Progress:   func(gpsa.StepStats) { steps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != res.Supersteps {
		t.Fatalf("progress fired %d times for %d supersteps", steps, res.Supersteps)
	}
}

func TestRunGraphInMemory(t *testing.T) {
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 300, Edges: 2000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	sym := g.Symmetrize()
	vals, res, err := gpsa.RunGraph(sym, algorithms.ConnectedComponents{}, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer vals.Close()
	if !res.Converged {
		t.Fatal("in-memory run did not converge")
	}
	want := algorithms.TrueComponents(sym)
	for v := int64(0); v < sym.NumVertices; v++ {
		if vals.Uint(v) != uint64(want[v]) {
			t.Fatalf("vertex %d: %d, want %d", v, vals.Uint(v), want[v])
		}
	}
}

func TestRunGraphMatchesOnDiskRun(t *testing.T) {
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 200, Edges: 1500, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gpsa")
	if err := gpsa.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	diskVals, _, err := gpsa.Run(path, algorithms.BFS{Root: 0}, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer diskVals.Close()
	memVals, _, err := gpsa.RunGraph(g, algorithms.BFS{Root: 0}, gpsa.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer memVals.Close()
	for v := int64(0); v < g.NumVertices; v++ {
		if diskVals.Uint(v) != memVals.Uint(v) {
			t.Fatalf("vertex %d: disk %d, memory %d", v, diskVals.Uint(v), memVals.Uint(v))
		}
	}
}
