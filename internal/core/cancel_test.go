package core

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// chainGraph builds the path 0 -> 1 -> ... -> n-1, whose computations
// (BFS, CC label propagation) need ~n supersteps — long enough that a
// cancellation always lands inside a run.
func chainGraph(t testing.TB, n int64) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	g, err := graph.FromEdges(edges, n, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cancelSetup is setup keeping the graph file handle, so the test can
// build a second engine over the same files to resume after a cancel.
func cancelSetup(t *testing.T, g *graph.CSR, prog Program, cfg Config) (*graph.File, *vertexFileHandle) {
	t.Helper()
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.gpsa")
	if err := graph.WriteFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.OpenFile(gpath, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gf.Close() })
	vf, err := CreateValueFile(filepath.Join(dir, "v.gpvf"), gf, prog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vf.Close() })
	return gf, &vertexFileHandle{vf}
}

// TestCancelBetweenSuperstepsStopsCleanly cancels from the Progress hook
// — i.e. right after a commit — and expects the clean-stop path: no
// rollback needed, the file sealed at the superstep that just committed.
func TestCancelBetweenSuperstepsStopsCleanly(t *testing.T) {
	g := chainGraph(t, 60)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Dispatchers: 1, Computers: 1, Progress: func(st StepStats) {
		if st.Step == 1 {
			cancel()
		}
	}}
	gf, vh := cancelSetup(t, g, ccProg{}, cfg)
	eng, err := New(gf, vh.vf, ccProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := metrics.Counter(metrics.CtrRunsCancelled)
	res, err := eng.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled before superstep") {
		t.Fatalf("error %q does not name the clean-stop path", err)
	}
	if metrics.Counter(metrics.CtrRunsCancelled) != cancelled+1 {
		t.Fatal("cancelled-runs counter not incremented")
	}
	if res.Supersteps != 2 {
		t.Fatalf("ran %d supersteps before honoring the cancel, want 2", res.Supersteps)
	}
	if vh.vf.InProgress() {
		t.Fatal("file not sealed clean after between-superstep cancel")
	}
	if vh.vf.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", vh.vf.Epoch())
	}
	vh.resumeAndCompare(t, gf, g)
}

// TestCancelMidSuperstepRollsBack wedges the computing worker with a
// stall injection and cancels while superstep 0 is in flight: the engine
// must tear the crew down, roll the superstep back, and leave the file
// sealed clean at epoch 0 — then a resumed run must still produce the
// uninterrupted result.
func TestCancelMidSuperstepRollsBack(t *testing.T) {
	g := chainGraph(t, 60)
	fault.Activate(fault.NewPlan(0, fault.Injection{
		Site: fault.SiteComputerStall, Count: -1, Delay: 10 * time.Millisecond,
	}))
	defer fault.Deactivate()

	cfg := Config{Dispatchers: 1, Computers: 1}
	gf, vh := cancelSetup(t, g, ccProg{}, cfg)
	eng, err := New(gf, vh.vf, ccProg{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	rollbacks := metrics.Counter(metrics.CtrStepRollbacks)
	_, err = eng.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled and rolled back") {
		t.Fatalf("error %q does not name the rollback path", err)
	}
	if metrics.Counter(metrics.CtrStepRollbacks) != rollbacks+1 {
		t.Fatal("rollback counter not incremented")
	}
	if vh.vf.InProgress() {
		t.Fatal("file not sealed clean after mid-superstep cancel")
	}
	if vh.vf.Epoch() != 0 {
		t.Fatalf("epoch = %d after rolled-back superstep 0, want 0", vh.vf.Epoch())
	}
	fault.Deactivate()
	vh.resumeAndCompare(t, gf, g)
}

// TestCancelBeforeRunStartsIsImmediate: a context cancelled before
// RunContext runs a single superstep stops on the spot.
func TestCancelBeforeRunStartsIsImmediate(t *testing.T) {
	g := chainGraph(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, vf := setup(t, g, ccProg{}, Config{Dispatchers: 1, Computers: 1})
	res, err := eng.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res.Supersteps != 0 || vf.Epoch() != 0 || vf.InProgress() {
		t.Fatalf("pre-cancelled run touched the file: steps=%d epoch=%d inProgress=%v",
			res.Supersteps, vf.Epoch(), vf.InProgress())
	}
}

// TestConcurrentCancelDuringCommitRace fires cancellations at randomized
// offsets so they race the commit path; run under -race (make check) it
// doubles as the S3 data-race check for cancel-during-commit. Whatever
// instant the cancel lands at, the file must seal clean and a resumed
// run must converge to the uninterrupted result.
func TestConcurrentCancelDuringCommitRace(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-looped cancel test")
	}
	g := chainGraph(t, 40)
	for i := 0; i < 6; i++ {
		delay := time.Duration(i) * 3 * time.Millisecond
		func() {
			cfg := Config{Dispatchers: 1, Computers: 2}
			gf, vh := cancelSetup(t, g, ccProg{}, cfg)
			eng, err := New(gf, vh.vf, ccProg{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			_, err = eng.RunContext(ctx)
			cancel()
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("delay %v: unexpected error %v", delay, err)
			}
			if vh.vf.InProgress() {
				t.Fatalf("delay %v: file left in progress", delay)
			}
			vh.resumeAndCompare(t, gf, g)
		}()
	}
}

// vertexFileHandle bundles the resume-and-verify epilogue the cancel
// tests share: finish the computation with a fresh engine and compare
// every payload against the uninterrupted serial reference.
type vertexFileHandle struct{ vf *vertexfile.File }

func (h *vertexFileHandle) resumeAndCompare(t *testing.T, gf *graph.File, g *graph.CSR) {
	t.Helper()
	eng, err := New(gf, h.vf, ccProg{}, Config{Dispatchers: 1, Computers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("resumed run did not converge")
	}
	want := refRun(g, ccProg{}, nil, DefaultMaxSupersteps)
	for v := int64(0); v < g.NumVertices; v++ {
		if got := h.vf.Value(v); got != want[v] {
			t.Fatalf("vertex %d = %d after resume, want %d", v, got, want[v])
		}
	}
}
