package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// pagerank, bfs and cc are small local copies of the vertex programs (the
// real ones live in internal/algorithms, which imports this package).

type prProg struct{}

func (prProg) Init(v int64) (uint64, bool) { return math.Float64bits(1), true }
func (prProg) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	if deg == 0 {
		return 0, false
	}
	return math.Float64bits(math.Float64frombits(payload) / float64(deg)), true
}
func (prProg) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	m := math.Float64frombits(msg)
	if first {
		return math.Float64bits(0.15 + 0.85*m), true
	}
	return math.Float64bits(math.Float64frombits(cur) + 0.85*m), true
}
func (prProg) CombineMsg(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

type bfsProg struct{ root graph.VertexID }

func (b bfsProg) Init(v int64) (uint64, bool) {
	if v == int64(b.root) {
		return 0, true
	}
	return vertexfile.PayloadMask, false
}
func (bfsProg) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	return payload + 1, true
}
func (bfsProg) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	if msg < cur {
		return msg, true
	}
	return cur, false
}
func (bfsProg) CombineMsg(a, b uint64) uint64 { return min(a, b) }

type ccProg struct{}

func (ccProg) Init(v int64) (uint64, bool) { return uint64(v), true }
func (ccProg) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	return payload, true
}
func (ccProg) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	if msg < cur {
		return msg, true
	}
	return cur, false
}
func (ccProg) CombineMsg(a, b uint64) uint64 { return min(a, b) }

// setup writes g to disk and creates a value file for prog, returning an
// engine ready to run.
func setup(t testing.TB, g *graph.CSR, prog Program, cfg Config) (*Engine, *vertexfile.File) {
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
	eng, err := New(gf, vf, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, vf
}

func randomGraph(t testing.TB, seed int64, v int64, e int) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, e)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(rng.Int63n(v)), Dst: graph.VertexID(rng.Int63n(v))}
	}
	g, err := graph.FromEdges(edges, v, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refRun is a deterministic serial executor with engine semantics (a
// folding variant of algorithms.ReferenceRun, local to avoid an import
// cycle): the messages one interval of ivs sends to one destination fold
// with CombineMsg in generation order, and each destination applies the
// combined messages in ascending interval — which is what the slab path
// delivers, bit for bit, when its dispatchers scan ivs (Engine.intervals),
// whatever the number of computers. nil ivs is a single interval. For
// min-folds it is indistinguishable from applying every message.
func refRun(g *graph.CSR, p Program, ivs []graph.Interval, maxSteps int) []uint64 {
	n := g.NumVertices
	vals := make([]uint64, n)
	active := make([]bool, n)
	upd := make([]uint64, n)
	touched := make([]bool, n)
	acc := make([]uint64, n)
	present := make([]bool, n)
	for v := int64(0); v < n; v++ {
		vals[v], active[v] = p.Init(v)
	}
	var updates int64
	// apply hands each destination the interval's combined message: cur
	// is the previous superstep's value at the vertex's first one.
	apply := func() {
		for d := int64(0); d < n; d++ {
			if !present[d] {
				continue
			}
			present[d] = false
			first, cur := !touched[d], vals[d]
			if !first {
				cur = upd[d]
			}
			if nv, changed := p.Compute(d, cur, acc[d], first); changed {
				upd[d], touched[d] = nv, true
				updates++
			}
		}
	}
	for s := 0; s < maxSteps; s++ {
		var msgs int64
		updates = 0
		clear(touched)
		k := 0
		for v := int64(0); v < n; v++ {
			for ; k < len(ivs) && v >= ivs[k].EndVertex; k++ {
				apply()
			}
			if !active[v] {
				continue
			}
			deg := g.OutDegree(graph.VertexID(v))
			ws := g.EdgeWeights(graph.VertexID(v))
			for i, dst := range g.Neighbors(graph.VertexID(v)) {
				var w float32
				if ws != nil {
					w = ws[i]
				}
				mv, send := p.GenMsg(v, vals[v], deg, dst, w)
				if !send {
					continue
				}
				msgs++
				if present[dst] {
					acc[dst] = p.CombineMsg(acc[dst], mv)
				} else {
					acc[dst], present[dst] = mv, true
				}
			}
		}
		apply()
		for v := int64(0); v < n; v++ {
			active[v] = touched[v]
			if touched[v] {
				vals[v] = upd[v]
			}
		}
		if msgs == 0 && updates == 0 {
			break
		}
	}
	return vals
}

func TestEngineBFSMatchesReference(t *testing.T) {
	g := randomGraph(t, 1, 300, 1200)
	eng, vf := setup(t, g, bfsProg{root: 0}, Config{Dispatchers: 3, Computers: 4})
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("BFS did not converge in %d supersteps", res.Supersteps)
	}
	want := refRun(g, bfsProg{root: 0}, nil, 100)
	for v := int64(0); v < g.NumVertices; v++ {
		if got := vf.Value(v); got != want[v]&vertexfile.PayloadMask {
			t.Fatalf("vertex %d: level %d, want %d", v, got, want[v])
		}
	}
}

func TestEngineCCMatchesReference(t *testing.T) {
	g := randomGraph(t, 2, 200, 500).Symmetrize()
	eng, vf := setup(t, g, ccProg{}, Config{Dispatchers: 2, Computers: 3})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("CC did not converge")
	}
	want := refRun(g, ccProg{}, nil, 100)
	for v := int64(0); v < g.NumVertices; v++ {
		if got := vf.Value(v); got != want[v] {
			t.Fatalf("vertex %d: label %d, want %d", v, got, want[v])
		}
	}
}

func TestEnginePageRankMatchesReference(t *testing.T) {
	g := randomGraph(t, 3, 150, 900)
	const steps = 5
	eng, vf := setup(t, g, prProg{}, Config{MaxSupersteps: steps, Dispatchers: 2, Computers: 2})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != steps {
		t.Fatalf("ran %d supersteps, want %d", res.Supersteps, steps)
	}
	want := refRun(g, prProg{}, eng.intervals, steps)
	for v := int64(0); v < g.NumVertices; v++ {
		if got, ref := vf.Value(v), want[v]&vertexfile.PayloadMask; got != ref {
			t.Fatalf("vertex %d: rank %g, want %g", v, math.Float64frombits(got), math.Float64frombits(ref))
		}
	}
}

func TestEngineSequentialPhasesAblation(t *testing.T) {
	g := randomGraph(t, 4, 120, 700)
	want := refRun(g, ccProg{}, nil, 100)
	eng, vf := setup(t, g.Symmetrize(), ccProg{}, Config{SequentialPhases: true})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want = refRun(g.Symmetrize(), ccProg{}, nil, 100)
	for v := int64(0); v < g.NumVertices; v++ {
		if got := vf.Value(v); got != want[v] {
			t.Fatalf("sequential mode: vertex %d = %d, want %d", v, got, want[v])
		}
	}
}

func TestEngineSingleWorkerEachRole(t *testing.T) {
	g := randomGraph(t, 5, 80, 300)
	eng, vf := setup(t, g, bfsProg{root: 7}, Config{Dispatchers: 1, Computers: 1})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := refRun(g, bfsProg{root: 7}, nil, 100)
	for v := int64(0); v < g.NumVertices; v++ {
		if vf.Value(v) != want[v]&vertexfile.PayloadMask {
			t.Fatalf("vertex %d mismatch", v)
		}
	}
}

func TestEngineManyWorkers(t *testing.T) {
	g := randomGraph(t, 6, 64, 400)
	eng, vf := setup(t, g, ccProg{}, Config{Dispatchers: 16, Computers: 16})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := refRun(g, ccProg{}, nil, 100)
	for v := int64(0); v < g.NumVertices; v++ {
		if vf.Value(v) != want[v] {
			t.Fatalf("vertex %d mismatch", v)
		}
	}
}

func TestEngineEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(nil, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := setup(t, g, ccProg{}, Config{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Messages != 0 {
		t.Fatalf("empty graph: converged=%v messages=%d", res.Converged, res.Messages)
	}
}

func TestEngineDisconnectedBFSLeavesUnreached(t *testing.T) {
	g, err := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	eng, vf := setup(t, g, bfsProg{root: 0}, Config{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if vf.Value(1) != 1 {
		t.Fatalf("vertex 1 level = %d, want 1", vf.Value(1))
	}
	if vf.Value(2) != vertexfile.PayloadMask || vf.Value(3) != vertexfile.PayloadMask {
		t.Fatal("vertices in the other component were reached")
	}
}

func TestEngineStatsAccounting(t *testing.T) {
	// A 3-chain: 0->1->2. BFS from 0 sends 1 message per superstep for 2
	// supersteps, then a silent superstep to detect convergence.
	g, err := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	var progressed int
	cfg := Config{Progress: func(StepStats) { progressed++ }}
	eng, _ := setup(t, g, bfsProg{root: 0}, cfg)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 || res.Updates != 2 {
		t.Fatalf("messages=%d updates=%d, want 2 and 2", res.Messages, res.Updates)
	}
	if res.Supersteps != 3 || !res.Converged {
		t.Fatalf("supersteps=%d converged=%v", res.Supersteps, res.Converged)
	}
	if progressed != res.Supersteps {
		t.Fatalf("progress callback ran %d times, want %d", progressed, res.Supersteps)
	}
	if len(res.Steps) != res.Supersteps {
		t.Fatalf("len(Steps) = %d", len(res.Steps))
	}
	if res.Steps[0].Messages != 1 || res.Steps[1].Messages != 1 || res.Steps[2].Messages != 0 {
		t.Fatalf("per-step messages = %+v", res.Steps)
	}
}

func TestEngineRunContinues(t *testing.T) {
	// Running PageRank 2 + 3 supersteps in two calls must equal a single
	// 5-superstep run.
	g := randomGraph(t, 8, 60, 240)
	engA, vfA := setup(t, g, prProg{}, Config{MaxSupersteps: 2})
	if _, err := engA.Run(); err != nil {
		t.Fatal(err)
	}
	engA.cfg.MaxSupersteps = 3
	if _, err := engA.Run(); err != nil {
		t.Fatal(err)
	}
	engB, vfB := setup(t, g, prProg{}, Config{MaxSupersteps: 5})
	if _, err := engB.Run(); err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		a := math.Float64frombits(vfA.Value(v))
		b := math.Float64frombits(vfB.Value(v))
		if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
			t.Fatalf("vertex %d: split run %g, single run %g", v, a, b)
		}
	}
}

func TestEngineCrashRecovery(t *testing.T) {
	// Run CC normally to get the expected answer; then crash an identical
	// run mid-flight, recover, finish, and compare.
	g := randomGraph(t, 9, 150, 600).Symmetrize()
	engRef, vfRef := setup(t, g, ccProg{}, Config{})
	if _, err := engRef.Run(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.gpsa")
	if err := graph.WriteFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.OpenFile(gpath, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	vpath := filepath.Join(dir, "v.gpvf")
	vf, err := CreateValueFile(vpath, gf, ccProg{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(gf, vf, ccProg{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(fault.NewPlan(0, fault.Injection{Site: fault.SiteStepCrash, After: 2}))
	defer fault.Deactivate()
	if _, err := eng.Run(); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("Run = %v, want injected crash", err)
	}
	fault.Deactivate()
	if err := vf.Close(); err != nil { // simulate process death
		t.Fatal(err)
	}

	vf2, err := vertexfile.Open(vpath)
	if err != nil {
		t.Fatal(err)
	}
	defer vf2.Close()
	if !vf2.InProgress() {
		t.Fatal("crashed value file not in progress")
	}
	if _, err := vf2.Recover(); err != nil {
		t.Fatal(err)
	}
	eng2, err := New(gf, vf2, ccProg{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if vf2.Value(v) != vfRef.Value(v) {
			t.Fatalf("vertex %d after recovery: %d, want %d", v, vf2.Value(v), vfRef.Value(v))
		}
	}
}

func TestEngineProgramPanicSurfaces(t *testing.T) {
	g := randomGraph(t, 10, 40, 160)
	eng, _ := setup(t, g, panicProg{}, Config{})
	_, err := eng.Run()
	if err == nil {
		t.Fatal("Run with panicking program succeeded")
	}
}

type panicProg struct{}

func (panicProg) Init(v int64) (uint64, bool) { return 0, true }
func (panicProg) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	panic("genmsg exploded")
}
func (panicProg) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	return 0, false
}
func (panicProg) CombineMsg(a, b uint64) uint64 { return a }

func TestNewRejectsMismatchedFiles(t *testing.T) {
	g := randomGraph(t, 11, 10, 20)
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.gpsa")
	if err := graph.WriteFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.OpenFile(gpath, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	vf, err := vertexfile.Create(filepath.Join(dir, "v.gpvf"), 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	if _, err := New(gf, vf, ccProg{}, Config{}); err == nil {
		t.Fatal("New accepted mismatched vertex counts")
	}
	if _, err := New(gf, vf, nil, Config{}); err == nil {
		t.Fatal("New accepted nil program")
	}
}

// Property: for random graphs and random worker configurations, the
// concurrent engine computes exactly the reference CC labels.
func TestEngineEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	fn := func(seed int64, vRaw, eRaw, dRaw, cRaw uint8) bool {
		v := int64(vRaw%50) + 2
		e := int(eRaw) * 2
		g := randomGraph(t, seed, v, e).Symmetrize()
		cfg := Config{
			Dispatchers: int(dRaw%4) + 1,
			Computers:   int(cRaw%4) + 1,
		}
		eng, vf := setup(t, g, ccProg{}, cfg)
		if _, err := eng.Run(); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		want := refRun(g, ccProg{}, nil, 100)
		for x := int64(0); x < v; x++ {
			if vf.Value(x) != want[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryAtEverySuperstep injects a crash after the dispatch
// phase of each superstep in turn, recovers, finishes the run, and
// verifies the result always equals an uninterrupted run — the paper's
// fault-tolerance claim, exhaustively.
func TestCrashRecoveryAtEverySuperstep(t *testing.T) {
	g := randomGraph(t, 60, 120, 500).Symmetrize()
	engRef, vfRef := setup(t, g, ccProg{}, Config{})
	resRef, err := engRef.Run()
	if err != nil {
		t.Fatal(err)
	}
	for crashAt := int64(0); crashAt < int64(resRef.Supersteps); crashAt++ {
		dir := t.TempDir()
		gpath := filepath.Join(dir, "g.gpsa")
		if err := graph.WriteFile(gpath, g); err != nil {
			t.Fatal(err)
		}
		gf, err := graph.OpenFile(gpath, mmap.ModeAuto)
		if err != nil {
			t.Fatal(err)
		}
		vpath := filepath.Join(dir, "v.gpvf")
		vf, err := CreateValueFile(vpath, gf, ccProg{})
		if err != nil {
			gf.Close()
			t.Fatal(err)
		}
		eng, err := New(gf, vf, ccProg{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// The crash site is consulted once per superstep, so hit crashAt+1
		// fires after the dispatch phase of superstep crashAt.
		fault.Activate(fault.NewPlan(0, fault.Injection{Site: fault.SiteStepCrash, After: crashAt + 1}))
		if _, err := eng.Run(); !errors.Is(err, ErrCrashInjected) {
			t.Fatalf("crashAt %d: Run = %v, want injected crash", crashAt, err)
		}
		fault.Deactivate()
		vf.Close()

		vf2, err := vertexfile.Open(vpath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vf2.Recover(); err != nil {
			t.Fatal(err)
		}
		eng2, err := New(gf, vf2, ccProg{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng2.Run(); err != nil {
			t.Fatal(err)
		}
		for v := int64(0); v < g.NumVertices; v++ {
			if vf2.Value(v) != vfRef.Value(v) {
				t.Fatalf("crashAt %d: vertex %d = %d, want %d", crashAt, v, vf2.Value(v), vfRef.Value(v))
			}
		}
		vf2.Close()
		gf.Close()
	}
}

// slowProg wedges inside GenMsg; the watchdog must abort the run instead
// of hanging the manager.
type slowProg struct{ d time.Duration }

func (s slowProg) Init(v int64) (uint64, bool) { return 0, true }
func (s slowProg) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	time.Sleep(s.d)
	return 0, true
}
func (s slowProg) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	return msg, true
}
func (s slowProg) CombineMsg(a, b uint64) uint64 { return b }

func TestSuperstepWatchdogAbortsWedgedRun(t *testing.T) {
	g := randomGraph(t, 61, 30, 60)
	eng, _ := setup(t, g, slowProg{d: 200 * time.Millisecond}, Config{
		SuperstepTimeout: 30 * time.Millisecond,
		Dispatchers:      1,
		Computers:        1,
	})
	start := time.Now()
	_, err := eng.Run()
	if err == nil {
		t.Fatal("wedged run completed without error")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("error = %v, want watchdog", err)
	}
	// The abort flag unwinds the dispatcher at the next vertex, so the
	// whole run must finish far sooner than streaming all 60 edges at
	// 200ms of GenMsg each (~12s).
	if time.Since(start) > 5*time.Second {
		t.Fatalf("watchdog abort took %v", time.Since(start))
	}
}

func TestWatchdogDisabledByDefault(t *testing.T) {
	g := randomGraph(t, 62, 80, 300)
	eng, _ := setup(t, g, bfsProg{root: 0}, Config{})
	if _, err := eng.Run(); err != nil {
		t.Fatalf("normal run failed: %v", err)
	}
}

// A computer applies slabs in dispatcher order and must hear from every
// dispatcher each superstep: one that reaches the barrier short of that
// fails typed instead of acking a partial apply.
func TestComputerMissingSlabFailsTyped(t *testing.T) {
	eng, _ := setup(t, randomGraph(t, 5, 50, 200), ccProg{}, Config{Dispatchers: 2, Computers: 1})
	eng.runCtx = context.Background()
	eng.spawn()
	defer eng.teardown() //nolint:errcheck
	if err := eng.toApply[0].Put(workerMsg{kind: kindComputeOver, step: 0}); err != nil {
		t.Fatal(err)
	}
	m, ok := eng.toManager.Get()
	var me *missingSlabsError
	if !ok || m.kind != kindFailed || !errors.As(m.err, &me) || me.applied != 0 || me.dispatchers != 2 {
		t.Fatalf("barrier without slabs: got %v %v, want a kindFailed *missingSlabsError (0 of 2)", m.kind, m.err)
	}
}
