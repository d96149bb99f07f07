package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// The production retry backoff (25ms, doubling) would dominate these
// suites' wall time without changing what they check.
func init() { stepRetryBackoff = time.Millisecond }

// runWithPlan executes prog over g under cfg with plan armed, deactivating
// injection before returning.
func runWithPlan(t *testing.T, g *graph.CSR, prog Program, cfg Config, plan *fault.Plan) (*Result, []uint64, error) {
	t.Helper()
	eng, vf := setup(t, g, prog, cfg)
	fault.Activate(plan)
	defer fault.Deactivate()
	res, err := eng.Run()
	fault.Deactivate()
	vals := make([]uint64, g.NumVertices)
	for v := int64(0); v < g.NumVertices; v++ {
		vals[v] = vf.Value(v)
	}
	return res, vals, err
}

// compareRuns asserts that an injected-and-recovered run produced exactly
// the reference run's per-superstep digests and final values.
func compareRuns(t *testing.T, ref, got *Result, refVals, gotVals []uint64) {
	t.Helper()
	if got.Supersteps != ref.Supersteps {
		t.Fatalf("recovered run took %d supersteps, reference %d", got.Supersteps, ref.Supersteps)
	}
	for i := range ref.Steps {
		if got.Steps[i].Digest != ref.Steps[i].Digest {
			t.Fatalf("superstep %d digest %#x, reference %#x", i, got.Steps[i].Digest, ref.Steps[i].Digest)
		}
	}
	for v := range refVals {
		if gotVals[v] != refVals[v] {
			t.Fatalf("vertex %d = %#x, reference %#x", v, gotVals[v], refVals[v])
		}
	}
}

// TestRecoveryComputerPanic kills a computing worker mid-superstep (on its
// Nth applied message) and requires the supervised retry path to roll the
// superstep back and re-execute it, ending with results bit-identical to
// an uninjected run.
func TestRecoveryComputerPanic(t *testing.T) {
	g := randomGraph(t, 70, 300, 1200)
	cfg := Config{Dispatchers: 2, Computers: 3, Digests: true}

	ref, refVals, err := runWithPlan(t, g, bfsProg{root: 0}, cfg, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cfg.MaxStepRetries = 3
	plan := fault.NewPlan(0, fault.Injection{Site: fault.SiteComputerMsg, After: 17})
	res, vals, err := runWithPlan(t, g, bfsProg{root: 0}, cfg, plan)
	if err != nil {
		t.Fatalf("injected run did not recover: %v", err)
	}
	if plan.Fired(fault.SiteComputerMsg) == 0 {
		t.Fatal("computer panic never fired; test exercised nothing")
	}
	if res.Retries == 0 {
		t.Fatal("run recovered without recording a retry")
	}
	compareRuns(t, ref, res, refVals, vals)
}

// TestRecoveryDispatcherPanic does the same for a dispatcher dying on its
// Nth generated message, while computers are concurrently applying the
// partial message stream that must be rolled back.
func TestRecoveryDispatcherPanic(t *testing.T) {
	g := randomGraph(t, 71, 200, 800).Symmetrize()
	cfg := Config{Dispatchers: 3, Computers: 2, Digests: true}

	ref, refVals, err := runWithPlan(t, g, ccProg{}, cfg, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cfg.MaxStepRetries = 2
	plan := fault.NewPlan(0, fault.Injection{Site: fault.SiteDispatcherMsg, After: 40})
	res, vals, err := runWithPlan(t, g, ccProg{}, cfg, plan)
	if err != nil {
		t.Fatalf("injected run did not recover: %v", err)
	}
	if plan.Fired(fault.SiteDispatcherMsg) == 0 {
		t.Fatal("dispatcher panic never fired")
	}
	if res.Retries == 0 {
		t.Fatal("run recovered without recording a retry")
	}
	compareRuns(t, ref, res, refVals, vals)
}

// TestRecoveryTornCommit tears the header mid-commit (checksum corrupted,
// state still running) and requires in-process rollback plus retry to
// produce a PageRank run bit-identical to the uninjected one. A single
// dispatcher makes the float message order — and therefore the digests —
// deterministic.
func TestRecoveryTornCommit(t *testing.T) {
	g := randomGraph(t, 72, 150, 900)
	cfg := Config{Dispatchers: 1, Computers: 2, MaxSupersteps: 6, Digests: true}

	ref, refVals, err := runWithPlan(t, g, prProg{}, cfg, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cfg.MaxStepRetries = 2
	plan := fault.NewPlan(0, fault.Injection{Site: fault.SiteCommitTorn, After: 2})
	res, vals, err := runWithPlan(t, g, prProg{}, cfg, plan)
	if err != nil {
		t.Fatalf("injected run did not recover: %v", err)
	}
	if plan.Fired(fault.SiteCommitTorn) != 1 {
		t.Fatalf("torn commit fired %d times, want 1", plan.Fired(fault.SiteCommitTorn))
	}
	if res.Retries != 1 {
		t.Fatalf("res.Retries = %d, want 1", res.Retries)
	}
	compareRuns(t, ref, res, refVals, vals)
}

// TestRecoveryRetriesExhausted arms a fault that fires on every hit: the
// supervised engine must give up after exactly MaxStepRetries retries and
// surface a superstep-labelled error instead of looping forever.
func TestRecoveryRetriesExhausted(t *testing.T) {
	g := randomGraph(t, 73, 100, 400)
	cfg := Config{Dispatchers: 2, Computers: 2, MaxStepRetries: 2}
	plan := fault.NewPlan(0, fault.Injection{Site: fault.SiteComputerMsg, Count: -1})
	res, _, err := runWithPlan(t, g, bfsProg{root: 0}, cfg, plan)
	if err == nil {
		t.Fatal("run with a permanent fault succeeded")
	}
	if !strings.Contains(err.Error(), "superstep") {
		t.Fatalf("error = %v, want superstep-labelled", err)
	}
	if res.Retries != 2 {
		t.Fatalf("res.Retries = %d, want 2", res.Retries)
	}
}

// stallCompute wedges inside Compute, so with buffered (sequential) phases
// the stall lands squarely in the compute barrier.
type stallCompute struct{ d time.Duration }

func (s stallCompute) Init(v int64) (uint64, bool) { return 0, true }
func (s stallCompute) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	return payload + 1, true
}
func (s stallCompute) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	time.Sleep(s.d)
	return msg, true
}
func (s stallCompute) CombineMsg(a, b uint64) uint64 { return b }

// TestWatchdogComputeBarrierStall wedges a computing worker during the
// compute barrier; the GetTimeout-based watchdog must abort the run with
// an error labelled with that phase.
func TestWatchdogComputeBarrierStall(t *testing.T) {
	g := randomGraph(t, 74, 40, 80)
	eng, _ := setup(t, g, stallCompute{d: 25 * time.Millisecond}, Config{
		SuperstepTimeout: 40 * time.Millisecond,
		SequentialPhases: true,
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
	if !strings.Contains(err.Error(), "compute barrier") {
		t.Fatalf("error = %v, want compute barrier phase label", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("watchdog abort took %v", time.Since(start))
	}
}

// TestRecoveryAfterWatchdog pairs the watchdog with supervised retries: a
// transiently wedged worker times the superstep out, and the retry path
// re-executes it successfully.
func TestRecoveryAfterWatchdog(t *testing.T) {
	g := randomGraph(t, 75, 60, 240)
	cfg := Config{
		SuperstepTimeout: 250 * time.Millisecond,
		MaxStepRetries:   3,
		Dispatchers:      1,
		Computers:        1,
		Digests:          true,
	}
	ref, refVals, err := runWithPlan(t, g, bfsProg{root: 0}, cfg, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	// One injected 2s stall in a computer message wedges the superstep past
	// the 250ms watchdog exactly once; the retry must succeed.
	plan := fault.NewPlan(0, fault.Injection{Site: fault.SiteComputerStall, After: 5, Delay: 2 * time.Second})
	res, vals, err := runWithPlan(t, g, bfsProg{root: 0}, cfg, plan)
	if err != nil {
		t.Fatalf("injected run did not recover: %v", err)
	}
	if plan.Fired(fault.SiteComputerStall) == 0 {
		t.Fatal("computer stall never fired")
	}
	if res.Retries == 0 {
		t.Fatal("run recovered without recording a retry")
	}
	compareRuns(t, ref, res, refVals, vals)
}

// TestSlabResetOnRetry covers supervised retry on the slab path with a
// sum fold, where a leaked partial sum changes the result instead of
// being absorbed by a min. A dispatcher panic mid-interval leaves its
// slabs partly filled; a computer panic mid-BulkApply leaves a slab
// unreset. The retry must start from the empty slabs spawn resets and
// end bit-identical to an uninjected run (one dispatcher: deterministic
// float digests).
func TestSlabResetOnRetry(t *testing.T) {
	g := randomGraph(t, 74, 300, 2400)
	cfg := Config{Dispatchers: 1, Computers: 2, MaxSupersteps: 5, Digests: true}
	ref, refVals, err := runWithPlan(t, g, prProg{}, cfg, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	cfg.MaxStepRetries = 2
	// Both land in superstep 1: it generates messages 2401..4800 and
	// applies entries 301..600 at most.
	for _, tc := range []struct {
		name, site string
		after      int64
	}{
		{"dispatcher", fault.SiteDispatcherMsg, 3000},
		{"computer", fault.SiteComputerMsg, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := fault.NewPlan(0, fault.Injection{Site: tc.site, After: tc.after})
			res, vals, err := runWithPlan(t, g, prProg{}, cfg, plan)
			if err != nil {
				t.Fatalf("injected run did not recover: %v", err)
			}
			if plan.Fired(tc.site) == 0 {
				t.Fatalf("%s never fired; test exercised nothing", tc.site)
			}
			if res.Retries == 0 {
				t.Fatal("run recovered without recording a retry")
			}
			compareRuns(t, ref, res, refVals, vals)
		})
	}
}
