package crashtest

import (
	"errors"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// writeRegressionGraph generates one of the regression inputs.
func writeRegressionGraph(t *testing.T, dir, name string, weighted, symmetrize bool) string {
	t.Helper()
	edges, err := gen.ErdosRenyi(200, 900, 7, weighted)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(edges, 200, weighted)
	if err != nil {
		t.Fatal(err)
	}
	if symmetrize {
		g = g.Symmetrize()
	}
	path := filepath.Join(dir, name)
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestKillAtSuperstepResumeBitIdentical is the in-process half of the
// torture contract, covering every shipped algorithm: a run "killed" at
// superstep 1 (via the step-crash fault site, which fails the run
// without committing or rolling back — the process-death model) must,
// after Resume, finish with exactly the payloads of an uninterrupted
// run, bit for bit, including the float-valued order-sensitive programs.
func TestKillAtSuperstepResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	directed := writeRegressionGraph(t, dir, "directed.gpsa", false, false)
	symmetric := writeRegressionGraph(t, dir, "symmetric.gpsa", false, true)
	weighted := writeRegressionGraph(t, dir, "weighted.gpsa", true, false)

	cases := []struct {
		name  string
		prog  core.Program
		graph string
		steps int
	}{
		{"pagerank", algorithms.PageRank{}, directed, 12},
		{"deltapagerank", algorithms.DeltaPageRank{}, directed, 0},
		{"bfs", algorithms.BFS{Root: 0}, directed, 0},
		{"cc", algorithms.ConnectedComponents{}, symmetric, 0},
		{"sssp", algorithms.SSSP{Source: 0}, weighted, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// The default pool: slabs apply in dispatcher order, so float
			// accumulation order — and bit-identity — is deterministic.
			opts := gpsa.RunOptions{Supersteps: tc.steps}

			baseOpts := opts
			baseOpts.ValuesPath = filepath.Join(dir, tc.name+"-base.gpvf")
			baseVals, baseRes, err := gpsa.Run(tc.graph, tc.prog, baseOpts)
			if err != nil {
				t.Fatal(err)
			}
			n := baseVals.NumVertices()
			want := make([]uint64, n)
			for v := int64(0); v < n; v++ {
				want[v] = baseVals.Raw(v)
			}
			baseVals.Close()

			// Kill at superstep 1: the step-crash site fails the run after
			// the dispatch phase with no commit and no rollback, leaving the
			// value file exactly as a SIGKILL there would.
			crashPath := filepath.Join(dir, tc.name+"-crash.gpvf")
			crashOpts := opts
			crashOpts.ValuesPath = crashPath
			fault.Activate(fault.NewPlan(0, fault.Injection{Site: fault.SiteStepCrash, After: 2}))
			_, _, err = gpsa.Run(tc.graph, tc.prog, crashOpts)
			fault.Deactivate()
			if !errors.Is(err, gpsa.ErrCrashInjected) {
				t.Fatalf("crash run error = %v, want injected crash", err)
			}

			resumes := metrics.Counter(metrics.CtrResumes)
			exacts := metrics.Counter(metrics.CtrRecoverExact)
			vals, res, err := gpsa.Resume(tc.graph, crashPath, tc.prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			if metrics.Counter(metrics.CtrResumes) != resumes+1 || metrics.Counter(metrics.CtrRecoverExact) != exacts+1 {
				t.Fatal("resume/recovery counters did not record the recovery")
			}
			defer vals.Close()
			if res.ResumedFrom != 1 || res.Recovery != "exact" {
				t.Fatalf("resumed from %d with %q recovery, want superstep 1, exact", res.ResumedFrom, res.Recovery)
			}
			if res.Converged != baseRes.Converged {
				t.Fatalf("resumed converged=%v, baseline %v", res.Converged, baseRes.Converged)
			}
			for v := int64(0); v < n; v++ {
				if got := vals.Raw(v); got != want[v] {
					t.Fatalf("vertex %d: resumed payload %#x != baseline %#x", v, got, want[v])
				}
			}
		})
	}
}
