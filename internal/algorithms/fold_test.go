package algorithms_test

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// perEdge exposes only core.Program, hiding a program's Fold: the
// engine runs it on the per-edge path.
type perEdge struct{ core.Program }

// counted counts GenMsg calls and keeps the wrapped program's Fold, so
// the engine still runs its kernel.
type counted struct {
	core.Program
	calls *atomic.Int64
}

func (c counted) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	c.calls.Add(1)
	return c.Program.GenMsg(src, payload, deg, dst, w)
}

func (c counted) Fold() core.Fold { return c.Program.(interface{ Fold() core.Fold }).Fold() }

// TestFoldKernelMatchesPerEdge runs every program that declares a Fold
// as is (GenMsg once per vertex, the kernel's loop) and behind perEdge
// (GenMsg and CombineMsg per edge), on plain, compact and weighted CSR
// at several pools, and requires equal values and per-superstep
// digests: the kernel path is an optimisation, never a result. 4×4 is
// the masked route with more than one computer, 3×2 the plain one.
// Once more per CSR, the declaring program runs under a plan armed on a
// site core never consults and must call GenMsg as often as unarmed: an
// armed plan does not move it off its kernel. Then it runs with the
// dispatcher message site armed once: the kernel books a hit per
// message, so the site fires, the superstep retries, and the result is
// unchanged.
func TestFoldKernelMatchesPerEdge(t *testing.T) {
	programs := []struct {
		name  string
		prog  core.Program
		steps int
	}{
		{"pagerank", algorithms.PageRank{}, 5},
		{"deltapagerank", algorithms.DeltaPageRank{}, 30},
		{"bfs", algorithms.BFS{Root: 0}, 100},
		{"cc", algorithms.ConnectedComponents{}, 100},
		{"reachset", algorithms.ReachSet{Sources: algorithms.SampleSources(800, 5, 3)}, 100},
	}
	dir := t.TempDir()
	csrs := map[string]string{}
	write := func(name string, weighted bool, save func(string, *graph.CSR) error) {
		g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 800, Edges: 6400, Seed: 3, Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		csrs[name] = filepath.Join(dir, name+".gpsa")
		if err := save(csrs[name], g); err != nil {
			t.Fatal(err)
		}
	}
	write("plain", false, graph.WriteFile)
	write("compact", false, graph.WriteFileCompact)
	write("weighted", true, graph.WriteFile)
	defer fault.Deactivate() // a failed armed run must not leave its plan to later tests
	for _, p := range programs {
		for enc, path := range csrs {
			for _, pool := range [][2]int{{1, 1}, {2, 1}, {3, 2}, {4, 4}} {
				cfg := core.Config{Dispatchers: pool[0], Computers: pool[1], MaxSupersteps: p.steps}
				what := fmt.Sprintf("%s %s %dx%d", p.name, enc, pool[0], pool[1])
				want, wantDig, _ := runFold(t, path, perEdge{p.prog}, cfg)
				got, gotDig, _ := runFold(t, path, p.prog, cfg)
				sameRun(t, what, got, gotDig, want, wantDig)
				if pool != [2]int{3, 2} {
					continue
				}
				var calls [2]atomic.Int64
				runFold(t, path, counted{p.prog, &calls[0]}, cfg)
				fault.Activate(fault.NewPlan(0, fault.Injection{Site: fault.SiteServeJobFail}))
				got, gotDig, _ = runFold(t, path, counted{p.prog, &calls[1]}, cfg)
				fault.Deactivate()
				sameRun(t, what+" armed elsewhere", got, gotDig, want, wantDig)
				if calls[1].Load() != calls[0].Load() {
					t.Fatalf("%s armed elsewhere: %d GenMsg calls, %d unarmed", what, calls[1].Load(), calls[0].Load())
				}
				plan := fault.NewPlan(0, fault.Injection{Site: fault.SiteDispatcherMsg, After: 50})
				fault.Activate(plan)
				cfg.MaxStepRetries = 1
				got, gotDig, res := runFold(t, path, p.prog, cfg)
				fault.Deactivate()
				if plan.Fired(fault.SiteDispatcherMsg) != 1 || res.Retries != 1 {
					t.Fatalf("%s armed: message site fired %d times, %d retries; want 1 and 1",
						what, plan.Fired(fault.SiteDispatcherMsg), res.Retries)
				}
				sameRun(t, what+" armed", got, gotDig, want, wantDig)
			}
		}
	}
}

// runFold runs prog on the engine over the CSR at path and returns the
// final payloads and the digest each superstep sealed.
func runFold(t *testing.T, path string, prog core.Program, cfg core.Config) ([]uint64, []uint64, *core.Result) {
	t.Helper()
	gf, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	vf, err := vertexfile.Create(filepath.Join(t.TempDir(), "v.gpvf"), gf.NumVertices, prog.Init)
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	eng, err := core.New(gf, vf, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]uint64, len(res.Steps))
	for i, s := range res.Steps {
		digests[i] = s.Digest
	}
	return vf.Values(), digests, res
}

func sameRun(t *testing.T, what string, got, gotDig, want, wantDig []uint64) {
	t.Helper()
	if len(gotDig) != len(wantDig) {
		t.Fatalf("%s: %d supersteps, per-edge path %d", what, len(gotDig), len(wantDig))
	}
	for i := range wantDig {
		if gotDig[i] != wantDig[i] {
			t.Fatalf("%s superstep %d: digest %#x, per-edge path %#x", what, i, gotDig[i], wantDig[i])
		}
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s vertex %d: %#x, per-edge path %#x", what, v, got[v], want[v])
		}
	}
}
