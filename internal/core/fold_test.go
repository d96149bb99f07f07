package core_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// TestFoldKernelsMatchCombineMsg pins each library program's declared
// kernel against the CombineMsg it replaces on every pair of the probe
// table, and the programs whose message reads dst or weight, or whose
// combiner is no kernel, to the per-edge path.
func TestFoldKernelsMatchCombineMsg(t *testing.T) {
	for _, c := range []struct {
		prog core.Program
		want core.Fold
	}{
		{algorithms.PageRank{}, core.FoldSumFloat64},
		{algorithms.DeltaPageRank{}, core.FoldSumFloat64},
		{algorithms.BFS{}, core.FoldMinUint64},
		{algorithms.ConnectedComponents{}, core.FoldMinUint64},
		{algorithms.ReachSet{}, core.FoldOrUint64},
		{algorithms.SSSP{}, core.FoldPerEdge},
		{algorithms.LabelPropagation{}, core.FoldPerEdge},
		{algorithms.InDegree{}, core.FoldPerEdge},
	} {
		got := core.FoldPerEdge
		if f, ok := c.prog.(interface{ Fold() core.Fold }); ok {
			got = f.Fold()
		}
		if got != c.want {
			t.Errorf("%T declares fold %d, want %d", c.prog, got, c.want)
			continue
		}
		if got == core.FoldPerEdge {
			continue
		}
		for _, a := range core.FoldProbes {
			for _, b := range core.FoldProbes {
				if k, m := got.Combine(a, b), c.prog.CombineMsg(a, b); k != m {
					t.Fatalf("%T: kernel(%#x, %#x) = %#x, CombineMsg %#x", c.prog, a, b, k, m)
				}
			}
		}
	}
	for _, w := range []uint64{0, 1 << 63, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), 1, math.MaxUint64} {
		found := false
		for _, p := range core.FoldProbes {
			found = found || p == w
		}
		if !found {
			t.Errorf("probe table lacks %#x", w)
		}
	}
}

// float32Sum embeds PageRank, inheriting its Fold, but rounds every
// combined message to float32: the float64-sum kernel no longer matches.
type float32Sum struct{ algorithms.PageRank }

func (float32Sum) CombineMsg(a, b uint64) uint64 {
	return math.Float64bits(float64(float32(math.Float64frombits(a) + math.Float64frombits(b))))
}

// noKernel declares a fold the dispatcher has no kernel for.
type noKernel struct{ algorithms.BFS }

func (noKernel) Fold() core.Fold { return core.FoldOrUint64 + 1 }

// maxLevel overrides both CombineMsg and the declaration: it runs per
// edge, and is accepted.
type maxLevel struct{ algorithms.BFS }

func (maxLevel) CombineMsg(a, b uint64) uint64 { return max(a, b) }
func (maxLevel) Fold() core.Fold               { return core.FoldPerEdge }

// TestFoldMismatchIsConstructionError: both constructors that build a
// crew, the engine's and a cluster node's, refuse a program whose
// declared fold its own CombineMsg does not match, with a typed error.
func TestFoldMismatchIsConstructionError(t *testing.T) {
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 64, Edges: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gpsa")
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	for i, prog := range []core.Program{float32Sum{}, noKernel{}, maxLevel{}} {
		vf, err := vertexfile.Create(filepath.Join(dir, fmt.Sprintf("v%d.gpvf", i)), gf.NumVertices, prog.Init)
		if err != nil {
			t.Fatal(err)
		}
		defer vf.Close()
		_, engErr := core.New(gf, vf, prog, core.Config{Dispatchers: 2, Computers: 1})
		_, nodeErr := core.NewNodeCrew(gf, vf, prog, gf.Partition(2), nil, nil)
		if _, ok := prog.(maxLevel); ok {
			if engErr != nil || nodeErr != nil {
				t.Fatalf("%T: New: %v, NewNodeCrew: %v; want both accepted", prog, engErr, nodeErr)
			}
			continue
		}
		if !errors.Is(engErr, core.ErrFoldMismatch) || !errors.Is(nodeErr, core.ErrFoldMismatch) {
			t.Fatalf("%T: New: %v, NewNodeCrew: %v; want ErrFoldMismatch from both", prog, engErr, nodeErr)
		}
	}
}
