package algorithms_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro"
	"repro/internal/algorithms"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphchi"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
	"repro/internal/xstream"
)

// runGPSA executes prog on the single-machine engine and returns payloads.
func runGPSA(t *testing.T, g *graph.CSR, prog core.Program) []uint64 {
	t.Helper()
	dir := t.TempDir()
	gpath := dir + "/g.gpsa"
	if err := graph.WriteFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.OpenFile(gpath, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	vf, err := vertexfile.Create(dir+"/v.gpvf", g.NumVertices, prog.Init)
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	eng, err := core.New(gf, vf, prog, core.Config{Dispatchers: 2, Computers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return vf.Values()
}

// runXS executes prog on the X-Stream baseline.
func runXS(t *testing.T, g *graph.CSR, prog core.Program) []uint64 {
	t.Helper()
	l, err := xstream.Preprocess(g, t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := xstream.NewEngine(l, prog, xstream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Values()
}

// runCluster executes prog on the distributed engine.
func runCluster(t *testing.T, g *graph.CSR, prog core.Program) []uint64 {
	t.Helper()
	gpath := t.TempDir() + "/g.gpsa"
	if err := graph.WriteFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	_, values, err := cluster.Run(gpath, prog, cluster.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	return values
}

// TestFourEnginesAgreeOnCC is the cross-engine equivalence property: for
// random graphs, the GPSA engine, the X-Stream baseline, the distributed
// cluster, the GraphChi baseline, and the serial reference all produce
// identical component labels.
func TestFourEnginesAgreeOnCC(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	fn := func(seed int64, vRaw uint8, eRaw uint16) bool {
		v := int64(vRaw%60) + 2
		e := int64(eRaw % 500)
		base, err := gen.RMATGraph(gen.RMATConfig{Vertices: v, Edges: e, Seed: seed})
		if err != nil {
			return false
		}
		g := base.Symmetrize()
		want, _ := algorithms.ReferenceRun(g, algorithms.ConnectedComponents{}, 200)

		gpsaVals := runGPSA(t, g, algorithms.ConnectedComponents{})
		xsVals := runXS(t, g, algorithms.ConnectedComponents{})
		clVals := runCluster(t, g, algorithms.ConnectedComponents{})

		chiLayout, err := graphchi.Shard(g, t.TempDir(), 3, algorithms.ChiCC{}.EdgeInit)
		if err != nil {
			return false
		}
		chi, err := graphchi.NewEngine(chiLayout, algorithms.ChiCC{}, graphchi.Config{MaxSupersteps: 500})
		if err != nil {
			return false
		}
		if _, err := chi.Run(); err != nil {
			return false
		}

		for x := int64(0); x < v; x++ {
			w := want[x]
			if gpsaVals[x] != w || xsVals[x] != w || clVals[x] != w || chi.Value(x) != w {
				t.Logf("vertex %d: ref=%d gpsa=%d xs=%d cluster=%d chi=%d",
					x, w, gpsaVals[x], xsVals[x], clVals[x], chi.Value(x))
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// diffProgram is one program row of the cluster differential. rel is 0
// for programs whose result is independent of fold order (min, or,
// integer sums): they must match the serial reference exactly. A float
// sum gets rel, its stated relative bound against the reference, and
// decode to read a payload as the number rel bounds: PageRank's float64
// sums differ from the reference's in the last bits only, delta-PageRank
// rounds every reference message into a float32 rank while the cluster
// rounds one combined message per source interval (observed up to
// 2e-5 on these shapes).
type diffProgram struct {
	name     string
	prog     func(n int64) core.Program
	steps    int
	weighted bool
	rel      float64
	decode   func(uint64) float64
}

var diffPrograms = []diffProgram{
	{name: "pagerank", prog: func(int64) core.Program { return algorithms.PageRank{} }, steps: 5, rel: 1e-12, decode: algorithms.RankOf},
	{name: "deltapagerank", prog: func(int64) core.Program { return algorithms.DeltaPageRank{} }, steps: 30, rel: 1e-4, decode: algorithms.DeltaRankOf},
	{name: "bfs", prog: func(int64) core.Program { return algorithms.BFS{Root: 0} }, steps: 100},
	{name: "cc", prog: func(int64) core.Program { return algorithms.ConnectedComponents{} }, steps: 100},
	{name: "sssp", prog: func(int64) core.Program { return algorithms.SSSP{Source: 0} }, steps: 100, weighted: true},
	{name: "labelprop", prog: func(int64) core.Program { return algorithms.LabelPropagation{Rounds: 3} }, steps: 100},
	{name: "indegree", prog: func(int64) core.Program { return algorithms.InDegree{} }, steps: 1},
	{name: "reachset", prog: func(n int64) core.Program {
		return algorithms.ReachSet{Sources: algorithms.SampleSources(n, 4, 11)}
	}, steps: 100},
}

// diffShapes are the adversarial graph shapes of the cluster
// differential plus one seeded R-MAT. Weights, when asked for, are
// deterministic and positive.
//
// sparse-blocks is large enough for a CSR index stride of 3 (|V|/8192),
// with a partial last index block. Every vertex has one out-edge, so
// Partition's interval boundaries are predictable, and all but a path's
// worth are self-loops: BFS and SSSP from vertex 0 walk the path one
// vertex per superstep, through the first and last vertex of every
// interval of a 2..7-way partition and the partial last block, so each
// superstep's only fresh vertex sits exactly where the dispatcher's
// block skipping must stop.
var diffShapes = []struct {
	name  string
	build func(t *testing.T, weighted bool) *graph.CSR
}{
	{"no-edges", func(t *testing.T, w bool) *graph.CSR { return edgeGraph(t, 7, nil, w) }},
	{"one-edge", func(t *testing.T, w bool) *graph.CSR { return edgeGraph(t, 6, [][2]int{{0, 3}}, w) }},
	{"hub", func(t *testing.T, w bool) *graph.CSR {
		var es [][2]int
		for i := 1; i < 40; i++ {
			es = append(es, [2]int{0, i}, [2]int{i, 0})
		}
		return edgeGraph(t, 40, es, w)
	}},
	{"selfloops-dups", func(t *testing.T, w bool) *graph.CSR {
		var es [][2]int
		for i := 0; i < 12; i++ {
			es = append(es, [2]int{i, i}, [2]int{i, (i + 1) % 12}, [2]int{i, (i + 1) % 12}, [2]int{i, i * 5 % 12})
		}
		return edgeGraph(t, 12, es, w)
	}},
	{"top-gap", func(t *testing.T, w bool) *graph.CSR {
		rng := rand.New(rand.NewSource(5))
		var es [][2]int
		for range 80 {
			es = append(es, [2]int{rng.Intn(20), rng.Intn(20)})
		}
		return edgeGraph(t, 64, es, w) // vertices 20..63 have no edges
	}},
	{"fewer-vertices-than-intervals", func(t *testing.T, w bool) *graph.CSR {
		return edgeGraph(t, 2, [][2]int{{0, 1}, {1, 0}, {1, 1}}, w)
	}},
	{"rmat", func(t *testing.T, w bool) *graph.CSR {
		g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 300, Edges: 2400, Seed: 7, Weighted: w})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}},
	{"sparse-blocks", func(t *testing.T, w bool) *graph.CSR {
		const n, stride = 3*8192 + 2, 3
		stops := []int{0, n - 2, n - 1}
		for k := 2; k <= 7; k++ {
			for j := 1; j < k; j++ {
				// One edge per vertex: the boundary is the first index
				// entry at or past n·j/k edges.
				b := (n*j/k + stride - 1) / stride * stride
				stops = append(stops, b-1, b)
			}
		}
		slices.Sort(stops)
		stops = slices.Compact(stops)
		es := make([][2]int, n)
		for v := range es {
			es[v] = [2]int{v, v}
		}
		for i := 0; i+1 < len(stops); i++ {
			es[stops[i]][1] = stops[i+1]
		}
		return edgeGraph(t, n, es, w)
	}},
}

func edgeGraph(t *testing.T, n int64, es [][2]int, weighted bool) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, len(es))
	for i, e := range es {
		edges[i] = graph.Edge{Src: graph.VertexID(e[0]), Dst: graph.VertexID(e[1]), Weight: 0.5 + float32(i%7)*0.25}
	}
	g, err := graph.FromEdges(edges, n, weighted)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// foldedReference is ReferenceRun with the cluster's fold order: the
// messages from one source interval to one destination combine, in
// generation order, into one message, and each destination applies the
// combined messages in ascending source interval (ivOf maps a vertex to
// its interval).
func foldedReference(g *graph.CSR, p core.Program, ivOf []int, maxSteps int) []uint64 {
	n := g.NumVertices
	vals, upd, acc := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	active, touched, has := make([]bool, n), make([]bool, n), make([]bool, n)
	for v := range vals {
		vals[v], active[v] = p.Init(int64(v))
	}
	apply := func() {
		for d := range has {
			if !has[d] {
				continue
			}
			has[d] = false
			first := !touched[d]
			cur := vals[d]
			if !first {
				cur = upd[d]
			}
			if nv, changed := p.Compute(int64(d), cur, acc[d], first); changed {
				upd[d], touched[d] = nv, true
			}
		}
	}
	for step := 0; step < maxSteps; step++ {
		messages := 0
		clear(touched)
		for v := int64(0); v < n; v++ {
			if v > 0 && ivOf[v] != ivOf[v-1] {
				apply()
			}
			if !active[v] {
				continue
			}
			ws := g.EdgeWeights(graph.VertexID(v))
			for i, dst := range g.Neighbors(graph.VertexID(v)) {
				var w float32
				if ws != nil {
					w = ws[i]
				}
				m, send := p.GenMsg(v, vals[v], g.OutDegree(graph.VertexID(v)), dst, w)
				if !send {
					continue
				}
				messages++
				if has[dst] {
					acc[dst] = p.CombineMsg(acc[dst], m)
				} else {
					acc[dst], has[dst] = m, true
				}
			}
		}
		apply()
		for v := range vals {
			active[v] = touched[v]
			if touched[v] {
				vals[v] = upd[v]
			}
		}
		if messages == 0 {
			break
		}
	}
	return vals
}

// TestClusterDifferential runs every program on every adversarial shape
// at cluster geometries Nodes×Splits 1×1, 1×3, 3×1 and 3×2 against the
// serial reference. Every cell must equal foldedReference bit for bit —
// the cluster's documented fold (per source interval, ascending) — so a
// wrong barrier fold order, a dropped or duplicated message, or a leaked
// partial sum fails here. Fold-order-independent programs must also
// equal ReferenceRun exactly; float sums must stay within their stated
// relative bound of it, and be bit-identical between 1×3 and 3×1, which
// share one partition.
func TestClusterDifferential(t *testing.T) {
	geometries := [][2]int{{1, 1}, {1, 3}, {3, 1}, {3, 2}}
	for _, dp := range diffPrograms {
		for _, shape := range diffShapes {
			t.Run(dp.name+"/"+shape.name, func(t *testing.T) {
				g := shape.build(t, dp.weighted)
				prog := dp.prog(g.NumVertices)
				ref, _ := algorithms.ReferenceRun(g, prog, dp.steps)
				path := save(t, g)
				byGeo := map[[2]int][]uint64{}
				for _, geo := range geometries {
					res, got, err := cluster.Run(path, prog, cluster.Config{Nodes: geo[0], Splits: geo[1], MaxSupersteps: dp.steps})
					if err != nil {
						t.Fatalf("%dx%d: %v", geo[0], geo[1], err)
					}
					byGeo[geo] = got
					ivOf := make([]int, g.NumVertices)
					for _, a := range res.Assignments {
						for v := a.First; v < a.End; v++ {
							ivOf[v] = a.Interval
						}
					}
					what := func(v int) string {
						return fmt.Sprintf("%dx%d vertex %d of %d: cluster %#x", geo[0], geo[1], v, len(got), got[v])
					}
					folded := foldedReference(g, prog, ivOf, dp.steps)
					for v := range got {
						if want := folded[v] & vertexfile.PayloadMask; got[v] != want {
							t.Fatalf("%s, cluster fold order gives %#x", what(v), want)
						}
						want := ref[v] & vertexfile.PayloadMask
						if dp.rel == 0 {
							if got[v] != want {
								t.Fatalf("%s, reference %#x", what(v), want)
							}
						} else if x, r := dp.decode(got[v]), dp.decode(want); math.Abs(x-r) > dp.rel*math.Max(1, math.Abs(r)) {
							t.Fatalf("%s = %g, reference %g: beyond the relative bound %g", what(v), x, r, dp.rel)
						}
					}
				}
				if a, b := byGeo[[2]int{1, 3}], byGeo[[2]int{3, 1}]; !slices.Equal(a, b) {
					t.Fatal("1x3 and 3x1 share one partition but differ")
				}
			})
		}
	}
}

// TestCoreDifferential runs every program on every adversarial shape
// on the single-machine engine at Dispatchers×Computers 1×1, 2×1, 3×2,
// 2×3 and 4×7 (computers owning no vertex included), each twice, on
// both CSR encodings: the dispatchers' block skipping seeks by word
// offset in the plain file and by byte offset in the compact one, and a
// zero geometry runs the default pool. A computer applies its
// dispatchers' slabs in ascending dispatcher order, so every cell —
// float sums included — must equal foldedReference over the file's own
// Partition(D) bit for bit, however the slabs arrived. Fold-order
// independent programs must also equal ReferenceRun exactly; float sums
// must stay within their stated relative bound of it.
func TestCoreDifferential(t *testing.T) {
	geometries := [][2]int{{1, 1}, {2, 1}, {3, 2}, {2, 3}, {4, 7}, {0, 0}}
	for _, dp := range diffPrograms {
		for _, shape := range diffShapes {
			t.Run(dp.name+"/"+shape.name, func(t *testing.T) {
				g := shape.build(t, dp.weighted)
				prog := dp.prog(g.NumVertices)
				ref, _ := algorithms.ReferenceRun(g, prog, dp.steps)
				compact := filepath.Join(t.TempDir(), "g-compact.gpsa")
				if err := graph.WriteFileCompact(compact, g); err != nil {
					t.Fatal(err)
				}
				for enc, path := range map[string]string{"plain": save(t, g), "compact": compact} {
					for _, geo := range geometries {
						d := geo[0]
						if d == 0 {
							d, _ = core.DefaultPool(runtime.GOMAXPROCS(0))
						}
						folded := foldedReference(g, prog, intervalOf(t, path, d), dp.steps)
						for run := range 2 {
							what := fmt.Sprintf("%s %dx%d run %d", enc, geo[0], geo[1], run)
							vals, _, err := gpsa.Run(path, prog, gpsa.RunOptions{Dispatchers: geo[0], Computers: geo[1], Supersteps: dp.steps})
							if err != nil {
								t.Fatalf("%s: %v", what, err)
							}
							for v := int64(0); v < g.NumVertices; v++ {
								got, want := vals.Raw(v), ref[v]&vertexfile.PayloadMask
								if f := folded[v] & vertexfile.PayloadMask; got != f {
									t.Fatalf("%s vertex %d: core %#x, ordered fold %#x", what, v, got, f)
								}
								if dp.rel == 0 {
									if got != want {
										t.Fatalf("%s vertex %d: core %#x, reference %#x", what, v, got, want)
									}
								} else if x, r := dp.decode(got), dp.decode(want); math.Abs(x-r) > dp.rel*math.Max(1, math.Abs(r)) {
									t.Fatalf("%s vertex %d: core %g, reference %g: beyond the relative bound %g", what, v, x, r, dp.rel)
								}
							}
							vals.Close()
						}
					}
				}
			})
		}
	}
}

// intervalOf maps every vertex of the CSR file at path to its interval
// in the file's own Partition(n): the source interval a core dispatcher
// or a cluster interval owner scans it in.
func intervalOf(t *testing.T, path string, n int) []int {
	t.Helper()
	gf, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	ivOf := make([]int, gf.NumVertices)
	for i, iv := range gf.Partition(n) {
		for v := iv.FirstVertex; v < iv.EndVertex; v++ {
			ivOf[v] = i
		}
	}
	return ivOf
}

// TestCombineMsgCommutativeAssociative: a fold-order-independent
// program (rel 0 in diffPrograms) must combine commutatively and
// associatively over its message domain, or its result would depend on
// how a dispatcher or source interval grouped its messages. Messages are
// drawn from a small domain so that ties — equal labels, equal levels —
// occur.
func TestCombineMsgCommutativeAssociative(t *testing.T) {
	domain := map[string]func(x uint64) uint64{
		"sssp":      func(x uint64) uint64 { return math.Float64bits(float64(x%16) / 4) },
		"labelprop": func(x uint64) uint64 { return x%4 | (x>>8%8)<<32 }, // label | TTL<<32
	}
	for _, dp := range diffPrograms {
		if dp.rel != 0 {
			continue
		}
		msg, ok := domain[dp.name]
		if !ok {
			msg = func(x uint64) uint64 { return x % 16 }
		}
		prog := dp.prog(64)
		t.Run(dp.name, func(t *testing.T) {
			f := func(x, y, z uint64) bool {
				a, b, c := msg(x), msg(y), msg(z)
				return prog.CombineMsg(a, b) == prog.CombineMsg(b, a) &&
					prog.CombineMsg(prog.CombineMsg(a, b), c) == prog.CombineMsg(a, prog.CombineMsg(b, c))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEnginesAgreeOnBFS does the same for BFS levels on directed graphs
// (GraphChi excluded: its edge-value semantics converge to the same fixed
// point but its per-superstep trace differs, covered by its own tests).
func TestEnginesAgreeOnBFS(t *testing.T) {
	fn := func(seed int64, vRaw uint8, eRaw uint16) bool {
		v := int64(vRaw%60) + 2
		e := int64(eRaw % 500)
		g, err := gen.RMATGraph(gen.RMATConfig{Vertices: v, Edges: e, Seed: seed})
		if err != nil {
			return false
		}
		prog := algorithms.BFS{Root: 0}
		want, _ := algorithms.ReferenceRun(g, prog, 300)
		gpsaVals := runGPSA(t, g, prog)
		xsVals := runXS(t, g, prog)
		for x := int64(0); x < v; x++ {
			w := want[x] & vertexfile.PayloadMask
			if gpsaVals[x] != w || xsVals[x] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
