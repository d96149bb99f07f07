package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// dprProg is a local copy of the delta-PageRank program (the real one
// lives in internal/algorithms, which imports this package): the payload
// packs (rank, pending residual) as float32s, messages carry float64
// deltas, combined by summation.
type dprProg struct{}

func dprPack(rank, delta float32) uint64 {
	return uint64(math.Float32bits(rank))<<31 | uint64(math.Float32bits(delta))>>1
}

func dprUnpack(p uint64) (rank, delta float32) {
	return math.Float32frombits(uint32(p >> 31)), math.Float32frombits(uint32(p<<1) &^ 1)
}

func (dprProg) Init(v int64) (uint64, bool) { return dprPack(0.15, 0.15), true }

func (dprProg) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	if deg == 0 {
		return 0, false
	}
	_, delta := dprUnpack(payload)
	if float64(delta) < 1e-4 {
		return 0, false
	}
	return math.Float64bits(0.85 * float64(delta) / float64(deg)), true
}

func (dprProg) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	rank, delta := dprUnpack(cur)
	if first {
		delta = 0
	}
	m := float32(math.Float64frombits(msg))
	return dprPack(rank+m, delta+m), true
}

func (dprProg) CombineMsg(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

// ssspProg is a weighted shortest-paths program.
type ssspProg struct{ root graph.VertexID }

func (s ssspProg) Init(v int64) (uint64, bool) {
	if v == int64(s.root) {
		return math.Float64bits(0), true
	}
	return math.Float64bits(math.Inf(1)), false
}

func (ssspProg) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	return math.Float64bits(math.Float64frombits(payload) + math.Abs(float64(w))), true
}

func (ssspProg) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	if math.Float64frombits(msg) < math.Float64frombits(cur) {
		return msg, true
	}
	return cur, false
}

func (ssspProg) CombineMsg(a, b uint64) uint64 {
	if math.Float64frombits(a) < math.Float64frombits(b) {
		return a
	}
	return b
}

func weightedGraph(t testing.TB, seed, v int64, e int) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, e)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(rng.Int63n(v)),
			Dst:    graph.VertexID(rng.Int63n(v)),
			Weight: rng.Float32() + 0.01,
		}
	}
	g, err := graph.FromEdges(edges, v, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runOn executes prog over g and returns the final vertex payloads plus
// the run result.
func runOn(t *testing.T, g *graph.CSR, prog Program, cfg Config) ([]uint64, *Result) {
	t.Helper()
	eng, vf := setup(t, g, prog, cfg)
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("%T: %v", prog, err)
	}
	return vf.Values(), res
}

func assertSame(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d got %#x, want %#x", what, v, got[v], want[v])
		}
	}
}

// assertRef runs prog over g and requires it to equal refRun over the
// engine's dispatcher intervals bit for bit, and to deliver no more slab
// entries than it generated messages.
func assertRef(t *testing.T, g *graph.CSR, prog Program, cfg Config) {
	t.Helper()
	steps := cfg.MaxSupersteps
	if steps == 0 {
		steps = DefaultMaxSupersteps
	}
	eng, vf := setup(t, g, prog, cfg)
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("%T: %v", prog, err)
	}
	assertSame(t, fmt.Sprintf("%T vs refRun", prog), vf.Values(), refRun(g, prog, eng.intervals, steps))
	if res.Delivered > res.Messages {
		t.Fatalf("%T delivered %d of %d messages", prog, res.Delivered, res.Messages)
	}
}

// shape is one graph the dense-only engine has to get right.
type shape struct {
	name string
	g    *graph.CSR
}

func fromEdges(t *testing.T, edges []graph.Edge, v int64) *graph.CSR {
	t.Helper()
	g, err := graph.FromEdges(edges, v, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// adversarialShapes are the inputs where slab geometry is at its edges:
// nothing to fold, everything folding into one slot, a partial last
// bitmap word, and workers that own no vertex at all.
func adversarialShapes(t *testing.T) []shape {
	t.Helper()
	var hub []graph.Edge
	for v := 1; v < 150; v++ {
		hub = append(hub, graph.Edge{Src: 0, Dst: graph.VertexID(v)}, graph.Edge{Src: graph.VertexID(v), Dst: 0})
	}
	// 200 vertices over 3 computers: maxOwned = 67, so the bitmap's last
	// word holds 3 live bits — and the ring makes sure the last vertices
	// (197, 198, 199: one per computer) all receive messages.
	var ring []graph.Edge
	for v := 0; v < 200; v++ {
		ring = append(ring, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % 200)},
			graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 197) % 200)})
	}
	return []shape{
		{"no-edges", fromEdges(t, nil, 10)},
		{"isolated-but-one-edge", fromEdges(t, []graph.Edge{{Src: 0, Dst: 63}}, 130)},
		{"single-hub", fromEdges(t, hub, 150)},
		{"ragged-last-word", fromEdges(t, ring, 200)},
		{"three-vertices", fromEdges(t, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}}, 3)},
		{"random", randomGraph(t, 73, 300, 1800)},
	}
}

// Min-fold programs are order- and grouping-insensitive, so the slab
// path must agree with the serial reference bit for bit at any worker
// geometry, including computers that own a ragged share of the vertices
// or none (Computers > |V|).
func TestPathsMatchReferenceMinPrograms(t *testing.T) {
	geometries := []struct{ d, c int }{{1, 1}, {3, 2}, {2, 3}, {1, 8}, {4, 7}}
	for _, sh := range adversarialShapes(t) {
		for _, geo := range geometries {
			cfg := Config{Dispatchers: geo.d, Computers: geo.c, DisableSync: true}
			t.Run(fmt.Sprintf("%s/%dx%d", sh.name, geo.d, geo.c), func(t *testing.T) {
				assertRef(t, sh.g, bfsProg{root: 0}, cfg)
				assertRef(t, sh.g.Symmetrize(), ccProg{}, cfg)
			})
		}
	}
	t.Run("sssp", func(t *testing.T) {
		wg := weightedGraph(t, 74, 250, 1500)
		assertRef(t, wg, ssspProg{root: 0}, Config{Dispatchers: 3, Computers: 2, DisableSync: true})
	})
}

// Float sums are order-sensitive, but every computer applies its
// dispatchers' slabs in ascending dispatcher order, and within a slab a
// vertex's messages fold in generation order — whatever the number of
// computers — exactly as refRun folds them over the engine's intervals,
// so the result must equal it bit for bit.
func TestPathsMatchReferenceFloatPrograms(t *testing.T) {
	for _, sh := range adversarialShapes(t) {
		for _, dispatchers := range []int{1, 2, 3} {
			for _, computers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%dx%d", sh.name, dispatchers, computers), func(t *testing.T) {
					cfg := Config{Dispatchers: dispatchers, Computers: computers, MaxSupersteps: 8, DisableSync: true}
					assertRef(t, sh.g, prProg{}, cfg)
					cfg.MaxSupersteps = 20
					assertRef(t, sh.g, dprProg{}, cfg)
				})
			}
		}
	}
	// The zero pool is DefaultPool, a dispatcher per core: what
	// `go test -cpu` varies.
	t.Run("default-pool", func(t *testing.T) {
		cfg := Config{MaxSupersteps: 8, DisableSync: true}
		d, c := DefaultPool(runtime.GOMAXPROCS(0))
		if got := cfg.withDefaults(); got.Dispatchers != d || got.Computers != c {
			t.Fatalf("zero pool resolved to %dx%d, DefaultPool gives %dx%d", got.Dispatchers, got.Computers, d, c)
		}
		assertRef(t, randomGraph(t, 77, 300, 1800), prProg{}, cfg)
	})
}

// The hand-off rule is derived from slab geometry, not configured: a
// slab has a slot for every vertex its computer owns, so it is handed
// off exactly once, when its dispatcher finishes the interval. Each
// superstep therefore moves at most Dispatchers × Computers segments,
// whatever the graph size — this graph's slabs hold 20000 slots each.
func TestSlabHandedOffOncePerPair(t *testing.T) {
	g := randomGraph(t, 79, 40000, 200000)
	const d, c = 2, 2
	dense0, sparse0 := metrics.Counter(metrics.CtrAccumDenseSegs), metrics.Counter(metrics.CtrAccumSparseSegs)
	last := dense0
	cfg := Config{
		Dispatchers: d, Computers: c, MaxSupersteps: 4, DisableSync: true,
		Progress: func(s StepStats) {
			now := metrics.Counter(metrics.CtrAccumDenseSegs)
			if segs := now - last; segs < 1 || segs > d*c {
				t.Errorf("superstep %d handed off %d segments, want 1..%d", s.Step, segs, d*c)
			}
			last = now
		},
	}
	_, res := runOn(t, g, prProg{}, cfg)
	segs := metrics.Counter(metrics.CtrAccumDenseSegs) - dense0
	if max := int64(res.Supersteps * d * c); segs > max {
		t.Fatalf("%d segments over %d supersteps, want at most %d", segs, res.Supersteps, max)
	}
	// Every delivered message is one slab entry, and a slab holds at most
	// one entry per vertex its computer owns.
	maxOwned := (g.NumVertices + c - 1) / c
	if res.Delivered > segs*maxOwned {
		t.Fatalf("delivered %d messages in %d segments of at most %d entries", res.Delivered, segs, maxOwned)
	}
	if res.Delivered >= res.Messages {
		t.Fatalf("delivered %d of %d generated messages; expected source-side folding", res.Delivered, res.Messages)
	}
	if n := metrics.Counter(metrics.CtrAccumSparseSegs) - sparse0; n != 0 {
		t.Fatalf("%d sparse segments counted; the sparse path no longer exists", n)
	}
}

// noalloc and -escape prove statically that the slab path does not
// allocate per message; this observes it. New allocates every slab the
// engine will use, so a run allocates only its fixed costs (actor spawn,
// mailboxes): under 2.5 B per generated message at this toy scale with
// this pinned geometry (they grow with the actor count, so it is not
// left to the host's CPU count). A slab allocated per hand-off adds
// Dispatchers x |V| x 8 B every superstep — 5 B/msg for pagerank here,
// 12 for bfs, which starts at R-MAT's hub, vertex 0 — so the 4 B
// ceiling catches a slab that is not reused.
func TestSlabPathAllocCeiling(t *testing.T) {
	rmat := func(weighted bool) *graph.CSR {
		g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 1 << 10, Edges: 8 << 10, Seed: 42, Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	directed := rmat(false)
	for _, tc := range []struct {
		name string
		prog Program
		g    *graph.CSR
	}{
		{"pagerank", prProg{}, directed},
		{"deltapagerank", dprProg{}, directed},
		{"bfs", bfsProg{root: 0}, directed},
		{"cc", ccProg{}, directed.Symmetrize()},
		{"sssp", ssspProg{root: 0}, rmat(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _ := setup(t, tc.g, tc.prog, Config{Dispatchers: 4, Computers: 2, MaxSupersteps: 3, DisableSync: true})
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := eng.Run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages == 0 {
				t.Fatal("no messages generated; nothing was measured")
			}
			const ceiling = 4.0 // bytes per generated message
			if perMsg := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Messages); perMsg > ceiling {
				t.Fatalf("%.2f B/msg over %d messages exceeds the %.1f B slab-path ceiling", perMsg, res.Messages, ceiling)
			}
			// PageRank keeps every vertex active, so the slab must fold at
			// the source: strictly fewer deliveries than messages.
			if tc.name == "pagerank" && res.Delivered >= res.Messages {
				t.Fatalf("pagerank delivered %d of %d messages; no source-side folding happened", res.Delivered, res.Messages)
			}
		})
	}
}

// Slab reuse must be invisible to results: running a computation as two
// Run calls on ONE engine — where the second half folds only into slabs
// that were already applied, reset and (with poison forced on)
// overwritten with the poison pattern — must leave every slab empty and
// produce a vertex file bit-identical to a fresh engine running straight
// through. Any read of a reset slab that escapes the presence bitmap
// would fold poison into a value and diverge loudly. Computers apply
// slabs in dispatcher order, so PageRank's bits are deterministic at any
// dispatcher count.
func TestAccumPoolRecycleEquivalence(t *testing.T) {
	restore := poisonResets
	poisonResets = true
	defer func() { poisonResets = restore }()

	t.Run("slab", func(t *testing.T) {
		g := randomGraph(t, 78, 260, 2000)
		for _, dispatchers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%dx2", dispatchers), func(t *testing.T) {
				cfg := Config{Dispatchers: dispatchers, Computers: 2, MaxSupersteps: 8, DisableSync: true}
				want, _ := runOn(t, g, prProg{}, cfg)
				cfg.MaxSupersteps = 4
				eng, vf := setup(t, g, prProg{}, cfg)
				for part := 0; part < 2; part++ {
					if _, err := eng.Run(); err != nil {
						t.Fatalf("run %d: %v", part, err)
					}
					for _, s := range slices.Concat(eng.slabs...) {
						if n := s.Len(); n != 0 {
							t.Fatalf("run %d left a slab non-empty (%d present)", part, n)
						}
					}
				}
				assertSame(t, "reused engine vs fresh engine", vf.Values(), want)
			})
		}
	})
}
