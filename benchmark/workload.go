package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/algorithms"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Every workload runs the same fixed amount of engine work per job; the
// run only decides how many jobs fit into --seconds.
const (
	edgeFactor   = 16 // edges per vertex, R-MAT default skew
	supersteps   = 10 // PageRank supersteps per job
	bfsRoots     = 4  // BFS roots run back to back in one bfs job
	clusterNodes = 3
	toyScale     = 10

	// setup_s is the median of at least minSetupReps set-ups; short
	// set-ups (the 2^16 ingest, a server start) repeat until setupBudgetS
	// seconds of them have been seen, at most maxSetupReps times, because
	// a 70 ms interval read three times is mostly noise.
	minSetupReps = 3
	maxSetupReps = 9
	setupBudgetS = 2.5
)

type kind int

const (
	kindPR kind = iota
	kindBFS
	kindServe
	kindCluster
)

type workload struct {
	Name    string
	Why     string
	Kind    kind
	Scale   int // log2 of the vertex count
	Compact bool
	Roots   rootRule
}

// rootRule narrows which vertices may be BFS roots, beyond out-degree
// >= 8 and reaching more than a quarter of the graph. A job of only 4
// roots needs it: at 2^18 a root's depth is 5 or 6, and a hub's frontier
// peaks a level earlier than a low-degree vertex's, so the time of a
// job with unrestricted roots swings by 30% from seed to seed (6% with
// the rule). That swing would be the workload's, not the system's.
type rootRule struct {
	MaxDegree uint32 // 0 = no upper limit on the root's out-degree
	Depth     int    // 0 = any; else the farthest reached vertex is exactly this many hops away
}

var workloads = []workload{
	{Name: "pr-rmat18", Kind: kindPR, Scale: 18,
		Why: "PageRank, every vertex active every step: plain-CSR edge decode and the dense source-side fold do the work"},
	{Name: "pr-rmat18-compact", Kind: kindPR, Scale: 18, Compact: true,
		Why: "same graph and program on the varint-delta CSR: fewer bytes paged, more work per decoded edge"},
	{Name: "bfs-rmat18", Kind: kindBFS, Scale: 18, Roots: rootRule{MaxDegree: 15, Depth: 6},
		Why: "sparse frontier from 4 roots: stale-slot skipping and value-file create/commit/seal dominate, decode speed does not"},
	{Name: "serve-bfs-rmat16", Kind: kindServe, Scale: 16,
		Why: "closed-loop HTTP BFS jobs with distinct roots (cache bypassed): journal fsync, admission, per-job spin-up and seal"},
	{Name: "cluster-pr-rmat16", Kind: kindCluster, Scale: 16,
		Why: "PageRank on 3 loopback-TCP nodes: the cluster's own dispatch/combine/framing/barrier path, core's accumulators unused"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is what one invocation generates from its seed. The system
// under test only ever sees the files; the in-memory CSR is the oracle's.
type inputs struct {
	dir      string // per-invocation work directory, removed on exit
	edgeList string
	csrPath  string
	oracle   *graph.CSR
	digest   string  // CRC32C of the edge-list file
	genS     float64 // harness time, never part of a metric
}

// The file layout inside a work directory, shared with the children.
// The CSR sits in its own directory so that the serve workload can use
// that directory as the server's graph root.
const csrName = "g.gpsa"

func edgeListPath(dir string) string { return filepath.Join(dir, "edges.txt") }
func graphRoot(dir string) string    { return filepath.Join(dir, "graphs") }
func csrPath(dir string) string      { return filepath.Join(graphRoot(dir), csrName) }

func makeInputs(dir string, scale int, seed int64) (*inputs, error) {
	t0 := time.Now()
	v := int64(1) << scale
	edges, err := gen.RMAT(gen.RMATConfig{Vertices: v, Edges: v * edgeFactor, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, edgeList: edgeListPath(dir), csrPath: csrPath(dir)}
	if err := os.MkdirAll(filepath.Dir(in.csrPath), 0o755); err != nil {
		return nil, err
	}
	if in.digest, err = writeEdgeList(in.edgeList, edges); err != nil {
		return nil, err
	}
	// The vertex count is inferred (max id + 1), as preprocess infers it
	// from the text file.
	if in.oracle, err = graph.FromEdges(edges, 0, false); err != nil {
		return nil, err
	}
	in.genS = time.Since(t0).Seconds()
	return in, nil
}

// writeEdgeList writes the text edge list and returns the file's
// CRC32C, so two machines can confirm they measured the same graph.
func writeEdgeList(path string, edges []graph.Edge) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	// Synced, so that the write-back of these pages is over before
	// anything is timed.
	if err := errors.Join(graph.WriteEdgeList(io.MultiWriter(f, h), edges, false), f.Sync(), f.Close()); err != nil {
		return "", err
	}
	return fmt.Sprintf("crc32c:%08x", h.Sum32()), nil
}

// bfsRoot is a BFS root with the oracle's answer for it.
type bfsRoot struct {
	Root   int64
	Levels []int64 // algorithms.TrueBFS; nil when only the digest is kept
	Digest string  // what gpsa.Values.Digest gives for Levels
}

// pickRoots draws n distinct BFS roots with out-degree >= 8 that reach
// more than a quarter of the graph and satisfy rule. A uniformly random
// R-MAT vertex is isolated about half the time and its BFS ends after
// one empty superstep, which would make job times bimodal.
func pickRoots(g *graph.CSR, seed int64, n int, rule rootRule, keepLevels bool) ([]bfsRoot, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x62667372)) // decorrelate from the generator's stream
	seen := map[int64]bool{}
	var out []bfsRoot
	for tries := 0; len(out) < n; tries++ {
		if tries > 200*n+10000 {
			return nil, fmt.Errorf("found only %d of %d qualifying BFS roots", len(out), n)
		}
		r := rng.Int63n(g.NumVertices)
		if d := g.OutDegree(graph.VertexID(r)); seen[r] || d < 8 || (rule.MaxDegree != 0 && d > rule.MaxDegree) {
			continue
		}
		seen[r] = true
		levels := algorithms.TrueBFS(g, graph.VertexID(r))
		reached, deepest := int64(0), int64(0)
		for _, l := range levels {
			if l >= 0 {
				reached++
			}
			deepest = max(deepest, l)
		}
		if reached*4 <= g.NumVertices || (rule.Depth != 0 && deepest != int64(rule.Depth)) {
			continue
		}
		br := bfsRoot{Root: r, Digest: levelsDigest(levels)}
		if keepLevels {
			br.Levels = levels
		}
		out = append(out, br)
	}
	return out, nil
}
