package algorithms

import (
	"math/bits"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// ReachSet estimates graph distances by running up to 62 BFS sources
// simultaneously: each vertex's payload is a bitmask of the sources that
// have reached it, messages OR masks together, and the last superstep
// that changes any vertex equals the eccentricity of the farthest-
// reaching sampled source — a lower bound on the graph's diameter (the
// neighborhood-function technique of HADI/ANF, simplified to exact
// bitmasks). Run on a symmetrized graph for undirected diameter.
type ReachSet struct {
	// Sources are the sampled source vertices (each gets one mask bit,
	// at most 62).
	Sources []graph.VertexID
}

// SampleSources picks k distinct random sources deterministically.
func SampleSources(numVertices int64, k int, seed int64) []graph.VertexID {
	if int64(k) > numVertices {
		k = int(numVertices)
	}
	if k > 62 {
		k = 62
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[graph.VertexID]bool, k)
	out := make([]graph.VertexID, 0, k)
	for len(out) < k {
		v := graph.VertexID(rng.Int63n(numVertices))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Init gives each source its own bit; everything else starts empty.
func (r ReachSet) Init(v int64) (uint64, bool) {
	var mask uint64
	for i, s := range r.Sources {
		if int64(s) == v {
			mask |= 1 << uint(i)
		}
	}
	return mask, mask != 0
}

// GenMsg forwards the reach mask.
func (r ReachSet) GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (uint64, bool) {
	return payload, true
}

// Compute ORs the masks; a vertex changes only when new sources reach it.
func (r ReachSet) Compute(dst int64, cur uint64, msg uint64, first bool) (uint64, bool) {
	merged := cur | msg
	return merged, merged != cur
}

// CombineMsg ORs masks (OR is the natural combiner here).
func (r ReachSet) CombineMsg(a, b uint64) uint64 { return a | b }

// Fold declares that the message ignores dst and weight and CombineMsg
// is a uint64 or.
func (r ReachSet) Fold() core.Fold { return core.FoldOrUint64 }

// ReachCount returns how many sampled sources reached the vertex with
// this payload.
func ReachCount(payload uint64) int { return bits.OnesCount64(payload) }

// DiameterFromSteps converts a run's per-superstep update counts into
// the distance estimate: masks travel one hop per superstep, so the last
// superstep that updated any vertex, plus one, is the farthest distance
// reached from a sampled source. Pass the Updates column of the engine's
// Result.Steps (or any equivalent per-superstep series).
func DiameterFromSteps(updatesPerStep []int64) int {
	last := -1
	for i, u := range updatesPerStep {
		if u > 0 {
			last = i
		}
	}
	return last + 1
}

// EstimateDiameter runs ReachSet semantics serially and returns the
// largest hop distance observed from any sampled source — a lower bound
// on the diameter. The engines produce the same value; this serial helper
// is the oracle used in tests and small-scale tooling.
func EstimateDiameter(g *graph.CSR, sources []graph.VertexID) int {
	prog := ReachSet{Sources: sources}
	n := g.NumVertices
	vals := make([]uint64, n)
	active := make([]bool, n)
	for v := int64(0); v < n; v++ {
		vals[v], active[v] = prog.Init(v)
	}
	ecc := 0
	prev := make([]uint64, n) // masks as of the previous superstep: one hop per superstep
	for step := 0; int64(step) < n+1; step++ {
		copy(prev, vals)
		next := make([]bool, n)
		updated := false
		for v := int64(0); v < n; v++ {
			if !active[v] {
				continue
			}
			for _, dst := range g.Neighbors(graph.VertexID(v)) {
				if merged := vals[dst] | prev[v]; merged != vals[dst] {
					vals[dst] = merged
					next[dst] = true
					updated = true
				}
			}
		}
		if !updated {
			break
		}
		ecc = step + 1
		active = next
	}
	return ecc
}
