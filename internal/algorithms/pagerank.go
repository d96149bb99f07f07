package algorithms

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
)

// PageRank is the paper's PageRank workload (§IV-E): each superstep a
// fresh vertex sends rank/out-degree along every out-edge, and a vertex
// receiving messages recomputes rank = (1-d) + d * Σ incoming.
//
// Ranks are unnormalized (the "1-centered" formulation GraphChi and
// X-Stream also use): the initial rank is 1 and the damping constant adds
// (1-d) rather than (1-d)/|V|.
type PageRank struct {
	// Damping is the damping factor d; 0 selects the conventional 0.85.
	Damping float64
	// Epsilon, when positive, halts the run once the L1 rank change of a
	// superstep (Σ|new-old| over updated vertices) drops below it, via
	// the engine's aggregator hook. Zero keeps the paper's fixed
	// superstep budget.
	Epsilon float64
}

func (p PageRank) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

// Init starts every vertex at rank 1, active.
func (p PageRank) Init(v int64) (uint64, bool) {
	return math.Float64bits(1.0), true
}

// GenMsg sends rank/outDegree.
func (p PageRank) GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (uint64, bool) {
	if outDegree == 0 {
		return 0, false
	}
	rank := math.Float64frombits(payload)
	return math.Float64bits(rank / float64(outDegree)), true
}

// Compute accumulates (1-d) + d*Σ msgs.
func (p PageRank) Compute(dst int64, cur uint64, msg uint64, first bool) (uint64, bool) {
	d := p.damping()
	m := math.Float64frombits(msg)
	var rank float64
	if first {
		rank = (1 - d) + d*m
	} else {
		rank = math.Float64frombits(cur) + d*m
	}
	return math.Float64bits(rank), true
}

// CombineMsg merges two rank contributions by summation (valid because
// Compute folds messages additively), enabling dispatcher-side combining.
func (p PageRank) CombineMsg(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

// Fold declares that the message ignores dst and weight and CombineMsg
// is a float64 sum, so the dispatcher calls GenMsg once per vertex.
func (p PageRank) Fold() core.Fold { return core.FoldSumFloat64 }

// AggInit starts the L1 rank-change aggregate at zero.
func (p PageRank) AggInit() float64 { return 0 }

// AggVertex accumulates |new - old| for an updated vertex.
func (p PageRank) AggVertex(acc float64, v int64, oldPayload, newPayload uint64) float64 {
	return acc + math.Abs(math.Float64frombits(newPayload)-math.Float64frombits(oldPayload))
}

// AggConverged halts once the superstep's total rank change drops below
// Epsilon (never, when Epsilon is zero).
func (p PageRank) AggConverged(step int64, agg float64) bool {
	return p.Epsilon > 0 && agg < p.Epsilon
}

// RankOf decodes a PageRank payload.
func RankOf(payload uint64) float64 { return math.Float64frombits(payload) }

// DeltaPageRank is the incremental (delta-based) PageRank extension: a
// message carries the *change* of a vertex's contribution rather than its
// full rank, so selective scheduling converges to true power-iteration
// PageRank. A vertex stops propagating once its accumulated delta falls
// below Epsilon.
//
// Payload layout: the rank itself, float64 bits. The residual is carried
// entirely in the messages: an update adds d*delta to the rank and
// forwards delta' = d*delta/outDegree.
type DeltaPageRank struct {
	Damping float64
	Epsilon float64 // propagation cut-off; 0 selects 1e-9
}

func (p DeltaPageRank) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

func (p DeltaPageRank) epsilon() float64 {
	if p.Epsilon == 0 {
		return 1e-4 // payloads are float32 pairs; finer cut-offs drown in rounding
	}
	return p.Epsilon
}

// Init starts every vertex at rank 1-d with an equal pending residual:
// every increment of a vertex's rank — including its initial value — must
// be propagated to neighbors exactly once (the push formulation of
// PageRank), and superstep 0 distributes this first increment.
func (p DeltaPageRank) Init(v int64) (uint64, bool) {
	base := float32(1 - p.damping())
	return packPair(base, base), true
}

// GenMsg forwards d*delta/outDegree, suppressing converged residuals.
func (p DeltaPageRank) GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (uint64, bool) {
	if outDegree == 0 {
		return 0, false
	}
	_, delta := unpackPair(payload)
	if float64(delta) < p.epsilon() {
		return 0, false
	}
	return math.Float64bits(p.damping() * float64(delta) / float64(outDegree)), true
}

// Compute adds incoming deltas to the rank and accumulates the pending
// outgoing residual, which resets at the start of each superstep (first).
func (p DeltaPageRank) Compute(dst int64, cur uint64, msg uint64, first bool) (uint64, bool) {
	rank, delta := unpackPair(cur)
	if first {
		delta = 0
	}
	m := float32(math.Float64frombits(msg))
	return packPair(rank+m, delta+m), true
}

// packPair packs two float32s into the low 62 bits of a payload. The top
// two bits of the rank float are (sign, high exponent bit); ranks are
// non-negative and < 2^128, so bit 63 stays clear.
func packPair(rank, delta float32) uint64 {
	return uint64(math.Float32bits(rank))<<31 | uint64(math.Float32bits(delta))>>1
}

func unpackPair(p uint64) (rank, delta float32) {
	rank = math.Float32frombits(uint32(p >> 31))
	delta = math.Float32frombits(uint32(p<<1) &^ 1)
	return rank, delta
}

// CombineMsg merges two delta contributions by summation.
func (p DeltaPageRank) CombineMsg(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

// Fold declares that the message ignores dst and weight and CombineMsg
// is a float64 sum.
func (p DeltaPageRank) Fold() core.Fold { return core.FoldSumFloat64 }

// DeltaRankOf decodes the rank from a DeltaPageRank payload.
func DeltaRankOf(payload uint64) float64 {
	r, _ := unpackPair(payload)
	return float64(r)
}
