package core

import "repro/internal/vertexfile"

// Aggregator is an optional Program extension (Pregel's aggregators,
// referenced by the paper's related work): after each superstep's compute
// barrier the manager folds every *updated* vertex — with its previous
// and new payloads — into a global aggregate, records it in the step's
// stats, and lets the program halt the run on it. This is how PageRank
// gets a principled L1-convergence stop instead of a fixed superstep
// budget.
type Aggregator interface {
	// AggInit returns the superstep's identity accumulator.
	AggInit() float64
	// AggVertex folds one updated vertex into the accumulator. old is the
	// previous superstep's payload, new the freshly computed one.
	AggVertex(acc float64, v int64, oldPayload, newPayload uint64) float64
	// AggConverged inspects the superstep's final aggregate and reports
	// whether the computation should halt.
	AggConverged(step int64, agg float64) bool
}

// aggregate runs the manager-side aggregation pass for superstep step.
// It executes between the compute barrier and the commit, when the update
// column is settled and fresh flags mark exactly the updated vertices.
func (e *Engine) aggregate(agg Aggregator, step int64) float64 {
	d, u := vertexfile.DispatchCol(step), vertexfile.UpdateCol(step)
	acc := agg.AggInit()
	for v := int64(0); v < e.vf.NumVertices(); v++ {
		slot := e.vf.Load(u, v)
		if vertexfile.Stale(slot) {
			continue
		}
		acc = agg.AggVertex(acc, v, vertexfile.Payload(e.vf.Load(d, v)), vertexfile.Payload(slot))
	}
	return acc
}
