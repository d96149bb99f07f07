package core

// Combiner is an optional Program extension (Pregel's message combiner):
// when a program's Compute is insensitive to replacing two messages for
// the same destination with CombineMsg of them, messages are folded at
// the source with a left fold in generation order — into one dense slab
// entry per destination (see accum.go; the cluster folds the same way per
// source interval) — and computing workers receive one pre-combined
// message per vertex. Min-folds (BFS, CC, SSSP) combine with min;
// PageRank's accumulation combines with float sum.
//
// Implementing Combiner is what selects the slab message path; a
// program without it takes the per-message batch path.
type Combiner interface {
	CombineMsg(a, b uint64) uint64
}
