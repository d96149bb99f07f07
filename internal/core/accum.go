package core

// The dispatcher→computer message path is a function of the program,
// not of configuration:
//
//   - A program that implements Combiner folds every message at the
//     source into a dense per-(dispatcher, computer) slab and hands the
//     slab to the computing worker as one kindSegment when the
//     dispatcher finishes its interval.
//   - Any other program sends per-message batches of Config.BatchSize
//     (kindData), the paper's Algorithms 2–3 verbatim.

// denseSeg is one dense accumulator slab for a single computing worker:
// vals[i] accumulates the combined message of the worker's i-th owned
// vertex (vertex i*Computers + worker), bits marks which slots are
// present. Slabs are engine-pooled: the dispatcher hands the whole slab
// to the computer at the end of its interval and takes a fresh one the
// next time it has a message for that worker.
type denseSeg struct {
	count int // present entries
	vals  []uint64
	bits  []uint64
}
