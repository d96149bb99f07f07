// Package core implements the GPSA engine — the paper's primary
// contribution: a single-machine graph processing system whose modified
// BSP model decouples message dispatching from computation and overlaps
// the two inside each superstep using actors (paper §IV, Figs. 2–3).
//
// Three actor roles cooperate (paper §V):
//
//   - The manager (Algorithm 1) coordinates supersteps: it signals
//     ITERATION_START to the dispatchers, collects DISPATCH_OVER
//     notifications, broadcasts the COMPUTE_OVER barrier to the computing
//     workers, collects their acknowledgements, commits the superstep to
//     the vertex value file, and finally issues SYSTEM_OVER.
//
//   - Dispatcher actors (Algorithm 2) each own an interval of the CSR
//     edge file, balanced by edge count. Every superstep they stream
//     their interval sequentially through the memory mapping, skip
//     vertices whose dispatch-column slot carries the stale flag, call
//     the program's GenMsg for each out-edge of fresh vertices, and send
//     the resulting messages to the computing worker that owns the
//     destination vertex.
//
//   - Computing workers (Algorithm 3) own disjoint vertex sets
//     (dst mod W) and process messages as they arrive — concurrently with
//     dispatching, which is the paper's key overlap. On a vertex's first
//     message of the superstep (update-column slot still stale) the
//     previous value is fetched from the dispatch column; subsequent
//     messages fold into the accumulating update-column value. Changed
//     values are written fresh; unchanged vertices stay stale and are
//     skipped by dispatchers next superstep (selective scheduling).
//
// Messages are not mailed one by one. A program that implements Combiner
// has them folded at the dispatcher into one dense slab per computing
// worker, handed off whole at the end of the dispatcher's interval; any
// other program has them batched (Config.BatchSize). Which of the two
// paths runs is a property of the program, never of configuration (see
// accum.go). Neither changes the model — mailboxes remain asynchronous
// and FIFO, and the barrier message is only sent after all dispatcher
// sends have completed, so FIFO ordering guarantees computing workers
// observe it last. The scan (Scan) and the batch apply (ApplyBatch) are
// exported because package cluster drives the same two: one dispatch,
// fold and apply pipeline for both engines.
package core
