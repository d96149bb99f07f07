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
//     the program's GenMsg for each out-edge of fresh vertices (once per
//     vertex for a program that declares a Fold), and send
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
// Messages are not mailed one by one. Every Program combines
// (Program.CombineMsg), so the dispatcher folds them into one dense slab
// per computing worker, handed off whole at the end of its interval (see
// accum.go). That does not change the model — mailboxes remain
// asynchronous and FIFO, and the barrier message is only sent after all
// dispatcher sends have completed, so FIFO ordering guarantees computing
// workers observe it last. The worker crew (Crew) is exported because
// package cluster drives it too: a cluster node runs one over the
// intervals it owns, its hand-off framing what other nodes' intervals
// need, and feeds its computer what arrives off the wire, so dispatch,
// fold and apply are one pipeline for both engines.
package core
