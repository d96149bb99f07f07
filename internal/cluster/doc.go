// Package cluster extends GPSA across multiple nodes — the distributed
// application of the actor model the paper motivates but leaves as future
// work (§III-B: "Actor-based graph processing can not only benefit
// multi-core systems but also be directly applicable to distributed
// systems").
//
// The design translates the paper's single-machine roles one-to-one:
//
//   - The manager actor becomes a Coordinator process coordinating
//     supersteps over TCP control connections.
//   - Each Node hosts a set of vertex intervals (balanced by edge
//     count) and runs core's worker crew over them (core.Crew): a
//     dispatcher actor per owned interval, each scanning into its own
//     |V|-wide slab, and one computing actor applying to the node's own
//     two-column vertex value file.
//   - Every program folds at the source, as in core, so a round sends
//     each (source interval, destination) pair at most once.
//   - Actor location transparency becomes explicit: at the end of its
//     interval a dispatcher's hand-off frames the entries for intervals
//     another node owns onto that owner's data connection; the rest of
//     the slab goes to the node's computer. The wire receivers feed the
//     same computer, keyed by source interval. The computer applies in
//     ascending source interval, as core's does, holding what arrives
//     before its turn — or before the node has begun the superstep — so
//     a retried superstep folds bit-identically.
//
// The superstep barrier generalizes the single-machine one: after a
// node's dispatchers finish (and have flushed their peer writes) it
// sends an end-of-stream marker on every data connection and
// DISPATCH_OVER to the coordinator. A peer's end-of-stream completes, at
// the receiving node's computer, every interval that peer owns; at the
// coordinator's COMPUTE barrier a node waits for end-of-stream from every
// peer — which, with each sender's in-order stream, guarantees every
// batch of the superstep has reached its computer — then runs its crew's
// barrier, commits, and acknowledges.
//
// Membership and recovery rest on three shared pieces and one barrier
// loop (coordinator.run). sealedAt brings a value file to the barrier
// epoch (Recover a torn step, Rewind one committed ahead) and freshAt
// creates one there; every node entering after the initial HELLO — a
// joiner or a dead node's same-id replacement — boots through one of
// them and is admitted by one JOIN handshake (admit). Every interval
// transfer — join, drain, rebalance, and the redistribution of a retired
// dead node's intervals — is one move, its blob taken from a live
// donor's connection or a retired node's sealed file. Any fault at a
// barrier (superstep, membership change, value gather) takes the same
// rollback -> replace-or-retire arc and the barrier reruns.
//
// Nodes here run in one process connected over loopback TCP, but nothing
// in the protocol assumes shared memory: all graph state crosses node
// boundaries through the wire format in protocol.go. The CSR file is
// opened read-only by every node, standing in for a shared filesystem.
package cluster
