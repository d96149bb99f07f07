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
//     count), streams them through the same scan core's dispatchers run
//     (core.Scan: one worker, the node's one |V|-wide slab), and applies
//     the messages it receives to its own two-column vertex value file
//     at its barrier, through core's batch apply (core.ApplyBatch).
//   - Every program folds at the source, as in core, so a round sends
//     each (source interval, destination) pair at most once.
//   - Actor location transparency becomes explicit: a batch for a
//     co-hosted interval is staged through the loopback; any other is
//     framed onto the owning node's data connection. Batches are staged
//     per source interval as they arrive and applied at the barrier in
//     interval order (see node.applyStaged), so a retried superstep
//     folds bit-identically. The paper's computing actors fold on
//     arrival; here arrival order across peers is a race, so the node
//     holds the batches and its control loop applies them.
//
// The superstep barrier generalizes the single-machine one: after a node
// finishes dispatching (and has flushed its peer connections) it sends an
// end-of-stream marker on every data connection and DISPATCH_OVER to the
// coordinator; at the coordinator's COMPUTE barrier a node applies its
// staged batches only after end-of-stream from every peer, which — with
// each sender's in-order stream — guarantees every batch of the
// superstep has been staged, and then acknowledges.
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
