// Package actor is a lightweight actor runtime used by the GPSA engine.
//
// It stands in for the Kilim framework the paper builds on: actors are
// independent computational entities that communicate exclusively through
// asynchronous messages delivered to bounded mailboxes; there is no shared
// mutable state between actors (the engine's memory-mapped value file is
// partitioned so that no two actors write the same slot).
//
// The mapping from Kilim concepts to this package:
//
//   - Kilim Task (lightweight thread)  -> goroutine spawned by System.Spawn
//   - Kilim Mailbox                    -> Mailbox[T], a bounded FIFO with
//     blocking put/get semantics
//   - Kilim Scheduler (N kernel threads multiplexing tasks) -> the Go
//     runtime scheduler, which is exactly an M:N scheduler
//   - Pausable methods                 -> ordinary blocking channel ops
//
// The runtime adds supervision: a panicking actor is isolated (its panic is
// converted to an error), and every failure is recorded and reported to
// the system's failure callback. Nothing is restarted: the engine's
// recovery is the superstep retry, which replaces the whole crew.
package actor
