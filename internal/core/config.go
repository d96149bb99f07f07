package core

import (
	"fmt"
	"runtime"
	"time"
)

// DefaultMaxSupersteps is the superstep cap when Config.MaxSupersteps is
// zero. Exported so resume logic can interpret "no explicit cap" as the
// same total budget the original run had.
const DefaultMaxSupersteps = 100

// MaxWorkers bounds Config.Dispatchers and Config.Computers: New
// allocates a Dispatchers × Computers slab grid and every worker a
// mailbox, so an absurd pool would exhaust memory instead of failing.
const MaxWorkers = 4096

// Config tunes the engine. The zero value selects sensible defaults.
type Config struct {
	// Dispatchers is the number of dispatcher actors (default: one per
	// available CPU, DefaultPool). The edge file is partitioned across
	// them by edge count (graph.File.Partition), and every computer
	// applies their slabs in ascending dispatcher order, so results are
	// bit-identical run over run at any pool; float programs differ in
	// the low bits between dispatcher counts, as they would between
	// cluster interval counts. New runs a value file that records a
	// dispatcher count at that count, ignoring this field, and stamps
	// the resolved count into one that records none, so a resume keeps
	// the count its computation started at.
	Dispatchers int

	// Computers is the number of computing worker actors (default: one
	// per two available CPUs, at least 1, DefaultPool). Vertex v is
	// owned by worker v mod Computers, so writers never conflict (paper
	// §V-A). It never changes a result bit.
	//
	// Both pools are at most MaxWorkers. Message memory is the slab grid
	// New allocates, ≈ Dispatchers × |V| × 8.125 bytes.
	Computers int

	// MaxSupersteps caps the run (default 100). The engine also halts as
	// soon as a superstep neither sends messages nor updates vertices.
	MaxSupersteps int

	// SequentialPhases disables the paper's dispatch/compute overlap:
	// computing workers hold every incoming slab and only apply them,
	// in the same dispatcher order, after all dispatchers finish,
	// emulating the conventional BSP model the paper argues against
	// (§III-A). For ablation experiments.
	SequentialPhases bool

	// DisableReconcile skips the barrier-time column reconciliation
	// (see package vertexfile). Only sound for programs in which every
	// vertex that will ever be read is re-updated each superstep.
	// For ablation experiments.
	DisableReconcile bool

	// DisableSync skips the durable header sync at superstep boundaries,
	// trading the paper's lightweight fault tolerance for speed.
	DisableSync bool

	// MaxStepRetries is how many times the manager retries a failed
	// superstep (worker panic or failure, watchdog timeout, failed
	// begin/commit) before surfacing the error. Between attempts the
	// engine tears the worker crew down, rolls the value file back to
	// the superstep's immutable dispatch column using an exact
	// active-set snapshot, backs off (25ms, doubling per consecutive
	// retry), and respawns the crew. Zero — the default — disables
	// retries and fails fast.
	MaxStepRetries int

	// SuperstepTimeout bounds how long the manager waits for any single
	// worker notification within a superstep (the paper's manager
	// "monitors workers", §V-C). Zero disables the watchdog. On timeout
	// the run aborts with an error; a wedged user program's goroutines
	// cannot be forcibly killed, so Run may still block in cleanup until
	// they return.
	SuperstepTimeout time.Duration

	// Progress, when non-nil, receives per-superstep statistics as the
	// run proceeds.
	Progress func(StepStats)
}

// DefaultPool is the pool a zero Config.Dispatchers/Computers resolves
// to on the given number of cores: a dispatcher on every core, and a
// computer on every other one (at least one each). On a 2-CPU host
// (R-MAT 2^18 / 4M edges, `gpsa -algo pagerank -supersteps 10`, medians
// of 15) 1×1 took 1.55 s wall / 1.07 s user, 2×1 1.11 s / 1.16 s, and
// 2×2 1.20 s / 1.26 s: a second computer puts the dispatchers on
// dispatcher.route's mask path and doubles the BulkApply passes, which costs
// more than the apply it parallelises.
func DefaultPool(cores int) (dispatchers, computers int) {
	return max(1, cores), max(1, cores/2)
}

func (c Config) withDefaults() Config {
	d, comp := DefaultPool(runtime.GOMAXPROCS(0))
	if c.Dispatchers <= 0 {
		c.Dispatchers = d
	}
	if c.Computers <= 0 {
		c.Computers = comp
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = DefaultMaxSupersteps
	}
	return c
}

func (c Config) validate() error {
	if c.Dispatchers > MaxWorkers || c.Computers > MaxWorkers {
		return fmt.Errorf("core: unreasonable worker count (%d dispatchers, %d computers)", c.Dispatchers, c.Computers)
	}
	return nil
}

// StepStats records one superstep's activity.
type StepStats struct {
	Step      int64
	Messages  int64   // messages generated by dispatchers
	Delivered int64   // messages delivered after combining (slab entries handed to computers)
	Updates   int64   // vertex values written
	Aggregate float64 // the program's global aggregate (programs implementing Aggregator)
	// Digest is the column digest the commit sealed
	// (vertexfile.File.Digest): for integer-valued programs (BFS, CC,
	// label propagation) identical across any worker count or engine, a
	// cheap cross-run equivalence check; float programs' differ between
	// dispatcher counts, as their low bits do. It is 0 only after a
	// commit that skipped reconcile (Config.DisableReconcile).
	Digest   uint64
	Duration time.Duration
}

// Result summarizes a run.
type Result struct {
	Supersteps int         // supersteps executed in this run
	Converged  bool        // true if the run halted before MaxSupersteps
	Retries    int         // supersteps re-executed by supervised recovery
	Messages   int64       // total messages generated
	Delivered  int64       // total messages delivered after combining
	Updates    int64       // total vertex updates
	Steps      []StepStats // per-superstep statistics
	Duration   time.Duration

	// DispatcherMessages[i] is the total number of messages dispatcher i
	// generated; ComputerUpdates[i] the total updates computing worker i
	// applied. Together they expose the load balance of the paper's §V-A
	// assignment strategies.
	DispatcherMessages []int64
	ComputerUpdates    []int64

	// ResumedFrom is the superstep a resumed run continued from; it is
	// meaningful only when Recovery is non-empty.
	ResumedFrom int64
	// Recovery describes how the value file was recovered when this run
	// resumed an earlier one: "none" (the file was cleanly sealed),
	// "exact" (interrupted superstep rolled back with its exact active
	// set), or "conservative" (every vertex re-activated). Empty for
	// fresh, non-resumed runs.
	Recovery string
}
