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

// MaxMailboxCap bounds Config.MailboxCap: a mailbox is a channel
// allocated whole at spawn, and failing that allocation kills the process.
const MaxMailboxCap = 1 << 16

// Config tunes the engine. The zero value selects sensible defaults.
type Config struct {
	// Dispatchers is the number of dispatcher actors (default: half the
	// available CPUs, at least 1). The edge file is partitioned across
	// them by edge count.
	Dispatchers int

	// Computers is the number of computing worker actors (default: half
	// the available CPUs, at least 1). Vertex v is owned by worker
	// v mod Computers, so writers never conflict (paper §V-A).
	Computers int

	// BatchSize is the number of messages accumulated per destination
	// worker before the batch is put into its mailbox (default 512).
	// Only programs without a Combiner send batches.
	BatchSize int

	// MailboxCap is the per-worker mailbox capacity in batches
	// (default 64, at most MaxMailboxCap). Bounded mailboxes give the
	// batch path backpressure; a combiner program's message memory is
	// the slab grid New allocates, ≈ Dispatchers × |V| × 8.125 bytes.
	MailboxCap int

	// MaxSupersteps caps the run (default 100). The engine also halts as
	// soon as a superstep neither sends messages nor updates vertices.
	MaxSupersteps int

	// SequentialPhases disables the paper's dispatch/compute overlap:
	// computing workers buffer incoming messages and only process them
	// after all dispatchers finish, emulating the conventional BSP model
	// the paper argues against (§III-A). For ablation experiments.
	SequentialPhases bool

	// DisableReconcile skips the barrier-time column reconciliation
	// (see package vertexfile). Only sound for programs in which every
	// vertex that will ever be read is re-updated each superstep.
	// For ablation experiments.
	DisableReconcile bool

	// DisableSync skips the durable header sync at superstep boundaries,
	// trading the paper's lightweight fault tolerance for speed.
	DisableSync bool

	// Prefetch spawns one async prefetch actor per dispatcher. Each
	// walks ahead of its dispatcher's edge cursor issuing windowed
	// madvise(WILLNEED) on the CSR mapping and releases consumed pages
	// behind it with DONTNEED, so out-of-core runs overlap page-in I/O
	// with dispatch instead of stalling on major faults. Best-effort:
	// silently inactive for memory images and heap-backed mappings.
	Prefetch bool

	// PrefetchWindow is the size in bytes of the WILLNEED window each
	// prefetch actor keeps ahead of its dispatcher's cursor (default
	// 8 MiB). The DONTNEED trail follows one window behind the cursor.
	PrefetchWindow int

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

	// Digests, when set, computes an FNV-1a digest of the committed
	// column after every superstep (StepStats.Digest). For integer-valued
	// programs (BFS, CC, label propagation) digests are identical across
	// any worker count, batch size, or engine — a cheap cross-run and
	// cross-engine equivalence check. Float programs accumulate in
	// message order and may differ in the low bits.
	Digests bool

	// Progress, when non-nil, receives per-superstep statistics as the
	// run proceeds.
	Progress func(StepStats)
}

func (c Config) withDefaults() Config {
	half := runtime.GOMAXPROCS(0) / 2
	if half < 1 {
		half = 1
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = half
	}
	if c.Computers <= 0 {
		c.Computers = half
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.MailboxCap <= 0 {
		c.MailboxCap = 64
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = DefaultMaxSupersteps
	}
	if c.PrefetchWindow <= 0 {
		c.PrefetchWindow = 8 << 20
	}
	return c
}

func (c Config) validate() error {
	if c.Dispatchers > 4096 || c.Computers > 4096 {
		return fmt.Errorf("core: unreasonable worker count (%d dispatchers, %d computers)", c.Dispatchers, c.Computers)
	}
	if c.MailboxCap > MaxMailboxCap {
		return fmt.Errorf("core: unreasonable mailbox capacity %d (max %d)", c.MailboxCap, MaxMailboxCap)
	}
	return nil
}

// StepStats records one superstep's activity.
type StepStats struct {
	Step      int64
	Messages  int64   // messages generated by dispatchers
	Delivered int64   // messages delivered after combining (== Messages without a Combiner)
	Updates   int64   // vertex values written
	Aggregate float64 // the program's global aggregate (programs implementing Aggregator)
	Digest    uint64  // FNV-1a of the committed column (Config.Digests)
	Duration  time.Duration
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
