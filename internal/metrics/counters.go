package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter names recorded by the durability machinery. The crash-torture
// harness asserts on these to prove recovery actually ran (rather than a
// kill landing after the final commit and the "resume" being a no-op).
const (
	// CtrRecoverExact counts recoveries that restored the exact
	// active-set snapshot from the value file's bitmap region.
	CtrRecoverExact = "vertexfile.recover.exact"
	// CtrRecoverConservative counts recoveries that fell back to
	// re-activating every vertex (torn header or stale bitmap).
	CtrRecoverConservative = "vertexfile.recover.conservative"
	// CtrOpenTorn counts files Open found with a torn header.
	CtrOpenTorn = "vertexfile.open.torn"
	// CtrDigestMismatch counts files Open rejected because the sealed
	// column digest did not match the column bytes (write-order bug or
	// external corruption).
	CtrDigestMismatch = "vertexfile.open.digest_mismatch"
	// CtrStepRollbacks counts in-process superstep rollbacks (supervised
	// retry or cancellation).
	CtrStepRollbacks = "core.step.rollbacks"
	// CtrRunsCancelled counts engine runs stopped by context cancellation.
	CtrRunsCancelled = "core.runs.cancelled"
	// CtrResumes counts gpsa.Run continuations of an existing value file.
	CtrResumes = "gpsa.resumes"

	// CtrAccumFolded counts messages folded into an existing entry of a
	// dense slab — the combined-at-source numerator; its ratio to the
	// engine's generated-message count is the source combining rate.
	CtrAccumFolded = "core.accum.folded"
	// CtrAccumDelivered counts slab entries handed to computing workers
	// (the post-combining message volume on the slab path).
	CtrAccumDelivered = "core.accum.delivered"
	// CtrAccumDenseSegs counts slab hand-offs — the mailbox traffic that
	// replaces per-batch messages: at most one per (dispatcher,
	// computer) pair per superstep.
	CtrAccumDenseSegs = "core.accum.segments.dense"
	// CtrAccumSparseSegs is always 0 since ISSUE 12 (the sparse
	// accumulator is gone); retained for benchmark/traced.go, which
	// reports it as a per-layer row.
	CtrAccumSparseSegs = "core.accum.segments.sparse"

	// CtrPrefetchWindows counts WILLNEED windows the async CSR prefetch
	// actors issued ahead of the dispatch cursors; CtrPrefetchBytes the
	// bytes those windows covered; CtrPrefetchEvicted the bytes released
	// with DONTNEED behind the cursors; CtrPrefetchErrors madvise calls
	// that failed (prefetch is best-effort, errors are counted, never
	// fatal).
	CtrPrefetchWindows = "core.prefetch.windows"
	CtrPrefetchBytes   = "core.prefetch.bytes"
	CtrPrefetchEvicted = "core.prefetch.evicted"
	CtrPrefetchErrors  = "core.prefetch.errors"

	// The cluster.* counters record the distributed recovery machinery;
	// the chaos harness asserts on them to prove a disturbed run actually
	// exercised rollback and rejoin rather than getting lucky.
	//
	// CtrClusterRedials counts data-plane redial attempts after a failed
	// peer write.
	CtrClusterRedials = "cluster.redials"
	// CtrClusterRollbacks counts coordinator-driven superstep rollbacks
	// (every node discards in-flight state and the step is retried).
	CtrClusterRollbacks = "cluster.rollbacks"
	// CtrClusterRejoins counts dead nodes replaced by a same-id node that
	// sealed their value file at the barrier and entered with JOIN.
	CtrClusterRejoins = "cluster.rejoins"
	// CtrClusterChecksumFailures counts frames rejected because their
	// CRC32C checksum did not match — corruption detected, not applied.
	CtrClusterChecksumFailures = "cluster.checksum_failures"
	// CtrClusterMigrations counts vertex intervals moved live between
	// nodes (join, drain, and rebalance all migrate through the same
	// barrier-time MIGRATE protocol).
	CtrClusterMigrations = "cluster.migrations"
	// CtrClusterRedistributions counts intervals of a permanently dead
	// node redistributed to survivors (graceful N -> N-1 degradation)
	// instead of waiting for a same-node restart.
	CtrClusterRedistributions = "cluster.redistributions"
	// CtrClusterJoins counts brand-new nodes absorbed into a running job.
	CtrClusterJoins = "cluster.joins"
	// CtrClusterDrains counts nodes shed cleanly for maintenance.
	CtrClusterDrains = "cluster.drains"

	// The serve.* counters record the job tier of the long-lived serving
	// layer (internal/serve); the servetest harness asserts on them to
	// prove overload shedding, journal recovery, and budget enforcement
	// actually happened.
	//
	// CtrServeAdmitted counts jobs accepted into the bounded queue.
	CtrServeAdmitted = "serve.admitted"
	// CtrServeShed counts submissions refused with 429 because the queue
	// was full — clean backpressure instead of unbounded memory.
	CtrServeShed = "serve.shed"
	// CtrServeResumed counts jobs recovered from the job journal at
	// startup (-resume-jobs): interrupted or still-queued jobs of a
	// previous process generation, re-run to completion.
	CtrServeResumed = "serve.resumed"
	// CtrServeDeadlineExceeded counts jobs stopped at their wall-clock
	// deadline: the run's context is cancelled, the in-flight superstep
	// rolled back, and the value file sealed resumable.
	CtrServeDeadlineExceeded = "serve.deadline_exceeded"
	// CtrServeCompleted and CtrServeFailed count terminal job outcomes.
	CtrServeCompleted = "serve.completed"
	CtrServeFailed    = "serve.failed"
	// CtrServeInterrupted counts in-flight jobs checkpointed (rolled
	// back + sealed) because the server drained.
	CtrServeInterrupted = "serve.interrupted"
	// CtrServeRetries counts job-tier retry attempts after transient
	// failures (the job analogue of core.MaxStepRetries).
	CtrServeRetries = "serve.retries"
	// CtrServeCacheHits counts submissions answered from the result
	// cache keyed by (graph digest, program, params).
	CtrServeCacheHits = "serve.cache.hits"
	// CtrServeBreakerOpen counts circuit-breaker trips quarantining a
	// (graph, program) pair; CtrServeBreakerRejected counts submissions
	// refused while quarantined.
	CtrServeBreakerOpen     = "serve.breaker.open"
	CtrServeBreakerRejected = "serve.breaker.rejected"

	// The disk.* counters record the storage layer (internal/diskio) and
	// the scrub/repair actor (internal/scrub); the disktest harness
	// asserts on them to prove hostile-disk scenarios exercised the
	// degradation and repair machinery rather than missing it.
	//
	// CtrDiskWriteErrors counts failed writes/syncs on durability paths
	// (real or injected), after classification.
	CtrDiskWriteErrors = "disk.write_errors"
	// CtrDiskENOSPC counts failures classified as disk-full
	// (diskio.ErrDiskFull), a subset of disk.write_errors plus failed
	// preflight free-space gates.
	CtrDiskENOSPC = "disk.enospc"
	// CtrDiskScrubs counts completed scrub passes over a sealed artifact
	// (vertex value file or CSR graph file).
	CtrDiskScrubs = "disk.scrubs"
	// CtrDiskRepairs counts corrupt artifacts successfully repaired
	// (interval re-fetch from a live owner, or rebuild from healthy
	// source data).
	CtrDiskRepairs = "disk.repairs"
	// CtrDiskQuarantines counts corrupt artifacts renamed aside
	// (*.quarantine) so they can never be opened as healthy state.
	CtrDiskQuarantines = "disk.quarantines"
)

// counters is a process-wide registry of named monotonic counters. The
// map is append-only under the lock; the values are atomics, so Inc on a
// hot path after first use is lock-free.
var counters sync.Map // string -> *atomic.Int64

func counter(name string) *atomic.Int64 {
	if c, ok := counters.Load(name); ok {
		return c.(*atomic.Int64)
	}
	c, _ := counters.LoadOrStore(name, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// Inc adds 1 to the named counter.
func Inc(name string) { counter(name).Add(1) }

// Add adds delta to the named counter.
func Add(name string, delta int64) { counter(name).Add(delta) }

// Counter returns the named counter's current value (0 if never touched).
func Counter(name string) int64 {
	if c, ok := counters.Load(name); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

// Counters snapshots every counter, sorted by name.
func Counters() []struct {
	Name  string
	Value int64
} {
	var out []struct {
		Name  string
		Value int64
	}
	counters.Range(func(k, v any) bool {
		out = append(out, struct {
			Name  string
			Value int64
		}{k.(string), v.(*atomic.Int64).Load()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResetCounters zeroes every counter (test isolation).
func ResetCounters() {
	counters.Range(func(_, v any) bool {
		v.(*atomic.Int64).Store(0)
		return true
	})
}
