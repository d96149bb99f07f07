// Package fault is a deterministic fault-injection framework for GPSA's
// robustness tests and examples.
//
// Production code declares named injection sites at the places where the
// paper's failure model bites — an actor dying mid-message, an mmap sync
// failing, a vertex-file commit tearing, a cluster connection dropping —
// and consults them through the cheap helpers below (Error, Panic,
// PanicN, Stall). When no Plan is active each of those inlines into its
// caller as one atomic flag load and a return, so the sites cost nothing
// in normal operation — not even a call.
//
// Tests and examples arm a Plan: a set of Injections, each naming a
// site, the hit index at which it starts firing, how many hits fire, and
// optionally a seeded firing probability. Hit counting is atomic and the
// probability stream comes from a seeded rand.Rand, so a given plan
// replays identically — the property that lets recovery tests assert
// bit-identical results against an uninjected run.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical site names. A site is just a string — packages may declare
// private sites — but the cross-package ones are collected here so tests
// and examples have one vocabulary.
const (
	// SiteActorExecute fires inside the actor system just before an
	// actor's Execute runs (including restarts): an injected panic there
	// simulates an actor that dies the moment it is scheduled.
	SiteActorExecute = "actor.execute.panic"
	// SiteDispatcherMsg fires once per message a dispatcher generates,
	// on the per-edge path (Panic) and the fold kernels (PanicN, one
	// hit per out-edge) alike: it simulates a dispatcher actor dying on
	// its Nth message.
	SiteDispatcherMsg = "core.dispatcher.panic"
	// SiteComputerMsg fires once per message a computing worker applies;
	// Panic simulates a computing actor dying on its Nth message.
	SiteComputerMsg = "core.computer.panic"
	// SiteComputerStall fires once per message a computing worker applies;
	// Stall sleeps for the injection's Delay, simulating a worker wedged
	// in user code (the case the superstep watchdog exists for).
	SiteComputerStall = "core.computer.stall"
	// SiteStepCrash fires once per superstep after the dispatch phase;
	// Error simulates whole-process death without commit (the paper's
	// crash model — recovery happens on reopen, not in-process).
	SiteStepCrash = "core.step.crash"
	// SiteMmapSync fires in mmap.Map.Sync; Error simulates a failed
	// msync/write-back (disk full, I/O error).
	SiteMmapSync = "mmap.sync.error"
	// SiteCommitTorn fires in vertexfile.File.Commit; Error aborts the
	// commit and corrupts the header checksum, simulating a crash that
	// tears the header mid-flush.
	SiteCommitTorn = "vertexfile.commit.torn"
	// SiteConnDrop fires per data-plane frame write in the cluster;
	// Error closes the underlying connection first, simulating a
	// dropped TCP connection.
	SiteConnDrop = "cluster.conn.drop"
	// SiteConnStall fires per data-plane frame write in the cluster;
	// Stall sleeps for the injection's Delay, simulating a stalled link.
	SiteConnStall = "cluster.conn.stall"

	// The cluster.conn.* sites below fire per raw write inside the
	// cluster's flaky transport wrapper, under both control and data
	// planes — the hostile-network vocabulary of the chaos harness.
	//
	// SiteConnDelay: Stall sleeps for the injection's Delay before the
	// write proceeds, simulating a congested or high-latency link.
	SiteConnDelay = "cluster.conn.delay"
	// SiteConnReset: the connection is closed mid-stream and the write
	// fails, simulating an RST that can tear a frame in half.
	SiteConnReset = "cluster.conn.reset"
	// SiteConnShortWrite: a prefix of the bytes reaches the wire before
	// the connection dies — the torn-frame case checksums must catch.
	SiteConnShortWrite = "cluster.conn.shortwrite"
	// SiteConnCorrupt: one bit of the written bytes is flipped in transit;
	// the frame checksum must detect it, never silently deserialize it.
	SiteConnCorrupt = "cluster.conn.corrupt"
	// SiteConnPartition: writes are silently blackholed for the
	// injection's Delay — a one-way partition that heals by itself. The
	// reads keep flowing, which is exactly the asymmetry heartbeat-based
	// liveness cannot see.
	SiteConnPartition = "cluster.conn.partition"
	// SiteColumnSync fires in vertexfile.File.CommitState between the
	// reconcile pass and the column msync; Error simulates the column
	// write-back failing, which must leave the header unsealed (still
	// running) — the durability-ordering rule the crash tests enforce.
	SiteColumnSync = "vertexfile.sync.columns"

	// The kill.* sites are consulted by Crash: when armed they terminate
	// the whole process with SIGKILL, the real thing rather than a
	// simulated error. Each fires once per superstep at a distinct point
	// of the commit protocol, so a torture plan can park a process death
	// at any instant of the durability state machine.
	//
	// SiteKillBeginActive: in Begin, after the active-set bitmap is
	// written and synced but before the header is sealed running.
	SiteKillBeginActive = "kill.begin.active"
	// SiteKillDispatch: in the engine, after all DISPATCH_OVER
	// notifications are collected (mid-superstep, update column dirty).
	SiteKillDispatch = "kill.dispatch"
	// SiteKillBarrier: in the engine, after the compute barrier acks
	// (superstep computed but not committed).
	SiteKillBarrier = "kill.barrier"
	// SiteKillCommitColumns: in CommitState, after the reconcile pass but
	// before the columns are synced.
	SiteKillCommitColumns = "kill.commit.columns"
	// SiteKillCommitSeal: in CommitState, after the columns are synced
	// but before the header seal — the window the digest check guards.
	SiteKillCommitSeal = "kill.commit.seal"
	// SiteKillCommitDone: in CommitState, after the sealed header is
	// synced (the superstep is durable; death here must lose nothing).
	SiteKillCommitDone = "kill.commit.done"

	// The serve.* sites fire inside the long-lived serving layer
	// (internal/serve), where the unit of failure is a whole job rather
	// than a superstep.
	//
	// SiteServeJobFail fires once per job execution attempt, before the
	// engine runs; Error simulates a transient job-tier failure (graph
	// momentarily unreadable, resource exhaustion) so tests can pin the
	// job manager's retry-with-backoff and the circuit breaker that
	// quarantines a repeatedly failing (graph, program) pair.
	SiteServeJobFail = "serve.job.fail"
	// SiteServeJournalSync fires in the job journal's append path; Error
	// simulates the journal fsync failing (disk full, I/O error) — the
	// submission must be refused rather than acknowledged undurably.
	SiteServeJournalSync = "serve.journal.sync"
	// SiteKillServeJournal is a kill.* site consulted with Crash after a
	// journal record is written but before it is synced: process death
	// with a possibly torn journal tail, which replay must tolerate.
	SiteKillServeJournal = "kill.serve.journal"

	// The cluster.node.kill.* sites simulate a cluster node dying abruptly
	// (in-process SIGKILL): consulted with Error, a firing makes the node
	// abandon the superstep without commit, close nothing gracefully, and
	// exit its control loop — the coordinator must detect the death and
	// drive rollback + replacement.
	//
	// SiteNodeKillDispatch fires once per vertex a node dispatches, so a
	// plan can park the death anywhere inside the dispatch stream. A
	// node's dispatchers run concurrently and share the hit count (as
	// in-process nodes do), so on a node owning more than one interval a
	// hit index names no reproducible vertex. What replays is the
	// recovered result, bit-identical wherever the death fell.
	SiteNodeKillDispatch = "cluster.node.kill.dispatch"
	// SiteNodeKillBarrier fires at the compute barrier, before the
	// node commits — mid-barrier death, update column dirty.
	SiteNodeKillBarrier = "cluster.node.kill.barrier"
	// SiteNodeKillMigrate fires when a node handles a MIGRATE frame
	// (extract on the donor, adopt on the recipient): the node dies
	// mid-migration, and the coordinator must roll the membership change
	// back through the ordinary rollback/replacement path.
	SiteNodeKillMigrate = "cluster.node.kill.migrate"

	// The cluster.migrate.* sites fire once per elastic-membership frame
	// (JOIN/MIGRATE/ROUTING) a sender puts on the wire, mirroring
	// the per-write cluster.conn.* vocabulary at frame granularity so a
	// plan can disturb exactly the Nth step of a migration.
	//
	// SiteMigrateStall: Stall sleeps for the injection's Delay before the
	// frame is written.
	SiteMigrateStall = "cluster.migrate.stall"
	// SiteMigrateReset: the connection is closed before the frame is
	// buffered; the sender sees a failed write, nothing reaches the wire.
	SiteMigrateReset = "cluster.migrate.reset"
	// SiteMigrateCorrupt: one bit of the frame is flipped after its
	// checksum is sealed; the receiver must reject it at decode.
	SiteMigrateCorrupt = "cluster.migrate.corrupt"
	// SiteMigrateShortWrite: a prefix of the frame reaches the wire and
	// the connection dies — the torn-frame case the length prefix and
	// checksum must surface.
	SiteMigrateShortWrite = "cluster.migrate.shortwrite"

	// The disk.* sites fire inside internal/diskio, the fault-injectable
	// storage layer every durability path routes file I/O through. They
	// model the hostile-disk vocabulary: writes hitting ENOSPC, reads and
	// syncs returning EIO, partial writes, syncs that tear, and sealed
	// bytes rotting at rest. Injected errors carry the matching typed
	// error (diskio.ErrDiskFull / diskio.ErrIOFailure) so callers exercise
	// the same classification paths a real kernel error would take.
	//
	// SiteDiskENOSPCCreate fires when a file is created or opened for
	// writing; Error simulates open(2) failing with ENOSPC.
	SiteDiskENOSPCCreate = "disk.enospc.create"
	// SiteDiskENOSPCWrite fires once per write call; Error simulates the
	// write failing with ENOSPC after zero bytes reached the file.
	SiteDiskENOSPCWrite = "disk.enospc.write"
	// SiteDiskENOSPCPreflight fires once per free-space probe
	// (diskio.FreeSpace); a firing makes the probe report zero bytes
	// free, so admission/adoption preflight gates can be exercised
	// without actually filling a disk.
	SiteDiskENOSPCPreflight = "disk.enospc.preflight"
	// SiteDiskENOSPCSync fires once per fsync; Error simulates the
	// write-back failing with ENOSPC (delayed allocation discovering the
	// disk is full only at flush time — the classic ext4/XFS trap).
	SiteDiskENOSPCSync = "disk.enospc.sync"
	// SiteDiskEIOWrite fires once per write call; Error simulates a
	// failing device (EIO) with nothing durable.
	SiteDiskEIOWrite = "disk.eio.write"
	// SiteDiskEIORead fires once per read call; Error simulates a read
	// returning EIO — a sector the device can no longer serve.
	SiteDiskEIORead = "disk.eio.read"
	// SiteDiskEIOSync fires once per fsync/msync on a durability path
	// (including the mmap layer's Sync/SyncRange under the vertex value
	// file); Error simulates the write-back failing with EIO, after which
	// the kernel may have dropped the dirty pages — the caller must treat
	// the on-disk state as unknown.
	SiteDiskEIOSync = "disk.eio.sync"
	// SiteDiskShortWrite fires once per write call: a prefix of the bytes
	// reaches the file and the call fails — the torn-record case journal
	// replay and checksums must surface.
	SiteDiskShortWrite = "disk.shortwrite.write"
	// SiteDiskTornSync fires once per fsync: the file's freshly written
	// tail is torn (truncated mid-record) before the sync reports failure,
	// simulating a power cut mid-write-back.
	SiteDiskTornSync = "disk.torn-sync.sync"
	// SiteDiskBitrot fires once per whole-file read through the diskio
	// layer: one bit of the returned bytes is flipped, simulating at-rest
	// corruption of sealed data. Checksums (vertexfile column digests, CSR
	// .sum sidecars, journal JSON framing) must detect it — the scrubber's
	// whole reason to exist.
	SiteDiskBitrot = "disk.bitrot.read"
)

// ErrInjected is matched (via errors.Is) by every error this package
// injects, letting callers distinguish injected faults from real ones.
var ErrInjected = errors.New("fault: injected failure")

type siteError struct{ site string }

func (e siteError) Error() string        { return "fault: injected failure at " + e.site }
func (e siteError) Is(target error) bool { return target == ErrInjected }

// PanicValue is the value Panic panics with, so recovery code and tests
// can recognize injected panics in failure messages.
type PanicValue struct{ Site string }

func (p PanicValue) String() string { return "fault: injected panic at " + p.Site }

// Injection arms one site.
type Injection struct {
	// Site names the injection site (see the Site* constants).
	Site string
	// After is the 1-based hit index at which the site starts firing.
	// Zero means 1: fire from the first hit.
	After int64
	// Count is how many hits fire once After is reached. Zero means 1;
	// negative means every hit from After on.
	Count int64
	// Prob, when in (0, 1), gates each eligible hit on a draw from the
	// plan's seeded random stream.
	Prob float64
	// Err overrides the injected error (default: a siteError matching
	// ErrInjected).
	Err error
	// Delay is how long Stall sites sleep when firing.
	Delay time.Duration
}

type armed struct {
	Injection
	hits  atomic.Int64
	fired atomic.Int64
}

// Plan is an immutable set of armed injections plus the seeded random
// stream shared by its probabilistic sites. Arm it with Activate.
type Plan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites map[string]*armed
}

// NewPlan builds a plan. One injection per site; a later injection for
// the same site replaces the earlier one.
func NewPlan(seed int64, injections ...Injection) *Plan {
	p := &Plan{rng: rand.New(rand.NewSource(seed)), sites: make(map[string]*armed)}
	for _, in := range injections {
		if in.After <= 0 {
			in.After = 1
		}
		if in.Count == 0 {
			in.Count = 1
		}
		p.sites[in.Site] = &armed{Injection: in}
	}
	return p
}

// Hits returns how many times site has been consulted under this plan.
func (p *Plan) Hits(site string) int64 {
	if a := p.sites[site]; a != nil {
		return a.hits.Load()
	}
	return 0
}

// Fired returns how many times site actually injected a fault.
func (p *Plan) Fired(site string) int64 {
	if a := p.sites[site]; a != nil {
		return a.fired.Load()
	}
	return 0
}

var active atomic.Pointer[Plan]

// enabled mirrors active != nil as a flag the site helpers test inline:
// a hot loop pays one atomic load per site when no plan is active, not a
// call. Activate and Deactivate set it beside active; a helper that sees
// it set still loads active, so a racing Deactivate only costs the slow
// path one nil check.
var enabled atomic.Bool

// Activate makes p the process-wide active plan. Passing nil is
// equivalent to Deactivate.
func Activate(p *Plan) {
	active.Store(p)
	enabled.Store(p != nil)
}

// Deactivate disarms fault injection; every site becomes a no-op again.
func Deactivate() {
	active.Store(nil)
	enabled.Store(false)
}

// Enabled reports whether a plan is active.
func Enabled() bool { return enabled.Load() }

// Firing describes one injected fault at a site.
type Firing struct {
	Site  string
	Err   error
	Delay time.Duration
}

// Hit consults a site: it returns nil when injection is disabled, the
// site is not armed, or the armed injection does not fire on this hit.
func Hit(site string) *Firing {
	p := active.Load()
	if p == nil {
		return nil
	}
	a, ok := p.sites[site]
	if !ok {
		return nil
	}
	n := a.hits.Add(1)
	if n < a.After {
		return nil
	}
	if a.Count > 0 && n >= a.After+a.Count {
		return nil
	}
	if a.Prob > 0 && a.Prob < 1 {
		p.mu.Lock()
		roll := p.rng.Float64()
		p.mu.Unlock()
		if roll >= a.Prob {
			return nil
		}
	}
	a.fired.Add(1)
	err := a.Err
	if err == nil {
		err = siteError{site: site}
	}
	return &Firing{Site: site, Err: err, Delay: a.Delay}
}

// Error returns the injected error when site fires, nil otherwise. The
// unarmed check inlines into the caller; the rest is out of line.
func Error(site string) error {
	if !enabled.Load() {
		return nil
	}
	return errorSlow(site)
}

//go:noinline
func errorSlow(site string) error {
	if f := Hit(site); f != nil {
		return f.Err
	}
	return nil
}

// Panic panics with a PanicValue when site fires. Like Error, it inlines
// to one flag test when no plan is armed.
func Panic(site string) {
	if !enabled.Load() {
		return
	}
	panicSlow(site)
}

//go:noinline
func panicSlow(site string) {
	if f := Hit(site); f != nil {
		panic(PanicValue{Site: site})
	}
}

// PanicN makes n consecutive Panic hits on site, stopping at the first
// that fires: a dispatcher sending one message along n edges books one
// hit per message, so a plan's hit index names the same message ordinal
// whether the messages were generated one by one or at once. Like Panic,
// it inlines to one flag test when no plan is armed.
func PanicN(site string, n int) {
	if !enabled.Load() {
		return
	}
	panicNSlow(site, n)
}

//go:noinline
func panicNSlow(site string, n int) {
	for range n {
		panicSlow(site)
	}
}

// Stall sleeps for the injection's Delay when site fires. Like Error, it
// inlines to one flag test when no plan is armed.
func Stall(site string) {
	if !enabled.Load() {
		return
	}
	stallSlow(site)
}

//go:noinline
func stallSlow(site string) {
	if f := Hit(site); f != nil && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
}

// Crash kills the whole process with SIGKILL when site fires: no
// deferred functions, no flushes, no exit handlers — the closest
// userspace gets to yanking the power cord. The torture harness arms
// kill.* sites through the environment (see ActivateFromEnv) to park a
// process death at an exact instant of the commit protocol.
func Crash(site string) {
	if f := Hit(site); f != nil {
		killSelf()
	}
}

// String implements fmt.Stringer for debugging.
func (f *Firing) String() string {
	return fmt.Sprintf("fault firing at %s (err=%v delay=%v)", f.Site, f.Err, f.Delay)
}
