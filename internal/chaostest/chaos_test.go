package chaostest

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
)

var fx *Fixture

func TestMain(m *testing.M) {
	var err error
	fx, err = NewFixture()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	fx.Close()
	os.Exit(code)
}

// runScenario executes one seeded chaos schedule and holds the disturbed
// run to the undisturbed baseline, bit for bit. It logs the price of the
// disturbance — both wall clocks, their difference, and the recovery
// counters — and returns the plan so callers can count firings.
func runScenario(t *testing.T, sc Scenario) *fault.Plan {
	t.Helper()
	want, baseWall, err := fx.Baseline(sc.Baseline, sc.Prog, sc.Symmetric, sc.MaxSupersteps, sc.Splits)
	if err != nil {
		t.Fatal(err)
	}
	rollbacks0 := metrics.Counter(metrics.CtrClusterRollbacks)
	rejoins0 := metrics.Counter(metrics.CtrClusterRejoins)
	migrations0 := metrics.Counter(metrics.CtrClusterMigrations)
	redist0 := metrics.Counter(metrics.CtrClusterRedistributions)
	joins0 := metrics.Counter(metrics.CtrClusterJoins)
	drains0 := metrics.Counter(metrics.CtrClusterDrains)

	plan := fault.NewPlan(sc.Seed, sc.Injections...)
	fault.Activate(plan)
	defer fault.Deactivate()
	t0 := time.Now()
	res, values, err := cluster.Run(fx.Graph(sc.Symmetric), sc.Prog, sc.ClusterConfig())
	wall := time.Since(t0)
	fault.Deactivate()
	if err != nil {
		t.Fatalf("disturbed run failed: %v", err)
	}
	t.Logf("recovery cost: disturbed %v, baseline %v, difference %v; rollbacks %d, rejoins %d, redistributions %d",
		wall.Round(time.Millisecond), baseWall.Round(time.Millisecond), (wall - baseWall).Round(time.Millisecond),
		res.Rollbacks, res.Rejoins, res.Redistributions)
	if len(values) != len(want) {
		t.Fatalf("disturbed run returned %d values, baseline %d", len(values), len(want))
	}
	for v := range want {
		if values[v] != want[v] {
			t.Fatalf("vertex %d: %#x, want %#x (not bit-identical to the undisturbed baseline)", v, values[v], want[v])
		}
	}
	for _, in := range sc.Injections {
		if plan.Fired(in.Site) == 0 {
			t.Fatalf("chaos site %s armed but never fired (hits %d); the schedule tested nothing", in.Site, plan.Hits(in.Site))
		}
	}
	assertCounter := func(what string, resCount int64, name string, before int64) {
		t.Helper()
		if resCount == 0 {
			t.Fatalf("scenario expected %s, result reports none", what)
		}
		if got := metrics.Counter(name); got <= before {
			t.Fatalf("%s metric did not advance (%d -> %d)", name, before, got)
		}
	}
	if sc.WantRollbacks {
		assertCounter("superstep rollbacks", res.Rollbacks, metrics.CtrClusterRollbacks, rollbacks0)
	}
	if sc.WantRejoins {
		assertCounter("node rejoins", res.Rejoins, metrics.CtrClusterRejoins, rejoins0)
	}
	if sc.WantMigrations {
		assertCounter("interval migrations", res.Migrations, metrics.CtrClusterMigrations, migrations0)
	}
	if sc.WantRedistributions {
		assertCounter("dead-node redistributions", res.Redistributions, metrics.CtrClusterRedistributions, redist0)
	}
	if sc.WantJoins {
		assertCounter("node joins", res.Joins, metrics.CtrClusterJoins, joins0)
	}
	if sc.WantDrains {
		assertCounter("node drains", res.Drains, metrics.CtrClusterDrains, drains0)
	}
	if sc.NoRejoins && res.Rejoins != 0 {
		t.Fatalf("run replaced %d nodes, want none: the faults should have been survivable step failures", res.Rejoins)
	}
	if sc.WantLive > 0 && res.LiveNodes != sc.WantLive {
		t.Fatalf("run ended with %d live members, want %d", res.LiveNodes, sc.WantLive)
	}
	if len(res.Assignments) == 0 {
		t.Fatal("result carries no interval assignment table")
	}
	return plan
}

// TestChaosSmoke is the always-on slice of the torture schedule: one node
// killed at the compute barrier of a 3-node CC job — after some nodes
// have already committed the superstep, so the retry exercises both
// Rewind (committed survivors) and the replacement's JOIN handshake.
// Runs with the ordinary test suite; the full schedule is `make chaos`.
func TestChaosSmoke(t *testing.T) {
	runScenario(t, Scenario{
		Name:          "smoke-cc-kill-mid-barrier",
		Prog:          algorithms.ConnectedComponents{},
		Baseline:      "cc",
		Symmetric:     true,
		MaxSupersteps: 100,
		Seed:          3,
		Injections:    []fault.Injection{{Site: fault.SiteNodeKillBarrier, After: 2}},
		WantRollbacks: true,
		WantRejoins:   true,
	})
}

// TestChaosSmokeSlabReset drops a burst of data-plane writes on a 3-node
// PageRank job, longer than a sender's redial budget: a dispatch phase
// fails mid-walk of its slab as a step failure the node survives, and the
// superstep rolls back and retries. It pins rollbackStep's slab clear —
// partial sums left set by the aborted walk would fold into the retry.
// Only a sum fold can catch that: min is idempotent, so the CC scenarios
// pass either way. Runs as part of the `make check` chaos slice.
func TestChaosSmokeSlabReset(t *testing.T) {
	runScenario(t, Scenario{
		Name:          "smoke-pagerank-dispatch-step-failure",
		Prog:          algorithms.PageRank{},
		Baseline:      "pagerank",
		MaxSupersteps: 5,
		Seed:          5,
		Injections:    []fault.Injection{{Site: fault.SiteConnDrop, After: 20, Count: 12}},
		WantRollbacks: true,
		NoRejoins:     true,
	})
}

// TestChaosMigrationSmoke is the always-on slice of the elastic-
// membership schedule: a 3-node CC job with 4 intervals per node drains
// node 1 at the superstep-2 barrier — every interval it owns live-
// migrates to the survivors mid-job — and the run must still end
// bit-identical to a fixed-membership baseline that never migrated
// anything. Runs with the ordinary test suite and as the `make check`
// chaos slice.
func TestChaosMigrationSmoke(t *testing.T) {
	runScenario(t, Scenario{
		Name:           "smoke-cc-drain-under-load",
		Prog:           algorithms.ConnectedComponents{},
		Baseline:       "cc-s4",
		Symmetric:      true,
		MaxSupersteps:  100,
		Seed:           31,
		Splits:         4,
		Events:         []cluster.MembershipEvent{{Step: 2, Op: cluster.OpDrain, Node: 1}},
		WantMigrations: true,
		WantDrains:     true,
		WantLive:       2,
	})
}

// TestChaosElastic is the always-on elastic-membership schedule: node
// replacement after permanent death (one node, and two in the same
// superstep), a mid-job join, a drain under load,
// and a node killed in the middle of a migration. Every disturbed run
// must end bit-identical to its undisturbed fixed-membership baseline,
// with the membership machinery provably exercised via the cluster.*
// counters.
func TestChaosElastic(t *testing.T) {
	pagerank := algorithms.PageRank{}
	cc := algorithms.ConnectedComponents{}

	scenarios := []Scenario{
		{
			// A node dies for good mid-dispatch: under RedistributeDead it is
			// retired, and at the next barrier its intervals move out of its
			// sealed value file onto the survivors — the cluster finishes
			// the job with 2 members and no replacement ever boots.
			Name: "cc-replace-after-permanent-death", Prog: cc, Baseline: "cc-s4", Symmetric: true, MaxSupersteps: 100, Seed: 33,
			Splits:        4,
			Redistribute:  true,
			Injections:    []fault.Injection{{Site: fault.SiteNodeKillDispatch, After: 17}},
			WantRollbacks: true, WantRedistributions: true, WantLive: 2,
		},
		{
			// Two nodes die in the same superstep under RedistributeDead:
			// recovery retires both while the third survives, and at the
			// next barrier every orphaned interval moves out of the dead
			// nodes' sealed files onto the one member left.
			Name: "cc-redistribute-double-death", Prog: cc, Baseline: "cc-s4", Symmetric: true, MaxSupersteps: 100, Seed: 40,
			Splits:        4,
			Redistribute:  true,
			Injections:    []fault.Injection{{Site: fault.SiteNodeKillDispatch, After: 17, Count: 2}},
			WantRollbacks: true, WantRedistributions: true, WantLive: 1,
		},
		{
			// A brand-new node joins at the superstep-2 barrier: it boots a
			// fresh value file at the join epoch, enters with JOIN, and
			// receives intervals from live donors.
			Name: "pagerank-join-mid-job", Prog: pagerank, Baseline: "pagerank-s4", MaxSupersteps: 5, Seed: 34,
			Splits:    4,
			Events:    []cluster.MembershipEvent{{Step: 2, Op: cluster.OpJoin}},
			WantJoins: true, WantMigrations: true, WantLive: 4,
		},
		{
			// Drain under load on the short PageRank job: migrations land
			// between scored supersteps, not after convergence.
			Name: "pagerank-drain-under-load", Prog: pagerank, Baseline: "pagerank-s4", MaxSupersteps: 5, Seed: 35,
			Splits:     4,
			Events:     []cluster.MembershipEvent{{Step: 2, Op: cluster.OpDrain, Node: 2}},
			WantDrains: true, WantMigrations: true, WantLive: 2,
		},
		{
			// The donor is killed handling the very first MIGRATE frame of a
			// drain: recovery replaces it with a same-id node sealed at the
			// barrier, and the drain reruns there to completion.
			Name: "cc-kill-mid-migration", Prog: cc, Baseline: "cc-s4", Symmetric: true, MaxSupersteps: 100, Seed: 36,
			Splits:        4,
			Events:        []cluster.MembershipEvent{{Step: 2, Op: cluster.OpDrain, Node: 2}},
			Injections:    []fault.Injection{{Site: fault.SiteNodeKillMigrate, After: 1}},
			WantRollbacks: true, WantRejoins: true, WantMigrations: true, WantDrains: true, WantLive: 2,
		},
		{
			// A migration frame is bit-flipped in transit: the CRC32C check
			// rejects it, the fault is absorbed as a rollback, and the drain
			// still completes bit-exactly.
			Name: "cc-migrate-corrupt-frame", Prog: cc, Baseline: "cc-s4", Symmetric: true, MaxSupersteps: 100, Seed: 37,
			Splits:        4,
			Events:        []cluster.MembershipEvent{{Step: 2, Op: cluster.OpDrain, Node: 1}},
			Injections:    []fault.Injection{{Site: fault.SiteMigrateCorrupt, After: 2}},
			WantRollbacks: true, WantMigrations: true, WantDrains: true, WantLive: 2,
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) { runScenario(t, sc) })
	}
}

// TestChaosTorture is the full seeded network-torture schedule
// (`make chaos`): randomized node kills mid-dispatch and mid-barrier,
// one-way partitions healing after jitter, connection resets, torn and
// bit-flipped frames — across PageRank, BFS, and CC on a 3-node
// in-process cluster. Every disturbed run must end bit-identical to the
// undisturbed baseline, and the schedule as a whole must inject at least
// ten kills and partitions.
func TestChaosTorture(t *testing.T) {
	if os.Getenv("GPSA_CHAOS") == "" {
		t.Skip("full chaos torture is opt-in: set GPSA_CHAOS=1 (make chaos)")
	}
	pagerank := algorithms.PageRank{}
	bfs := algorithms.BFS{Root: 0}
	cc := algorithms.ConnectedComponents{}

	scenarios := []Scenario{
		{
			Name: "cc-kill-mid-dispatch", Prog: cc, Baseline: "cc", Symmetric: true, MaxSupersteps: 100, Seed: 11,
			Injections:    []fault.Injection{{Site: fault.SiteNodeKillDispatch, After: 17}},
			WantRollbacks: true, WantRejoins: true,
		},
		{
			Name: "cc-kill-mid-dispatch-double", Prog: cc, Baseline: "cc", Symmetric: true, MaxSupersteps: 100, Seed: 12,
			Injections:    []fault.Injection{{Site: fault.SiteNodeKillDispatch, After: 123, Count: 2}},
			WantRollbacks: true, WantRejoins: true,
		},
		{
			Name: "pagerank-kill-mid-dispatch", Prog: pagerank, Baseline: "pagerank", MaxSupersteps: 5, Seed: 13,
			Injections:    []fault.Injection{{Site: fault.SiteNodeKillDispatch, After: 61}},
			WantRollbacks: true, WantRejoins: true,
		},
		{
			Name: "pagerank-kill-mid-barrier", Prog: pagerank, Baseline: "pagerank", MaxSupersteps: 5, Seed: 14,
			Injections:    []fault.Injection{{Site: fault.SiteNodeKillBarrier, After: 7}},
			WantRollbacks: true, WantRejoins: true,
		},
		{
			Name: "bfs-kill-mid-barrier", Prog: bfs, Baseline: "bfs", MaxSupersteps: 100, Seed: 15,
			Injections:    []fault.Injection{{Site: fault.SiteNodeKillBarrier, After: 4}},
			WantRollbacks: true, WantRejoins: true,
		},
		{
			Name: "bfs-kill-mid-dispatch-double", Prog: bfs, Baseline: "bfs", MaxSupersteps: 100, Seed: 16,
			Injections:    []fault.Injection{{Site: fault.SiteNodeKillDispatch, After: 60, Count: 2}},
			WantRollbacks: true, WantRejoins: true,
		},
		{
			Name: "cc-oneway-partition", Prog: cc, Baseline: "cc", Symmetric: true, MaxSupersteps: 100, Seed: 17,
			Injections: []fault.Injection{{Site: fault.SiteConnPartition, After: 40, Delay: 150 * time.Millisecond}},
		},
		{
			Name: "pagerank-oneway-partition", Prog: pagerank, Baseline: "pagerank", MaxSupersteps: 5, Seed: 18,
			Injections: []fault.Injection{{Site: fault.SiteConnPartition, After: 25, Delay: 300 * time.Millisecond}},
		},
		{
			Name: "cc-oneway-partition-double", Prog: cc, Baseline: "cc", Symmetric: true, MaxSupersteps: 100, Seed: 19,
			Injections: []fault.Injection{{Site: fault.SiteConnPartition, After: 90, Count: 2, Delay: 450 * time.Millisecond}},
		},
		{
			Name: "cc-conn-reset", Prog: cc, Baseline: "cc", Symmetric: true, MaxSupersteps: 100, Seed: 21,
			Injections: []fault.Injection{{Site: fault.SiteConnReset, After: 25}},
		},
		{
			Name: "cc-torn-frame-short-write", Prog: cc, Baseline: "cc", Symmetric: true, MaxSupersteps: 100, Seed: 22,
			Injections: []fault.Injection{{Site: fault.SiteConnShortWrite, After: 30}},
		},
		{
			Name: "cc-slow-link", Prog: cc, Baseline: "cc", Symmetric: true, MaxSupersteps: 100, Seed: 23,
			Injections: []fault.Injection{{Site: fault.SiteConnDelay, After: 15, Count: 3, Delay: 300 * time.Millisecond}},
		},
		{
			// Elastic churn with the weight balancer on: a join at step 1
			// hands the newcomer intervals, the balancer keeps the spread
			// tight afterwards, and a kill in a later dispatch phase rolls
			// back over the post-migration routing table.
			Name: "cc-join-rebalance-kill", Prog: cc, Baseline: "cc-s4", Symmetric: true, MaxSupersteps: 100, Seed: 24,
			Splits:     4,
			Events:     []cluster.MembershipEvent{{Step: 1, Op: cluster.OpJoin}},
			Rebalance:  true,
			Injections: []fault.Injection{{Site: fault.SiteNodeKillDispatch, After: 200}},
			WantJoins:  true, WantMigrations: true, WantRollbacks: true, WantRejoins: true,
		},
		{
			// A connection reset injected on a membership frame: the drain's
			// MIGRATE exchange dies mid-flight and reruns after recovery.
			Name: "pagerank-migrate-reset", Prog: pagerank, Baseline: "pagerank-s4", MaxSupersteps: 5, Seed: 25,
			Splits:        4,
			Events:        []cluster.MembershipEvent{{Step: 1, Op: cluster.OpDrain, Node: 0}},
			Injections:    []fault.Injection{{Site: fault.SiteMigrateReset, After: 3}},
			WantRollbacks: true, WantMigrations: true, WantDrains: true, WantLive: 2,
		},
		{
			// A torn membership frame: the receiver sees a truncated frame
			// and the checksummed framing refuses it.
			Name: "cc-migrate-short-write", Prog: cc, Baseline: "cc-s4", Symmetric: true, MaxSupersteps: 100, Seed: 26,
			Splits:        4,
			Events:        []cluster.MembershipEvent{{Step: 2, Op: cluster.OpDrain, Node: 1}},
			Injections:    []fault.Injection{{Site: fault.SiteMigrateShortWrite, After: 2}},
			WantRollbacks: true, WantMigrations: true, WantDrains: true, WantLive: 2,
		},
	}

	var disturbances int64
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			plan := runScenario(t, sc)
			disturbances += FiredDisturbances(plan)
		})
	}
	if t.Failed() {
		return
	}
	if disturbances < 10 {
		t.Fatalf("schedule injected %d kills+partitions, want >= 10", disturbances)
	}
	if metrics.Counter(metrics.CtrClusterRollbacks) == 0 || metrics.Counter(metrics.CtrClusterRejoins) == 0 {
		t.Fatalf("torture ended with rollbacks=%d rejoins=%d; the recovery machinery was never exercised",
			metrics.Counter(metrics.CtrClusterRollbacks), metrics.Counter(metrics.CtrClusterRejoins))
	}
}

// TestChaosCorruptFrameDetected bit-flips one frame in transit: the
// CRC32C checksum must reject it (counted by the cluster.checksum_failures
// metric), the recovery path must absorb the loss, and the final values
// must still be bit-identical — corruption is never silently applied.
func TestChaosCorruptFrameDetected(t *testing.T) {
	c0 := metrics.Counter(metrics.CtrClusterChecksumFailures)
	runScenario(t, Scenario{
		Name:          "cc-corrupt-frame",
		Prog:          algorithms.ConnectedComponents{},
		Baseline:      "cc",
		Symmetric:     true,
		MaxSupersteps: 100,
		Seed:          20,
		Injections:    []fault.Injection{{Site: fault.SiteConnCorrupt, After: 33}},
	})
	if got := metrics.Counter(metrics.CtrClusterChecksumFailures); got <= c0 {
		t.Fatalf("cluster.checksum_failures did not advance (%d -> %d): the flipped frame was not caught", c0, got)
	}
}
