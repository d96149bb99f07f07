package gpsa

import (
	"context"
	"time"

	"repro/internal/cluster"
)

// ClusterOptions tunes RunDistributed.
type ClusterOptions struct {
	// Nodes is the number of cluster nodes (default 2); small graphs may
	// run on fewer.
	Nodes int
	// Supersteps caps the run (0 = run to convergence, up to 100).
	Supersteps int
	// Context, when non-nil, cancels the run between supersteps.
	Context context.Context
	// StepRetries is the rollback-and-retry budget, mirroring
	// RunOptions.StepRetries for single-node runs: a superstep that loses
	// a node (crash, wedge, corrupt frame) is rolled back across the
	// cluster, the dead node replaced by a same-id node sealed at the
	// barrier (or retired, with RedistributeDead), and the
	// step retried — at most this many times per run. Zero fails fast.
	StepRetries int
	// HeartbeatInterval is how often idle nodes ping the coordinator
	// (0 = 500ms; negative disables).
	HeartbeatInterval time.Duration
	// NodeTimeout is how long the coordinator tolerates total silence
	// from a node before declaring it dead (0 = 15s; negative disables).
	NodeTimeout time.Duration
	// PhaseTimeout bounds heartbeat-only stretches inside a phase — the
	// wedged-node and one-way-partition detector (0 = 4x NodeTimeout;
	// negative disables).
	PhaseTimeout time.Duration
	// RecoveryTimeout bounds one rollback/replacement cycle (0 = 30s).
	RecoveryTimeout time.Duration
	// Splits is how many vertex intervals each initial node starts with
	// (0 = 1). Elastic membership migrates whole intervals, so Splits >= 2
	// gives joins and rebalancing sub-node granularity to move.
	Splits int
	// Events schedules elastic-membership operations — mid-job joins and
	// drains — at superstep barriers.
	Events []MembershipEvent
	// RedistributeDead retires a crashed node permanently while a member
	// survives: at the next barrier its intervals move out of its sealed
	// value file onto the survivors, instead of restarting a same-id
	// replacement.
	RedistributeDead bool
	// Rebalance runs the greedy edge-weight balancer at every barrier,
	// migrating intervals toward the balance point (free once balanced).
	Rebalance bool
}

// ClusterResult summarizes a distributed run.
type ClusterResult = cluster.Result

// MembershipEvent schedules a node join or drain at a superstep barrier.
type MembershipEvent = cluster.MembershipEvent

// Assignment is one row of the live interval -> node routing table.
type Assignment = cluster.Assignment

// Membership operations for ClusterOptions.Events.
const (
	OpJoin  = cluster.OpJoin
	OpDrain = cluster.OpDrain
)

// RunDistributed executes prog over the on-disk CSR graph at graphPath on
// an in-process TCP cluster — the paper's actor model extended across
// nodes. It returns the final payload of every vertex. Each node hosts
// edge-balanced vertex intervals with its own value file and streams
// them through the same interval scan and source-side fold as Run: one
// dispatch/fold pipeline drives both engines. Each node folds into one
// slab (8 B per vertex plus a presence bitmap) and sends each (source
// interval, destination) pair at most once per superstep. Cross-node
// messages travel over loopback TCP; each node stages what it receives
// and applies it at its own barrier in source-interval order, so a
// retried superstep is bit-identical.
func RunDistributed(graphPath string, prog Program, opts ClusterOptions) (*ClusterResult, []uint64, error) {
	policy := cluster.RestartDead
	if opts.RedistributeDead {
		policy = cluster.RedistributeDead
	}
	return cluster.Run(graphPath, prog, cluster.Config{
		Context:           opts.Context,
		Nodes:             opts.Nodes,
		MaxSupersteps:     opts.Supersteps,
		StepRetries:       opts.StepRetries,
		HeartbeatInterval: opts.HeartbeatInterval,
		NodeTimeout:       opts.NodeTimeout,
		PhaseTimeout:      opts.PhaseTimeout,
		RecoveryTimeout:   opts.RecoveryTimeout,
		Splits:            opts.Splits,
		Events:            opts.Events,
		DeadNodes:         policy,
		Rebalance:         opts.Rebalance,
	})
}
