package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mmap"
)

// Config tunes a distributed run.
type Config struct {
	// Context, when non-nil, cancels the run between supersteps: the
	// coordinator stops issuing superstep starts and halts the nodes. The
	// last committed superstep stays durable in each node's value file.
	Context context.Context
	// Nodes is the number of cluster nodes (default 2). Small graphs may
	// yield fewer (interval boundaries snap to the file index).
	Nodes int
	// MaxSupersteps caps the run (default 100).
	MaxSupersteps int
	// Node tunes each node.
	Node NodeConfig
	// WorkDir holds per-node value files (default: temp, removed after).
	WorkDir string
	// HeartbeatInterval is how often idle nodes ping the coordinator
	// (default 500ms; negative disables).
	HeartbeatInterval time.Duration
	// NodeTimeout is how long the coordinator tolerates total silence
	// from a node — no protocol frame and no heartbeat — before declaring
	// it dead (default 15s; negative disables).
	NodeTimeout time.Duration
	// PhaseTimeout bounds how long a node may heartbeat without making
	// protocol progress in a phase before the superstep is failed — the
	// wedged-node and one-way-partition detector (default 4x NodeTimeout;
	// negative disables).
	PhaseTimeout time.Duration
	// RecoveryTimeout bounds one rollback/replacement cycle: survivors must
	// acknowledge the rollback and a replacement node must dial back in
	// within it (default 30s).
	RecoveryTimeout time.Duration
	// StepRetries is the run's rollback-and-retry budget, mirroring
	// core.Config.MaxStepRetries: a failed superstep (dead node, wedged
	// phase, corrupt frame) is rolled back across the cluster — dead
	// nodes replaced by same-id nodes that seal their value file at the
	// barrier, or retired under RedistributeDead — and retried, at most
	// this many times per run. Zero (the default) fails fast on the first
	// fault.
	StepRetries int
	// Splits is how many vertex intervals each initial node starts with
	// (default 1). The partition is fixed for the life of the job —
	// determinism hangs off that — so Splits bounds migration
	// granularity: joins and rebalancing need Splits >= 2 to have
	// anything to move without emptying a donor.
	Splits int
	// Events schedules elastic-membership operations (joins, drains) at
	// superstep barriers. Events are applied in Step order; ids for
	// joined nodes are assigned in order above Nodes.
	Events []MembershipEvent
	// DeadNodes selects the recovery policy for nodes whose control
	// connection dies: RestartDead (default) boots a same-id replacement;
	// RedistributeDead retires the dead node and, at the next barrier,
	// moves its intervals out of its sealed value file onto the survivors
	// (N -> N-1 degradation).
	DeadNodes DeadNodePolicy
	// Rebalance, when set, runs the greedy edge-weight balancer at every
	// barrier and migrates intervals toward the balance point (a no-op —
	// zero frames — once balanced).
	Rebalance bool
}

// MaxWorkers bounds Nodes×Splits with core's worker bound: every node
// costs connections and a value file, and every interval partition and
// staging work, before the first superstep, so an absurd size would
// exhaust memory or spin instead of failing.
const MaxWorkers = core.MaxWorkers

// SizeError is Run's typed error for a size past MaxWorkers. Field names
// the Config field: "Nodes" or "Splits" (Nodes×Splits too large).
type SizeError struct {
	Field string
	Value int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("cluster: %s %d too large: Nodes×Splits is at most %d", e.Field, e.Value, MaxWorkers)
}

// Run executes prog over the on-disk CSR graph at graphPath on an
// in-process TCP cluster and returns the run summary plus every vertex's
// final payload. All cross-node state flows through the wire protocol.
func Run(graphPath string, prog core.Program, cfg Config) (*Result, []uint64, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 100
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.NodeTimeout == 0 {
		cfg.NodeTimeout = 15 * time.Second
	}
	if cfg.PhaseTimeout == 0 && cfg.NodeTimeout > 0 {
		cfg.PhaseTimeout = 4 * cfg.NodeTimeout
	}
	if cfg.RecoveryTimeout == 0 {
		cfg.RecoveryTimeout = 30 * time.Second
	}
	workDir := cfg.WorkDir
	if workDir == "" {
		dir, err := os.MkdirTemp("", "gpsa-cluster-*")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		workDir = dir
	}

	if cfg.Splits <= 0 {
		cfg.Splits = 1
	}
	switch {
	case cfg.Nodes > MaxWorkers:
		return nil, nil, &SizeError{Field: "Nodes", Value: cfg.Nodes}
	case cfg.Splits > MaxWorkers/cfg.Nodes:
		return nil, nil, &SizeError{Field: "Splits", Value: cfg.Splits}
	}
	joins := 0
	for _, ev := range cfg.Events {
		if ev.Op != OpJoin && ev.Op != OpDrain {
			return nil, nil, fmt.Errorf("cluster: unknown membership op %d", int(ev.Op))
		}
		if ev.Step < 0 {
			return nil, nil, fmt.Errorf("cluster: membership event at negative step %d", ev.Step)
		}
		if ev.Op == OpJoin {
			joins++
		}
	}
	events := append([]MembershipEvent(nil), cfg.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Step < events[j].Step })

	// Partition the vertex space by edge count into a FIXED interval
	// table: Splits intervals per initial node. Membership changes move
	// whole intervals between nodes; the partition itself — and with it
	// batch boundaries, combine groups, and fold order — never changes,
	// which is why an elastic run stays bit-identical to a fixed one.
	gf, err := graph.OpenFile(graphPath, mmap.ModeAuto)
	if err != nil {
		return nil, nil, err
	}
	intervals := gf.Partition(cfg.Nodes * cfg.Splits)
	numVertices := gf.NumVertices
	if err := gf.Close(); err != nil {
		return nil, nil, err
	}
	nivs := len(intervals)
	initial := cfg.Nodes
	if nivs < initial {
		initial = nivs // tiny graph: index snapping yielded fewer intervals
	}
	total := initial + joins // node id space
	owners := make([]int, nivs)
	weights := make([]int64, nivs)
	for iv := range intervals {
		owners[iv] = iv * initial / nivs // contiguous runs, ascending
		weights[iv] = intervals[iv].Edges
	}

	coord, err := newCoordinator("", initial, total, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer coord.halt()
	coord.ivs = intervals
	coord.owners = owners
	coord.weights = weights
	coord.policy = cfg.DeadNodes
	coord.events = events
	coord.rebalance = cfg.Rebalance

	// Boot the nodes; each control loop runs as a supervised actor, so a
	// panicking node surfaces as a collected failure instead of crashing
	// the process. refs always tracks the CURRENT incarnation of each
	// node: recovery replaces a dead node's entry, and the end-of-run
	// check consults refs — not the system-wide failure list — because a
	// recovered-from incarnation's death is not an error of this run.
	sys := actor.NewSystemContext(cfg.Context, "cluster-nodes", actor.RestartPolicy{})
	refs := make([]*actor.Ref, total)
	nodePath := func(id int) string {
		return filepath.Join(workDir, fmt.Sprintf("node-%d.gpvf", id))
	}
	coord.boot = func(id int, step int64, mode bootMode) error {
		// A replacement reopens (or a joiner's retry truncates) the dead
		// incarnation's value file, so the old incarnation must have
		// finished tearing down (the coordinator closed its control
		// connection; its exit is bounded by its own phase timeouts)
		// before the new one maps it.
		if old := refs[id]; old != nil {
			if err := awaitRef(old, cfg.RecoveryTimeout); err != nil {
				return err
			}
		}
		n, err := startNode(sys.Context(), nodeSpec{
			id:         id,
			total:      total,
			coordAddr:  coord.addr(),
			graphPath:  graphPath,
			valuesPath: nodePath(id),
			prog:       prog,
			ivs:        intervals,
			owners:     coord.owners,
			cfg:        cfg.Node,
			heartbeat:  cfg.HeartbeatInterval,
			mode:       mode,
			step:       step,
		})
		if err != nil {
			return fmt.Errorf("cluster: starting node %d: %w", id, err)
		}
		refs[id] = sys.SpawnFunc(fmt.Sprintf("node-%d", id), n.runNode)
		return nil
	}
	coord.salvage = func(id int, step int64, iv graph.Interval) ([]byte, error) {
		if err := awaitRef(refs[id], cfg.RecoveryTimeout); err != nil {
			return nil, err
		}
		vf, err := sealedAt(nodePath(id), step)
		if err != nil {
			return nil, err
		}
		blob, err := vf.ExtractInterval(iv.FirstVertex, iv.EndVertex)
		if cerr := vf.Close(); err == nil {
			err = cerr
		}
		return blob, err
	}
	for i := 0; i < initial; i++ {
		if err := coord.boot(i, 0, bootFresh); err != nil {
			return nil, nil, err
		}
	}
	if err := coord.accept(); err != nil {
		return nil, nil, err
	}

	res, values, err := coord.run(cfg.Context, cfg.MaxSupersteps, numVertices)
	if err != nil {
		// Enrich the coordinator's error with any node failure already
		// collected; Failures snapshots without blocking on stragglers.
		if fs := sys.Failures(); len(fs) > 0 {
			return res, nil, fmt.Errorf("%w (node error: %v)", err, fs[0].Err)
		}
		return res, nil, err
	}
	if cerr := coord.Close(); cerr != nil {
		return res, values, cerr
	}
	for id, r := range refs {
		if r == nil {
			continue // a join slot whose event never fired
		}
		if err := awaitRef(r, cfg.NodeTimeout); err != nil {
			return res, values, err
		}
		if !coord.live[id] {
			// Retired mid-run: a drained node exits cleanly on HALT, and a
			// retired dead node's final error was already recovered from —
			// neither is an error of this run.
			continue
		}
		if rerr := r.Err(); rerr != nil {
			return res, values, fmt.Errorf("cluster: node %d failed: %w", id, rerr)
		}
	}
	return res, values, nil
}

// awaitRef waits (bounded) for one actor incarnation to finish.
func awaitRef(r *actor.Ref, timeout time.Duration) error {
	if timeout <= 0 {
		<-r.Done()
		return nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-r.Done():
		return nil
	case <-t.C:
		return fmt.Errorf("cluster: actor %s still running after %v", r.Name(), timeout)
	}
}
