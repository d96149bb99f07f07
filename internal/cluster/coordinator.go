package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// StepStats records one distributed superstep.
type StepStats struct {
	Step      int64
	Messages  int64 // generated across all nodes
	Delivered int64 // delivered after combining (local + wire)
	Updates   int64
	Duration  time.Duration
}

// Result summarizes a distributed run.
type Result struct {
	Nodes           int // initial cluster size
	LiveNodes       int // members at the end of the run (joins and drains shift it)
	Supersteps      int
	Converged       bool
	Messages        int64
	Delivered       int64
	Updates         int64
	Rollbacks       int64 // superstep rollback-and-retry cycles this run survived
	Rejoins         int64 // dead nodes replaced by a same-id node admitted through JOIN
	Migrations      int64 // intervals moved live between nodes (join/drain/rebalance)
	Redistributions int64 // intervals of permanently dead nodes salvaged to survivors
	Joins           int64 // new nodes absorbed mid-job
	Drains          int64 // nodes shed cleanly mid-job
	Duration        time.Duration
	Steps           []StepStats
	// Assignments is the final interval -> node table, the live routing
	// state a rebalance or membership change would otherwise leave
	// invisible.
	Assignments []Assignment
}

// Assignment is one row of the interval -> node routing table.
type Assignment struct {
	Interval   int
	First, End int64 // vertex range [First, End)
	Node       int
}

// DeadNodePolicy selects how the coordinator handles a node whose
// control connection died mid-run.
type DeadNodePolicy int

const (
	// RestartDead boots a same-id replacement that seals the dead node's
	// value file at the barrier epoch and enters with JOIN — it needs the
	// node's storage (and id) to come back.
	RestartDead DeadNodePolicy = iota
	// RedistributeDead retires a dead node for good while at least one
	// member with a live connection remains: at the next barrier its
	// intervals move out of its sealed value file onto the least-loaded
	// members, so the cluster degrades from N to N-1 instead of waiting
	// for a restart. A dead node with no survivor left is restarted as
	// under RestartDead.
	RedistributeDead
)

// MembershipOp is a planned elastic-membership operation.
type MembershipOp int

const (
	// OpJoin adds a brand-new node to the running job; it receives
	// intervals via live migration. Join ids are assigned in order above
	// the initial node count.
	OpJoin MembershipOp = iota + 1
	// OpDrain migrates every interval off a node and sheds it cleanly.
	OpDrain
)

func (o MembershipOp) String() string {
	switch o {
	case OpJoin:
		return "join"
	case OpDrain:
		return "drain"
	}
	return fmt.Sprintf("MembershipOp(%d)", int(o))
}

// MembershipEvent schedules one membership operation at the barrier
// before superstep Step (or the first barrier after it, if the run is
// mid-recovery at that instant).
type MembershipEvent struct {
	Step int64
	Op   MembershipOp
	// Node is the node to drain (OpDrain); ignored for OpJoin.
	Node int
}

// stepFault is a barrier failure the recovery protocol can handle: err
// is the first fault observed, dead lists the nodes whose control
// connections are gone (as opposed to nodes that reported a retryable
// failure and are still alive, awaiting the rollback).
type stepFault struct {
	err  error
	dead []int
}

func (f *stepFault) Error() string { return f.err.Error() }
func (f *stepFault) Unwrap() error { return f.err }

func (f *stepFault) fail(i int, err error, dead bool) {
	if f.err == nil {
		f.err = err
	}
	if dead {
		f.dead = append(f.dead, i)
	}
}

// nodeFault is the stepFault of a single failing node.
func nodeFault(i int, err error, dead bool) *stepFault {
	f := &stepFault{}
	f.fail(i, err, dead)
	return f
}

// coordinator is the distributed manager: it owns the control connections
// and drives the paper's superstep protocol across nodes — extended here
// with the failure-model state machine: detect (liveness and progress
// timeouts, STEP_FAILED reports, corrupt frames) -> rollback (every
// survivor discards the attempt) -> replace or retire (a dead node's
// same-id replacement seals its value file at the barrier and enters
// with JOIN, or the node is retired and its intervals move at the next
// barrier) -> retry (the barrier runs again under a fresh round number).
type coordinator struct {
	ln    net.Listener
	nodes []*conn  // indexed by node id
	addrs []string // data-plane address book, refreshed on every entry

	// timeout bounds how long any node may go completely silent on the
	// control plane (heartbeats count as liveness). Zero disables.
	timeout time.Duration
	// phaseTimeout bounds how long a node may withhold protocol progress
	// even while heartbeating — the wedge and one-way-partition detector.
	// Zero disables.
	phaseTimeout time.Duration
	// recoveryTimeout bounds one rollback/replacement cycle.
	recoveryTimeout time.Duration
	// stepRetries is the run's rollback-and-retry budget, mirroring
	// core.Config.MaxStepRetries. Zero fails fast on the first fault.
	stepRetries int

	// round numbers superstep attempts across the whole run; every
	// rollback bumps it so stragglers from an aborted attempt are
	// droppable on arrival at any node.
	round uint64

	// boot starts node id sealed at barrier epoch step — a joiner's fresh
	// file (bootJoin) or a replacement's recovered one (bootReplace) — and
	// the node then dials in with JOIN for admit.
	boot func(id int, step int64, mode bootMode) error
	// salvage extracts interval iv from retired node id's value file,
	// sealed at epoch step.
	salvage func(id int, step int64, iv graph.Interval) ([]byte, error)

	// The elastic-membership routing state. ivs is the fixed partition
	// (it never changes for the life of the job — determinism hangs off
	// that); owners maps interval -> owning node and is the one table
	// move rewrites; weights is each interval's edge count, the load
	// measure join/drain/rebalance placement balances.
	ivs     []graph.Interval
	owners  []int
	weights []int64
	// live marks current members. initial nodes start live; joins extend
	// it, drains and retired deaths clear entries.
	live    []bool
	initial int
	// nextJoin is the id the next OpJoin will boot; join ids are assigned
	// in order above initial.
	nextJoin  int
	policy    DeadNodePolicy
	events    []MembershipEvent // sorted by Step; applied at barriers
	nextEvent int
	rebalance bool

	rollbacks       int64
	rejoins         int64
	migrations      int64
	redistributions int64
	joins           int64
	drains          int64
}

// newCoordinator listens for a cluster of initial nodes with id space
// maxNodes (initial plus every plannable join).
func newCoordinator(addr string, initial, maxNodes int, cfg Config) (*coordinator, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen: %w", err)
	}
	c := &coordinator{
		ln:              ln,
		nodes:           make([]*conn, maxNodes),
		live:            make([]bool, maxNodes),
		initial:         initial,
		nextJoin:        initial,
		timeout:         cfg.NodeTimeout,
		phaseTimeout:    cfg.PhaseTimeout,
		recoveryTimeout: cfg.RecoveryTimeout,
		stepRetries:     cfg.StepRetries,
	}
	for i := 0; i < initial; i++ {
		c.live[i] = true
	}
	return c, nil
}

// members returns the live node ids in ascending order.
func (c *coordinator) members() []int {
	out := make([]int, 0, len(c.live))
	for i, l := range c.live {
		if l {
			out = append(out, i)
		}
	}
	return out
}

func (c *coordinator) liveCount() int {
	n := 0
	for _, l := range c.live {
		if l {
			n++
		}
	}
	return n
}

// ownedBy returns the intervals node id currently owns, ascending.
func (c *coordinator) ownedBy(id int) []int {
	var out []int
	for iv, o := range c.owners {
		if o == id {
			out = append(out, iv)
		}
	}
	return out
}

// nodeWeights sums owned interval edge weights per node.
func (c *coordinator) nodeWeights() []int64 {
	w := make([]int64, len(c.nodes))
	for iv, o := range c.owners {
		w[o] += c.weights[iv]
	}
	return w
}

// lightestOther returns the least-loaded live member other than exclude
// (ties to the lowest id), or -1 if none exists.
func (c *coordinator) lightestOther(exclude int) int {
	w := c.nodeWeights()
	best := -1
	for i := range c.nodes {
		if !c.live[i] || i == exclude {
			continue
		}
		if best < 0 || w[i] < w[best] {
			best = i
		}
	}
	return best
}

// assignments snapshots the interval -> node routing table.
func (c *coordinator) assignments() []Assignment {
	out := make([]Assignment, len(c.ivs))
	for iv := range c.ivs {
		out[iv] = Assignment{
			Interval: iv,
			First:    c.ivs[iv].FirstVertex,
			End:      c.ivs[iv].EndVertex,
			Node:     c.owners[iv],
		}
	}
	return out
}

func (c *coordinator) addr() string { return c.ln.Addr().String() }

// progressDeadline is the absolute bound handed to readFrameLive: phase
// reads get phaseTimeout, recovery reads get recoveryTimeout.
func (c *coordinator) progressDeadline(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d) //lint:nondeterministic protocol progress bound; timing never feeds vertex state
}

// accept waits for every initial node's hello and distributes the
// address book. Join slots above initial stay empty until their
// MembershipEvent fires.
func (c *coordinator) accept() error {
	c.addrs = make([]string, len(c.nodes))
	for i := 0; i < c.initial; i++ {
		nc, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: coordinator accept: %w", err)
		}
		cn := newConn(nc)
		kind, payload, err := cn.readFrame()
		if err != nil || kind != fHello {
			closeQuietly(cn)
			return fmt.Errorf("cluster: expected hello, got frame %d (%v)", kind, err)
		}
		id, addr, err := parseHello(payload)
		if err != nil {
			closeQuietly(cn)
			return err
		}
		if int(id) >= c.initial || c.nodes[id] != nil {
			closeQuietly(cn)
			return fmt.Errorf("cluster: bad or duplicate node id %d", id)
		}
		c.nodes[id] = cn
		c.addrs[id] = addr
	}
	return c.broadcastBook()
}

func (c *coordinator) broadcastBook() error {
	book := addrBookPayload(c.addrs)
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		if err := n.writeFrame(fAddrBook, book); err != nil {
			return err
		}
	}
	return nil
}

// run drives the job barrier by barrier until convergence,
// maxSupersteps, or ctx cancellation (checked between supersteps: a
// distributed superstep is not interrupted mid-flight — nodes commit or
// the step fails whole), then gathers every vertex's final payload. Each
// barrier first moves the intervals retired nodes still own, then
// applies the membership events due and the rebalancer, then runs the
// superstep — or, once the run is done, the gather. A fault anywhere in
// that consumes one unit of the run's retry budget, is rolled back
// across the cluster (recoverStep), and the barrier runs again from the
// top; the budget exhausted, the fault aborts the run.
func (c *coordinator) run(ctx context.Context, maxSupersteps int, numVertices int64) (*Result, []uint64, error) {
	res := &Result{Nodes: c.initial}
	t0 := time.Now() //lint:nondeterministic run duration is reporting only, never vertex state
	defer func() {
		res.Duration = time.Since(t0) //lint:nondeterministic run duration is reporting only, never vertex state
		res.Rollbacks = c.rollbacks
		res.Rejoins = c.rejoins
		res.Migrations = c.migrations
		res.Redistributions = c.redistributions
		res.Joins = c.joins
		res.Drains = c.drains
		res.LiveNodes = c.liveCount()
		res.Assignments = c.assignments()
	}()
	retries := 0
	var step int64 // the barrier epoch: every member's file is sealed at it
	for {
		done := res.Converged || res.Supersteps >= maxSupersteps
		if !done && ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return res, nil, fmt.Errorf("cluster: run cancelled before superstep %d: %w", step, cerr)
			}
		}
		err := c.moveOrphans(step)
		if err == nil && done {
			var values []uint64
			if values, err = c.gatherValues(numVertices); err == nil {
				return res, values, nil
			}
		}
		if err == nil {
			err = c.membership(step)
		}
		if err == nil {
			var st StepStats
			if st, err = c.superstep(step); err == nil {
				res.Steps = append(res.Steps, st)
				res.Supersteps++
				res.Messages += st.Messages
				res.Delivered += st.Delivered
				res.Updates += st.Updates
				res.Converged = st.Messages == 0 && st.Updates == 0
				step++
				continue
			}
		}
		var flt *stepFault
		if !errors.As(err, &flt) || retries >= c.stepRetries {
			return res, nil, err
		}
		retries++
		if rerr := c.recoverStep(step, flt); rerr != nil {
			return res, nil, fmt.Errorf("cluster: recovery at superstep %d (retry %d/%d) failed: %v (original fault: %w)", step, retries, c.stepRetries, rerr, flt.err)
		}
	}
}

// nodeRead receives the next protocol frame from node i, converting a
// lost or silent node into a phase-labelled, step-level error instead of
// a hang: a read error means the node's connection died; a deadline
// timeout means the node sent nothing at all — not even a heartbeat —
// for the coordinator's node timeout; errNoProgress means the node is
// heartbeating but made no protocol progress within the phase budget.
func (c *coordinator) nodeRead(i int, phase string) (byte, []byte, error) {
	kind, payload, err := c.nodes[i].readFrameLive(c.timeout, c.progressDeadline(c.phaseTimeout))
	if err == nil {
		return kind, payload, nil
	}
	if errors.Is(err, errNoProgress) {
		return 0, nil, fmt.Errorf("cluster: node %d stalled during %s: %w", i, phase, err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return 0, nil, fmt.Errorf("cluster: node %d unresponsive during %s: no frame (not even a heartbeat) within %v", i, phase, c.timeout)
	}
	return 0, nil, fmt.Errorf("cluster: node %d lost during %s: %w", i, phase, err)
}

// deadRead reports whether a nodeRead error means the connection can no
// longer be used (the node must be replaced) as opposed to the node being
// alive and merely failing to progress (rollback suffices).
func deadRead(err error) bool {
	return !errors.Is(err, errNoProgress)
}

// collect reads one frame of the expected kind from node i, folding a
// STEP_FAILED report or any transport fault into flt.
func (c *coordinator) collect(i int, step int64, phase string, want byte, nvals int, flt *stepFault) ([]uint64, bool) {
	kind, payload, err := c.nodeRead(i, phase)
	if err != nil {
		flt.fail(i, err, deadRead(err))
		return nil, false
	}
	if kind == fStepFailed {
		_, reason, perr := parseStepFailed(payload)
		if perr != nil {
			flt.fail(i, perr, true)
			return nil, false
		}
		flt.fail(i, fmt.Errorf("cluster: node %d failed superstep %d during %s: %s", i, step, phase, reason), false)
		return nil, false
	}
	if kind != want {
		flt.fail(i, fmt.Errorf("cluster: node %d sent frame %d during %s, want %d", i, kind, phase, want), true)
		return nil, false
	}
	vals, err := readU64s(payload, nvals)
	if err != nil {
		flt.fail(i, err, true)
		return nil, false
	}
	if int64(vals[0]) != step {
		flt.fail(i, fmt.Errorf("cluster: node %d acked step %d during %s, want %d", i, vals[0], phase, step), true)
		return nil, false
	}
	return vals, true
}

// superstep drives one attempt of superstep step across every node. A
// failure anywhere returns a *stepFault for run's recovery loop; the
// attempt is abandoned at the first fault (draining survivors' stale
// frames is recovery's job).
func (c *coordinator) superstep(step int64) (StepStats, error) {
	st := StepStats{Step: step}
	t0 := time.Now() //lint:nondeterministic step duration is reporting only, never vertex state
	c.round++
	flt := &stepFault{}
	mem := c.members()
	for _, i := range mem {
		if err := c.nodes[i].writeFrame(fStart, u64Payload(uint64(step), c.round)); err != nil {
			flt.fail(i, fmt.Errorf("cluster: node %d lost at superstep %d start: %w", i, step, err), true)
		}
	}
	if flt.err != nil {
		return st, flt
	}
	for _, i := range mem {
		vals, ok := c.collect(i, step, "dispatch", fDispatchOver, 3, flt)
		if !ok {
			return st, flt
		}
		st.Messages += int64(vals[1])
		st.Delivered += int64(vals[2])
	}
	for _, i := range mem {
		if err := c.nodes[i].writeFrame(fComputeBarrier, u64Payload(uint64(step))); err != nil {
			flt.fail(i, fmt.Errorf("cluster: node %d lost at superstep %d barrier: %w", i, step, err), true)
			return st, flt
		}
	}
	for _, i := range mem {
		vals, ok := c.collect(i, step, "compute", fComputeOver, 2, flt)
		if !ok {
			return st, flt
		}
		st.Updates += int64(vals[1])
	}
	st.Duration = time.Since(t0) //lint:nondeterministic step duration is reporting only, never vertex state
	return st, nil
}

// recoverStep is the rollback -> replace-or-retire arc of the failure
// state machine: every surviving node discards the aborted attempt
// (ROLLBACK / ROLLBACK_OVER, draining whatever stale frames the
// abandonment left in flight), then each node whose connection died is
// either retired — under RedistributeDead, in ascending id, while a
// member with a live connection remains; its intervals move at the next
// barrier — or replaced by a same-id node sealed at step, admitted
// through JOIN. The refreshed address book and routing table then reach
// every member.
func (c *coordinator) recoverStep(step int64, flt *stepFault) error {
	metrics.Inc(metrics.CtrClusterRollbacks)
	c.rollbacks++
	c.round++
	dead := make([]bool, len(c.nodes))
	for _, i := range flt.dead {
		dead[i] = true
	}
	for i, n := range c.nodes {
		if n == nil || dead[i] {
			continue
		}
		if err := n.writeFrame(fRollback, u64Payload(uint64(step), c.round)); err != nil {
			dead[i] = true
		}
	}
	// Collect rollback acks, draining the aborted attempt's stale frames
	// (DISPATCH_OVER, COMPUTE_OVER, STEP_FAILED reports) on the way. A
	// survivor that cannot ack within the recovery budget is reclassified
	// as dead and folded into the same pass.
	deadline := c.progressDeadline(c.recoveryTimeout)
	for i, n := range c.nodes {
		if n == nil || dead[i] {
			continue
		}
		for {
			kind, payload, err := n.readFrameLive(c.timeout, deadline)
			if err != nil {
				dead[i] = true
				break
			}
			if kind != fRollbackOver {
				continue // stale frame from the aborted attempt
			}
			if vals, perr := readU64s(payload, 1); perr == nil && int64(vals[0]) == step {
				break
			}
		}
	}
	// Close dead connections first: a node that is alive but wedged or
	// partitioned unblocks from its control read, tears itself down, and
	// releases the value file its replacement or salvage must reopen.
	var gone []int
	for i, d := range dead {
		if d {
			gone = append(gone, i)
			if c.nodes[i] != nil {
				closeQuietly(c.nodes[i])
				c.nodes[i] = nil
			}
		}
	}
	survivors := 0
	for i, n := range c.nodes {
		if n != nil && c.live[i] {
			survivors++
		}
	}
	for _, id := range gone {
		if c.policy == RedistributeDead && survivors > 0 {
			c.retire(id) // for good: moveOrphans re-homes its intervals
			continue
		}
		if err := c.boot(id, step, bootReplace); err != nil {
			return fmt.Errorf("cluster: restarting node %d: %w", id, err)
		}
		if err := c.admit(id, step); err != nil {
			return fmt.Errorf("cluster: node %d replacement: %w", id, err)
		}
		metrics.Inc(metrics.CtrClusterRejoins)
		c.rejoins++
	}
	if len(gone) > 0 {
		// Every member must hold the refreshed address book AND routing
		// table before the barrier reruns: a replacement changed a data
		// address, a retirement removed one.
		if err := c.syncMembership(); err != nil {
			return fmt.Errorf("cluster: membership sync after recovery: %w", err)
		}
	}
	return nil
}

// retire removes node id from the membership for good: its connection
// closes and its address leaves the book. Intervals it still owns stay
// routed to it until moveOrphans moves them out of its sealed file.
func (c *coordinator) retire(id int) {
	c.live[id] = false
	c.addrs[id] = ""
	if c.nodes[id] != nil {
		closeQuietly(c.nodes[id])
		c.nodes[id] = nil
	}
}

// moveOrphans re-homes every interval a retired node still owns — a dead
// node recovery retired under RedistributeDead — from its sealed value
// file onto the least-loaded member: retired nodes in ascending id, each
// one's intervals in ascending order. It opens every barrier, so the
// recipient is always a member with a connection and a fault here is an
// ordinary retryable one.
func (c *coordinator) moveOrphans(step int64) error {
	moved := false
	for id := range c.nodes {
		if c.live[id] {
			continue
		}
		for _, iv := range c.ownedBy(id) {
			if err := c.move(step, iv, id, c.lightestOther(id)); err != nil {
				return err
			}
			moved = true
		}
	}
	if !moved {
		return nil
	}
	return c.syncMembership()
}

// membership applies every membership event due at the barrier before
// superstep step, then the rebalancer. A completed event is consumed, so
// a barrier rerun after a fault redoes only what is left.
func (c *coordinator) membership(step int64) error {
	for c.nextEvent < len(c.events) && c.events[c.nextEvent].Step <= step {
		ev := c.events[c.nextEvent]
		var err error
		if ev.Op == OpJoin {
			err = c.joinOp(step)
		} else {
			err = c.drainOp(step, ev.Node)
		}
		if err != nil {
			return fmt.Errorf("cluster: %s at superstep %d: %w", ev.Op, step, err)
		}
		c.nextEvent++
	}
	if c.rebalance {
		return c.rebalanceStep(step)
	}
	return nil
}

// joinOp absorbs a brand-new node mid-job: boot it fresh at the current
// epoch, admit its JOIN, then move intervals onto it until the
// edge-weight balance has nothing left to move (at minimum one interval
// — an empty member would corrupt the barrier arithmetic). On a faulted
// retry the boot and any completed moves are kept; only the remaining
// moves rerun.
func (c *coordinator) joinOp(step int64) error {
	id := c.nextJoin
	if id >= len(c.nodes) {
		return fmt.Errorf("cluster: no join slots left (id space %d)", len(c.nodes))
	}
	if c.nodes[id] == nil {
		if err := c.boot(id, step, bootJoin); err != nil {
			return fmt.Errorf("cluster: booting joiner %d: %w", id, err)
		}
		if err := c.admit(id, step); err != nil {
			return nodeFault(id, err, true)
		}
	}
	c.live[id] = true
	for _, mv := range c.planMoves() {
		if err := c.move(step, mv.iv, mv.from, mv.to); err != nil {
			return err
		}
	}
	if len(c.ownedBy(id)) == 0 {
		// The weight balance found nothing small enough to move (e.g. one
		// giant interval per node). Force the lightest interval off the
		// most-loaded donor that can spare one.
		w := c.nodeWeights()
		from, best := -1, -1
		for i := range c.nodes {
			if !c.live[i] || i == id || len(c.ownedBy(i)) < 2 {
				continue
			}
			if from < 0 || w[i] > w[from] {
				from = i
			}
		}
		if from >= 0 {
			for _, iv := range c.ownedBy(from) {
				if best < 0 || c.weights[iv] < c.weights[best] {
					best = iv
				}
			}
		}
		if best < 0 {
			return fmt.Errorf("cluster: joiner %d cannot receive an interval: every member owns a single interval (need Splits >= 2)", id)
		}
		if err := c.move(step, best, from, id); err != nil {
			return err
		}
	}
	if err := c.syncMembership(); err != nil {
		return err
	}
	c.joins++
	metrics.Inc(metrics.CtrClusterJoins)
	c.nextJoin++
	return nil
}

// drainOp moves every interval off node id to the least-loaded other
// members, then retires it: a node that owns nothing gets HALT and needs
// no ack. Draining an already-retired node is a no-op (a retried drain
// whose node died and was retired mid-operation lands here).
func (c *coordinator) drainOp(step int64, id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: drain of unknown node %d", id)
	}
	if !c.live[id] {
		return nil
	}
	if c.liveCount() <= 1 {
		return fmt.Errorf("cluster: refusing to drain node %d: it is the last member", id)
	}
	for _, iv := range c.ownedBy(id) {
		if err := c.move(step, iv, id, c.lightestOther(id)); err != nil {
			return err
		}
	}
	c.nodes[id].writeFrame(fHalt, []byte{0}) //nolint:errcheck
	c.retire(id)
	if err := c.syncMembership(); err != nil {
		return err
	}
	c.drains++
	metrics.Inc(metrics.CtrClusterDrains)
	return nil
}

// rebalanceStep runs the greedy edge-weight balancer at a barrier and
// moves whatever it proposes. At the balanced fixed point it sends no
// frames at all, so enabling rebalancing on a stable cluster is free.
func (c *coordinator) rebalanceStep(step int64) error {
	moves := c.planMoves()
	if len(moves) == 0 {
		return nil
	}
	for _, mv := range moves {
		if err := c.move(step, mv.iv, mv.from, mv.to); err != nil {
			return err
		}
	}
	return c.syncMembership()
}

type move struct{ iv, from, to int }

// planMoves computes a deterministic greedy sequence of interval
// migrations that narrows the edge-weight spread across live members:
// repeatedly move the heaviest interval that (a) its donor — the most
// loaded member — can spare (it keeps at least one interval) and (b) is
// strictly lighter than the donor-to-lightest gap, so every move
// strictly shrinks the pairwise spread and the loop terminates. All ties
// break to the lowest id, keeping the plan a pure function of
// (owners, weights, live) — chaos reruns replay the identical plan.
func (c *coordinator) planMoves() []move {
	owners := append([]int(nil), c.owners...)
	w := make([]int64, len(c.nodes))
	count := make([]int, len(c.nodes))
	for iv, o := range owners {
		w[o] += c.weights[iv]
		count[o]++
	}
	var moves []move
	for len(moves) < len(owners) {
		h, l := -1, -1
		for i := range c.nodes {
			if !c.live[i] {
				continue
			}
			if h < 0 || w[i] > w[h] {
				h = i
			}
			if l < 0 || w[i] < w[l] {
				l = i
			}
		}
		if h < 0 || h == l {
			break
		}
		gap := w[h] - w[l]
		best := -1
		for iv, o := range owners {
			if o != h || count[h] < 2 {
				continue
			}
			if wt := c.weights[iv]; wt <= 0 || wt >= gap {
				continue
			}
			if best < 0 || c.weights[iv] > c.weights[best] {
				best = iv
			}
		}
		if best < 0 {
			break
		}
		owners[best] = l
		w[h] -= c.weights[best]
		w[l] += c.weights[best]
		count[h]--
		count[l]++
		moves = append(moves, move{iv: best, from: h, to: l})
	}
	return moves
}

// move transfers interval iv from node from to node to at barrier
// epoch step — the one transfer join, drain, rebalance and dead-node
// redistribution share. The blob comes from from's live connection
// (MIGRATE_OUT / MIGRATE_DATA) while from is a member, or from its
// sealed value file (salvage) once it is retired; MIGRATE_IN hands it to
// to, which validates the blob's digest and epoch and installs the slots
// before acking MIGRATE_DONE. Only that ack flips owners[iv] — so a
// fault anywhere leaves from authoritative and the move simply reruns
// after recovery.
func (c *coordinator) move(step int64, iv, from, to int) error {
	var blob []byte
	if c.live[from] {
		if err := c.nodes[from].writeFrame(fMigrateOut, migrateReqPayload(uint32(iv), uint64(step))); err != nil {
			return nodeFault(from, fmt.Errorf("cluster: node %d lost at migrate-out of interval %d: %w", from, iv, err), true)
		}
		kind, payload, err := c.nodeRead(from, "migration extract")
		if err != nil {
			return nodeFault(from, err, deadRead(err))
		}
		gotIv, b, perr := parseMigrateBlob(payload)
		if kind != fMigrateData || perr != nil || int(gotIv) != iv {
			return nodeFault(from, fmt.Errorf("cluster: node %d answered migrate-out of interval %d with frame %d (interval %d, %v)", from, iv, kind, gotIv, perr), true)
		}
		blob = b
	} else {
		b, err := c.salvage(from, step, c.ivs[iv])
		if err != nil {
			return fmt.Errorf("cluster: salvaging interval %d of retired node %d: %w", iv, from, err)
		}
		blob = b
	}
	if err := c.nodes[to].writeFrame(fMigrateIn, migrateBlobPayload(uint32(iv), blob)); err != nil {
		return nodeFault(to, fmt.Errorf("cluster: node %d lost at migrate-in of interval %d: %w", to, iv, err), true)
	}
	kind, payload, err := c.nodeRead(to, "migration adopt")
	if err != nil {
		return nodeFault(to, err, deadRead(err))
	}
	ackIv, perr := parseIv(payload)
	if kind != fMigrateDone || perr != nil || int(ackIv) != iv {
		return nodeFault(to, fmt.Errorf("cluster: node %d answered migrate-in of interval %d with frame %d (interval %d, %v)", to, iv, kind, ackIv, perr), true)
	}
	c.owners[iv] = to
	if c.live[from] {
		c.migrations++
		metrics.Inc(metrics.CtrClusterMigrations)
	} else {
		c.redistributions++
		metrics.Inc(metrics.CtrClusterRedistributions)
	}
	return nil
}

// syncMembership pushes the refreshed address book and routing table to
// every member and waits for each ROUTING_OVER ack, so no fStart can
// race a node still holding the old table. It runs after every
// membership change, in the same barrier window as the migrations it
// publishes.
func (c *coordinator) syncMembership() error {
	book := addrBookPayload(c.addrs)
	routing := routingPayload(c.owners)
	flt := &stepFault{}
	mem := c.members()
	for _, i := range mem {
		if err := c.nodes[i].writeFrame(fAddrBook, book); err != nil {
			flt.fail(i, fmt.Errorf("cluster: node %d lost at membership sync: %w", i, err), true)
			continue
		}
		if err := c.nodes[i].writeFrame(fRouting, routing); err != nil {
			flt.fail(i, fmt.Errorf("cluster: node %d lost at routing sync: %w", i, err), true)
		}
	}
	if flt.err != nil {
		return flt
	}
	for _, i := range mem {
		kind, _, err := c.nodeRead(i, "membership sync")
		if err != nil {
			flt.fail(i, err, deadRead(err))
			return flt
		}
		if kind != fRoutingOver {
			flt.fail(i, fmt.Errorf("cluster: node %d sent frame %d during membership sync, want ROUTING_OVER", i, kind), true)
			return flt
		}
	}
	return nil
}

// admit is the one late-entry handshake: accept node id's control
// connection and its JOIN, whose epoch must be exactly the barrier epoch
// step — a joiner's fresh file and a replacement's sealed one are both
// built at it. Stray dials are closed and skipped; the wait is bounded
// by the recovery timeout.
func (c *coordinator) admit(id int, step int64) error {
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := c.ln.(deadliner); ok && c.recoveryTimeout > 0 {
		d.SetDeadline(c.progressDeadline(c.recoveryTimeout)) //nolint:errcheck
		defer d.SetDeadline(time.Time{})                     //nolint:errcheck
	}
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: accepting node %d: %w", id, err)
		}
		cn := newConn(nc)
		kind, payload, err := cn.readFrame()
		var jid uint32
		var epoch uint64
		var addr string
		if err == nil && kind == fJoin {
			jid, epoch, addr, err = parseJoin(payload)
		}
		if err != nil || kind != fJoin || int(jid) != id {
			closeQuietly(cn)
			continue // an orphaned dial or a corrupt hello; keep waiting
		}
		if int64(epoch) != step {
			closeQuietly(cn)
			return fmt.Errorf("cluster: node %d entered at epoch %d, want %d", id, epoch, step)
		}
		c.nodes[id] = cn
		c.addrs[id] = addr
		return nil
	}
}

// gatherValues pulls every interval's vertex payloads from its owning
// node into one slice. It runs at the final barrier inside run's loop,
// so a lost owner or a corrupt values frame takes the same recovery as a
// failed superstep — the owner replaced, or retired and its intervals
// moved — and the gather starts over.
func (c *coordinator) gatherValues(numVertices int64) ([]uint64, error) {
	out := make([]uint64, numVertices)
	for iv, owner := range c.owners {
		if err := c.nodes[owner].writeFrame(fValuesReq, ivPayload(uint32(iv))); err != nil {
			return nil, nodeFault(owner, fmt.Errorf("cluster: node %d values request for interval %d: %w", owner, iv, err), true)
		}
		kind, payload, err := c.nodeRead(owner, "value gather")
		if err != nil {
			return nil, nodeFault(owner, err, deadRead(err))
		}
		first, payloads, perr := parseValues(payload)
		if kind != fValues || perr != nil || first != c.ivs[iv].FirstVertex || first+int64(len(payloads)) != c.ivs[iv].EndVertex {
			return nil, nodeFault(owner, fmt.Errorf("cluster: node %d answered the values request for interval %d [%d,%d) with frame %d (%d values from %d, %v)",
				owner, iv, c.ivs[iv].FirstVertex, c.ivs[iv].EndVertex, kind, len(payloads), first, perr), true)
		}
		copy(out[first:], payloads)
	}
	return out, nil
}

// halt tells every node to shut down and closes the control plane. It is
// the quiet teardown used on already-failing paths and after Close; Close
// is the error-reporting variant for the success path.
func (c *coordinator) halt() {
	for _, n := range c.nodes {
		if n != nil {
			n.writeFrame(fHalt, []byte{0}) //nolint:errcheck
			closeQuietly(n)
		}
	}
	if c.ln != nil {
		closeQuietly(c.ln)
	}
}

// Close halts the cluster and reports teardown errors, joining the
// listener and control-connection close errors the way the mmap and
// vertexfile layers do. Connections already torn down by chaos or by the
// nodes' own teardown are expected and not reported.
func (c *coordinator) Close() error {
	var errs []error
	for i, n := range c.nodes {
		if n == nil {
			continue
		}
		n.writeFrame(fHalt, []byte{0}) //nolint:errcheck
		if err := n.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("cluster: closing node %d control connection: %w", i, err))
		}
		c.nodes[i] = nil
	}
	if c.ln != nil {
		if err := c.ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("cluster: closing coordinator listener: %w", err))
		}
		c.ln = nil
	}
	return errors.Join(errs...)
}
