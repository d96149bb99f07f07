package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// NodeConfig tunes one node.
type NodeConfig struct {
	// BarrierTimeout bounds how long the node waits at the compute
	// barrier for peer end-of-stream markers; on expiry the superstep
	// fails with a labelled error instead of hanging on a lost peer
	// (default 15s; negative disables).
	BarrierTimeout time.Duration
	// RedialBackoff is the sleep before the first redial of a failed
	// data-plane write, doubling per attempt up to redialBackoffMax
	// (default 50ms).
	RedialBackoff time.Duration
}

const (
	// batchSize caps the messages of one wire batch.
	batchSize = 512
	// peerRedials is how many times a failed data-plane write redials the
	// peer before the superstep fails.
	peerRedials = 3
	// redialBackoffMax caps the doubling redial sleep, so a long redial
	// storm polls steadily instead of sleeping for minutes.
	redialBackoffMax = 2 * time.Second
)

func (c NodeConfig) withDefaults() NodeConfig {
	if c.BarrierTimeout == 0 {
		c.BarrierTimeout = 15 * time.Second
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
	return c
}

// stepFailure wraps an error that aborts the current superstep attempt
// but leaves the node healthy: transport trouble, barrier timeouts, peer
// corruption. The node reports it to the coordinator (STEP_FAILED) and
// stays in its control loop for the rollback that follows, instead of
// dying and forcing a replacement.
type stepFailure struct{ err error }

func (e stepFailure) Error() string { return e.err.Error() }
func (e stepFailure) Unwrap() error { return e.err }

func stepFailf(format string, args ...any) error {
	return stepFailure{err: fmt.Errorf(format, args...)}
}

// errNodeKilled marks an injected abrupt node death (the chaos harness's
// in-process SIGKILL): the control loop exits without commit or graceful
// protocol, and the coordinator must recover.
var errNodeKilled = errors.New("cluster: node killed by injected chaos")

// eosMark records one peer's end-of-stream for one superstep attempt.
type eosMark struct {
	sender int
	round  uint64
}

// streamFrame is one in-order unit of a peer's data stream: a message
// batch (tagged with its source interval) or the end-of-stream marker.
type streamFrame struct {
	eos   bool
	src   int
	batch []core.Message
}

// senderStream reassembles one peer's data frames into exactly-once,
// in-order delivery. The transport underneath is at-least-once and
// unordered across connections: a frame whose flush errored may still
// have been delivered before the sender redials and resends it, and an
// old connection's receiver can race a fresh one. Sequence numbers fix
// both — duplicates are dropped (seq below the release cursor or already
// pending) and frames are released only in seq order — which is what
// keeps the per-sender fold order deterministic and the retried
// superstep bit-identical.
type senderStream struct {
	mu      sync.Mutex
	round   uint64
	next    uint64 // next seq to release; seqs are 1-based per round
	pending map[uint64]streamFrame
}

// node is one cluster member. It owns a SET of vertex intervals — the
// fixed partition is finer than the node set, and the owners table maps
// each interval to its current host — dispatches their share of the edge
// file, and computes updates for their vertices. The owners table is the
// routing state elastic membership swaps atomically at barriers; the
// interval partition itself never changes for the life of a job, which
// is what keeps batch formation and fold order bit-identical across
// migrations.
type node struct {
	id        int
	total     int // size of the node ID SPACE (initial nodes + plannable joins), not the live member count
	cfg       NodeConfig
	heartbeat time.Duration // coordinator ping interval; <= 0 disables
	ctx       context.Context

	gf        *graph.File
	vf        *vertexfile.File
	ivs       []graph.Interval // the fixed partition, contiguous over [0, |V|) and immutable for the job
	owners    []int            // owners[i] = node currently hosting interval i
	member    []bool           // member[id] = node id owns at least one interval
	nMembers  int
	coord     *conn
	peers     []*conn      // outgoing data connections, indexed by node id (nil for self)
	peerAddrs []string     // data addresses from the address book, for redials
	peerSeq   []uint64     // per-peer data-plane sequence counter, reset each round
	peerMu    []sync.Mutex // orders each peer's sequence numbers and writes across dispatchers
	listener  net.Listener
	system    *actor.System
	eosCh     chan eosMark
	failCh    chan error // corrupt or bogus peer frames
	hbStop    chan struct{}

	// crew is core's worker crew over the intervals this node owns, with
	// one computer; rebuilt when routing changes, respawned by rollback.
	crew   *core.Crew
	killMu sync.Mutex
	killed bool // the node-death site fired (kill)

	// round gates the data plane: frames tagged with an older superstep
	// attempt are dropped at arrival, so an aborted attempt's stragglers
	// can never leak into the retry.
	round atomic.Uint64
	// begunStep is the superstep this node last ran Begin for (-1 none):
	// a rollback may only restore from the bitmap when Begin actually
	// snapshotted it for the step being rolled back.
	begunStep int64
	// streams reassembles each peer's data frames, indexed by node id.
	streams []*senderStream
}

// bootMode selects how a node enters the cluster.
type bootMode int

const (
	// bootFresh creates a new value file and announces with HELLO (the
	// ordinary job start).
	bootFresh bootMode = iota
	// bootJoin is a brand-new node entering a RUNNING job: its value file
	// is created fresh at the barrier epoch (freshAt: every vertex inert),
	// ready for AdoptInterval to paint in the ranges it will own.
	bootJoin
	// bootReplace is a same-id replacement of a dead incarnation: it seals
	// the dead node's value file at the barrier epoch (sealedAt), which is
	// exactly the state the rest of the cluster rolled back to.
	bootReplace
)

// nodeSpec gathers what startNode needs to boot one node.
type nodeSpec struct {
	id         int
	total      int // node ID space: initial nodes + plannable joins
	coordAddr  string
	graphPath  string
	valuesPath string
	prog       core.Program
	ivs        []graph.Interval
	owners     []int
	cfg        NodeConfig
	heartbeat  time.Duration // Config.HeartbeatInterval
	mode       bootMode
	step       int64 // the barrier epoch a late node enters at (0 for bootFresh)
}

// startNode boots a node: local state, data listener, coordinator
// handshake. It returns after the node has sent its hello; runNode
// drives the rest.
func startNode(ctx context.Context, spec nodeSpec) (*node, error) {
	id, total := spec.id, spec.total
	cfg := spec.cfg.withDefaults()
	gf, err := graph.OpenFile(spec.graphPath, mmap.ModeAuto)
	if err != nil {
		return nil, err
	}
	var vf *vertexfile.File
	if spec.mode == bootReplace {
		vf, err = sealedAt(spec.valuesPath, spec.step)
	} else {
		vf, err = freshAt(spec.valuesPath, gf.NumVertices, spec.prog.Init, spec.step)
	}
	if err != nil {
		closeQuietly(gf)
		return nil, err
	}
	n := &node{
		id:        id,
		total:     total,
		cfg:       cfg,
		heartbeat: spec.heartbeat,
		ctx:       ctx,
		gf:        gf,
		vf:        vf,
		ivs:       spec.ivs,
		peers:     make([]*conn, total),
		peerSeq:   make([]uint64, total),
		peerMu:    make([]sync.Mutex, total),
		streams:   make([]*senderStream, total),
		system:    actor.NewSystem(fmt.Sprintf("node-%d", id), nil),
		eosCh:     make(chan eosMark, 4*total+4),
		failCh:    make(chan error, total+1),
		begunStep: -1,
	}
	for i := range n.streams {
		n.streams[i] = &senderStream{next: 1, pending: make(map[uint64]streamFrame)}
	}
	if n.crew, err = core.NewNodeCrew(gf, vf, spec.prog, spec.ivs, n.kill, n.handoff); err != nil {
		closeQuietly(vf)
		closeQuietly(gf)
		return nil, err
	}
	if err := n.installRouting(spec.owners); err != nil {
		n.close()
		return nil, err
	}

	// Data listener for incoming peer connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.listener = ln
	// The accept loop is a supervised actor: close() closes the listener
	// before system.Wait, so the loop terminates and Wait covers it.
	n.system.SpawnFunc(fmt.Sprintf("node-%d-accept", id), func() error {
		n.acceptLoop()
		return nil
	})

	// Control connection.
	cc, err := net.Dial("tcp", spec.coordAddr)
	if err != nil {
		n.close()
		return nil, err
	}
	n.coord = newConn(cc)
	// Every node entering after the initial HELLO is sealed at the
	// coordinator's barrier epoch and announces it with JOIN.
	kind, hello := byte(fJoin), joinPayload(uint32(id), uint64(vf.Epoch()), ln.Addr().String())
	if spec.mode == bootFresh {
		kind, hello = fHello, helloPayload(uint32(id), ln.Addr().String())
	}
	if err := n.coord.writeFrame(kind, hello); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// installRouting atomically swaps in a new interval -> node table and
// respawns the crew over the intervals it routes here, keeping its
// slabs. It is only called between supersteps (boot, or an fRouting
// frame at a membership barrier), so no dispatch, fold or apply is in
// flight.
func (n *node) installRouting(owners []int) error {
	if len(owners) != len(n.ivs) {
		return fmt.Errorf("cluster: node %d: routing table of %d intervals, want %d", n.id, len(owners), len(n.ivs))
	}
	member, count := make([]bool, n.total), 0
	var local []int
	for iv, o := range owners {
		if o < 0 || o >= n.total {
			return fmt.Errorf("cluster: node %d: interval %d routed to bogus node %d", n.id, iv, o)
		}
		if !member[o] {
			member[o] = true
			count++
		}
		if o == n.id {
			local = append(local, iv)
		}
	}
	n.owners = append([]int(nil), owners...)
	n.member = member
	n.nMembers = count
	n.crew.Teardown() //nolint:errcheck // between supersteps: nothing can have failed
	n.crew.Reassign(local)
	// The coordinator halts a node between supersteps, so its phases
	// wait on the crew without the run's cancellation.
	n.crew.Spawn(context.WithoutCancel(n.ctx), 0)
	return nil
}

func (n *node) close() {
	n.crew.Teardown() //nolint:errcheck // the node is going away; its error, if any, is already out
	if n.hbStop != nil {
		close(n.hbStop)
		n.hbStop = nil
	}
	if n.listener != nil {
		closeQuietly(n.listener)
	}
	if n.coord != nil {
		closeQuietly(n.coord)
	}
	for _, p := range n.peers {
		if p != nil {
			closeQuietly(p)
		}
	}
	n.system.Wait() //nolint:errcheck
	if n.vf != nil {
		closeQuietly(n.vf)
	}
	if n.gf != nil {
		closeQuietly(n.gf)
	}
}

// acceptLoop receives peer data connections and spawns a receiver per
// connection.
func (n *node) acceptLoop() {
	for {
		c, err := n.listener.Accept()
		if err != nil {
			return // listener closed on shutdown
		}
		// Per-connection receivers stay deliberately outside the actor
		// system: a slow or wedged peer must not block system.Wait during
		// teardown. Each receiver exits when its connection closes.
		go n.receive(newConn(c)) //lint:actorshare receiver lifetime is bounded by its connection, not the system; tracking it would let a wedged peer block Wait
	}
}

// receive feeds one peer's data frames to the crew. A clean read
// error ends the receiver silently: with sender-side reconnect a dropped
// connection is routine — the peer redials, a fresh receiver takes over,
// and the stream's sequence numbers absorb the overlap. A corrupt frame
// (checksum or version mismatch) is different: the stream can no longer
// be trusted, so it is reported as a step failure — routing corruption
// into the rollback path — before the receiver exits.
func (n *node) receive(c *conn) {
	defer closeQuietly(c)
	sender := -1
	for {
		kind, payload, err := c.readFrame()
		if err != nil {
			if frameCorrupt(err) {
				n.reportFailure(stepFailf("cluster: node %d: corrupt frame from peer %d: %w", n.id, sender, err))
			}
			return
		}
		switch kind {
		case fPeerHello:
			if len(payload) < 4 {
				n.reportFailure(stepFailf("cluster: node %d: short peer hello", n.id))
				return
			}
			s := int(binary.LittleEndian.Uint32(payload))
			if s < 0 || s >= n.total || s == n.id {
				n.reportFailure(stepFailf("cluster: node %d: peer hello from bogus node %d", n.id, s))
				return
			}
			sender = s
		case fBatch:
			round, seq, src, batch, perr := parseBatch(payload)
			if perr != nil {
				n.reportFailure(perr)
				return
			}
			if sender < 0 {
				n.reportFailure(stepFailf("cluster: node %d: data batch before peer hello", n.id))
				return
			}
			n.deliverData(sender, round, seq, streamFrame{src: int(src), batch: batch})
		case fEOS:
			vals, perr := readU64s(payload, 2)
			if perr != nil {
				n.reportFailure(perr)
				return
			}
			if sender < 0 {
				n.reportFailure(stepFailf("cluster: node %d: end-of-stream before peer hello", n.id))
				return
			}
			n.deliverData(sender, vals[0], vals[1], streamFrame{eos: true})
		default:
			n.reportFailure(fmt.Errorf("cluster: node %d: unexpected peer frame %d", n.id, kind))
			return
		}
	}
}

// deliverData feeds one data frame into the sender's reassembly stream,
// releasing any frames now in order to the crew's computer: a batch, or
// an end-of-stream as the completion of every interval the sender owns
// (and to the barrier). Frames from a round older than the gate (an
// aborted attempt's stragglers) are dropped, under the stream's lock,
// which rollbackStep takes only after moving the gate and tearing the
// crew down: no such frame reaches the crew it respawns.
func (n *node) deliverData(sender int, round, seq uint64, fr streamFrame) {
	s := n.streams[sender]
	s.mu.Lock()
	defer s.mu.Unlock()
	if round < n.round.Load() || round < s.round {
		return
	}
	if round > s.round {
		s.round = round
		s.next = 1
		clear(s.pending)
	}
	if seq < s.next {
		return // duplicate of an already-released frame (resent after redial)
	}
	if _, dup := s.pending[seq]; dup {
		return
	}
	s.pending[seq] = fr
	for {
		f, ok := s.pending[s.next]
		if !ok {
			return
		}
		delete(s.pending, s.next)
		s.next++
		if f.eos {
			for iv, o := range n.owners {
				if o == sender {
					n.crew.Complete(iv) //nolint:errcheck // fails only once the attempt is over, and the frame with it
				}
			}
			n.eosCh <- eosMark{sender: sender, round: s.round} //lint:actorshare eosCh is buffered past one mark per peer per in-flight round, and rollback drains it
		} else if err := n.checkBatch(sender, f); err != nil {
			n.reportFailure(err)
			s.next = math.MaxUint64 // release nothing more this round: no end-of-stream lets the barrier pass
			return
		} else {
			n.crew.Deliver(f.src, f.batch) //nolint:errcheck // fails only once the attempt is over, and the frame with it
		}
	}
}

// checkBatch fails a batch whose source interval its sender does not
// own, or that names a vertex this node does not host. Routing changes
// only at barriers, so it holds for the round being released.
func (n *node) checkBatch(sender int, f streamFrame) error {
	if f.src >= len(n.ivs) || n.owners[f.src] != sender {
		return stepFailf("cluster: node %d: batch from peer %d for interval %d it does not host", n.id, sender, f.src)
	}
	var lo, hi int64 // the hosted interval the last destination fell in
	for _, m := range f.batch {
		if v := int64(m.Dst); v < lo || v >= hi {
			iv := sort.Search(len(n.ivs), func(i int) bool { return n.ivs[i].EndVertex > v })
			if iv == len(n.ivs) || n.owners[iv] != n.id {
				return stepFailf("cluster: node %d: batch from interval %d names vertex %d, which it does not host", n.id, f.src, v)
			}
			lo, hi = n.ivs[iv].FirstVertex, n.ivs[iv].EndVertex
		}
	}
	return nil
}

// reportFailure never blocks: failCh is buffered generously, and during a
// clean shutdown (nobody listening) extra reports are simply dropped.
func (n *node) reportFailure(err error) {
	select {
	case n.failCh <- err:
	default:
	}
}

// runNode executes the node's control loop until HALT. Failures are
// classified: a stepFailure is reported to the coordinator and the node
// stays alive for the rollback-and-retry protocol; anything else is fatal
// and the node dies, leaving recovery to a replacement incarnation.
func (n *node) runNode() error {
	defer n.close()
	for {
		kind, payload, err := n.coord.readFrame()
		if err != nil {
			return fmt.Errorf("cluster: node %d control: %w", n.id, err)
		}
		switch kind {
		case fAddrBook:
			addrs, err := parseAddrBook(payload)
			if err != nil {
				return err
			}
			// Heartbeats start before peer dialing so a slow or stalled
			// data-plane dial cannot delay the first liveness ping past
			// the coordinator's node timeout. Spawned once: a rebroadcast
			// address book (after a replacement) must not stack heartbeaters.
			// Supervised: close() closes hbStop before system.Wait, so
			// the loop terminates and Wait covers it.
			if n.heartbeat > 0 && n.hbStop == nil {
				n.hbStop = make(chan struct{})
				stop := n.hbStop
				n.system.SpawnFunc(fmt.Sprintf("node-%d-heartbeat", n.id), func() error {
					n.heartbeatLoop(stop)
					return nil
				})
			}
			if err := n.updatePeers(addrs); err != nil {
				return err
			}
		case fStart:
			vals, err := readU64s(payload, 2)
			if err != nil {
				return err
			}
			step, round := int64(vals[0]), vals[1]
			n.round.Store(round)
			if err := n.stepOutcome(step, n.dispatchPhase(step, round)); err != nil {
				return err
			}
		case fComputeBarrier:
			vals, err := readU64s(payload, 1)
			if err != nil {
				return err
			}
			if err := n.stepOutcome(int64(vals[0]), n.barrierPhase(int64(vals[0]))); err != nil {
				return err
			}
		case fRollback:
			vals, err := readU64s(payload, 2)
			if err != nil {
				return err
			}
			if err := n.rollbackStep(int64(vals[0]), vals[1]); err != nil {
				return err
			}
			if err := n.coord.writeFrame(fRollbackOver, u64Payload(vals[0])); err != nil {
				return fmt.Errorf("cluster: node %d rollback ack: %w", n.id, err)
			}
		case fValuesReq:
			iv, err := parseIv(payload)
			if err != nil {
				return err
			}
			if err := n.sendValues(int(iv)); err != nil {
				return err
			}
		case fMigrateOut:
			iv, epoch, err := parseMigrateReq(payload)
			if err != nil {
				return err
			}
			if ferr := fault.Error(fault.SiteNodeKillMigrate); ferr != nil {
				return fmt.Errorf("cluster: node %d mid-migration (donor): %w", n.id, errNodeKilled)
			}
			blob, err := n.extractInterval(int(iv), int64(epoch))
			if err != nil {
				return err
			}
			if err := n.coord.writeFrame(fMigrateData, migrateBlobPayload(iv, blob)); err != nil {
				return fmt.Errorf("cluster: node %d migrate data: %w", n.id, err)
			}
		case fMigrateIn:
			iv, blob, err := parseMigrateBlob(payload)
			if err != nil {
				return err
			}
			if ferr := fault.Error(fault.SiteNodeKillMigrate); ferr != nil {
				return fmt.Errorf("cluster: node %d mid-migration (recipient): %w", n.id, errNodeKilled)
			}
			if err := n.vf.AdoptInterval(blob, true); err != nil {
				return fmt.Errorf("cluster: node %d adopting interval %d: %w", n.id, iv, err)
			}
			if err := n.coord.writeFrame(fMigrateDone, ivPayload(iv)); err != nil {
				return fmt.Errorf("cluster: node %d migrate done: %w", n.id, err)
			}
		case fRouting:
			owners, err := parseRouting(payload)
			if err != nil {
				return err
			}
			if err := n.installRouting(owners); err != nil {
				return err
			}
			if err := n.coord.writeFrame(fRoutingOver, nil); err != nil {
				return fmt.Errorf("cluster: node %d routing ack: %w", n.id, err)
			}
		case fHalt:
			return nil
		default:
			return fmt.Errorf("cluster: node %d: unexpected control frame %d", n.id, kind)
		}
	}
}

// extractInterval serializes interval iv of this node's value file for a
// migration, validating that this node actually hosts it, that donor and
// coordinator agree on the barrier epoch, and that the blob fits a frame.
func (n *node) extractInterval(iv int, epoch int64) ([]byte, error) {
	if iv < 0 || iv >= len(n.ivs) || n.owners[iv] != n.id {
		return nil, fmt.Errorf("cluster: node %d asked to extract interval %d it does not host", n.id, iv)
	}
	if epoch != n.vf.Epoch() {
		return nil, fmt.Errorf("cluster: node %d: migration of interval %d pinned to epoch %d, file is at %d", n.id, iv, epoch, n.vf.Epoch())
	}
	blob, err := n.vf.ExtractInterval(n.ivs[iv].FirstVertex, n.ivs[iv].EndVertex)
	if err != nil {
		return nil, err
	}
	if len(blob)+4+frameOverhead > maxFrame {
		return nil, fmt.Errorf("cluster: node %d: interval %d blob of %d bytes exceeds the frame limit", n.id, iv, len(blob))
	}
	return blob, nil
}

// stepOutcome routes a phase result: nil passes through, a stepFailure is
// reported to the coordinator (the node stays in its control loop and
// waits for the rollback), and everything else — including an injected
// kill — is fatal.
func (n *node) stepOutcome(step int64, err error) error {
	if err == nil {
		return nil
	}
	var sf stepFailure
	if !errors.As(err, &sf) || errors.Is(err, errNodeKilled) {
		return err
	}
	if werr := n.coord.writeFrame(fStepFailed, stepFailedPayload(uint64(step), err.Error())); werr != nil {
		return fmt.Errorf("cluster: node %d reporting step failure (%v): %w", n.id, err, werr)
	}
	return nil
}

// rollbackStep discards every trace of the aborted superstep attempt:
// the round gate advances (in-flight stragglers drop on arrival), the
// crew is torn down, the peer streams reset, the barrier bookkeeping
// drains, and the value file rolls back to the start of step — via
// Rollback if this node was mid-step, via Rewind if it had already
// committed before the failure was detected elsewhere, or not at all if
// it never began the step. A fresh crew spawns, its slabs empty.
func (n *node) rollbackStep(step int64, newRound uint64) error {
	n.round.Store(newRound)
	// The teardown comes before the stream locks: a receiver handing the
	// old crew's computer a batch holds its stream's lock, and the
	// teardown's close releases it.
	n.crew.Teardown() //nolint:errcheck // the attempt's failure is why we roll back
	for _, s := range n.streams {
		s.mu.Lock()
		if s.round < newRound {
			s.round = newRound
			s.next = 1
			clear(s.pending)
		}
		s.mu.Unlock()
	}
	for drained := false; !drained; {
		select {
		case <-n.eosCh:
		case <-n.failCh:
		default:
			drained = true
		}
	}
	switch {
	case n.vf.Epoch() == step+1:
		if err := n.vf.Rewind(step); err != nil {
			return err
		}
	case n.vf.Epoch() == step && n.begunStep == step:
		if err := n.vf.Rollback(step, true); err != nil {
			return err
		}
	}
	n.begunStep = -1
	n.crew.Spawn(context.WithoutCancel(n.ctx), 0)
	return nil
}

// updatePeers installs a (re)broadcast address book: connections to peers
// whose address changed (a same-id replacement) are dropped so the next
// send dials the fresh address, and missing connections are established
// eagerly, best-effort — a failed dial here is retried with backoff by
// sendPeer when the dispatch phase actually needs the peer. An empty
// entry is a node that has not joined yet, was drained, or was retired
// after redistribution: no connection is kept or dialed for it.
func (n *node) updatePeers(addrs []string) error {
	if len(addrs) != n.total {
		return fmt.Errorf("cluster: node %d: address book of %d entries, want %d", n.id, len(addrs), n.total)
	}
	for i := range addrs {
		if i == n.id {
			continue
		}
		if n.peerAddrs != nil && n.peerAddrs[i] != addrs[i] && n.peers[i] != nil {
			closeQuietly(n.peers[i])
			n.peers[i] = nil
		}
	}
	n.peerAddrs = addrs
	for i := range addrs {
		if i == n.id || n.peers[i] != nil || addrs[i] == "" {
			continue
		}
		if c, err := n.dialPeer(i); err == nil {
			n.peers[i] = c
		}
	}
	return nil
}

// heartbeatLoop pings the coordinator's control connection until stopped
// or the connection dies, so the coordinator's node timeout measures
// liveness rather than per-phase progress.
func (n *node) heartbeatLoop(stop <-chan struct{}) {
	t := time.NewTicker(n.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if n.coord.writeFrame(fHeartbeat, nil) != nil {
				return
			}
		}
	}
}

// dialPeer establishes a fresh data-plane connection to peer p and
// identifies this node on it, so the receiver can attribute the stream.
func (n *node) dialPeer(p int) (*conn, error) {
	nc, err := net.Dial("tcp", n.peerAddrs[p])
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d dialing node %d: %w", n.id, p, err)
	}
	c := newConn(nc)
	c.data = true
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], uint32(n.id))
	if err := c.writeFrame(fPeerHello, id[:]); err != nil {
		closeQuietly(c)
		return nil, err
	}
	return c, nil
}

// sendPeer writes one frame to peer p's data connection, redialing with
// capped exponential backoff when the transport fails. The data plane
// flushes whole frames and the receiver deduplicates by sequence number,
// so resending the frame on a fresh connection is safe even when the
// "failed" write was in fact delivered.
func (n *node) sendPeer(p int, kind byte, payload []byte) error {
	var err error
	if n.peers[p] != nil {
		if err = n.peers[p].writeFrame(kind, payload); err == nil {
			return nil
		}
	}
	backoff := n.cfg.RedialBackoff
	for attempt := 0; attempt < peerRedials; attempt++ {
		if err != nil {
			// Only back off after a failure; a first-time dial is instant.
			// The sleep is capped and context-aware: a SIGTERM mid-storm
			// must interrupt the wait, not sit out an exponential backlog.
			metrics.Inc(metrics.CtrClusterRedials)
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-n.ctx.Done():
				t.Stop()
				return fmt.Errorf("cluster: node %d: redial to peer %d cancelled: %w", n.id, p, n.ctx.Err())
			}
			backoff = min(2*backoff, redialBackoffMax)
		}
		c, derr := n.dialPeer(p)
		if derr != nil {
			err = derr
			continue
		}
		if derr := c.writeFrame(kind, payload); derr != nil {
			closeQuietly(c)
			err = derr
			continue
		}
		if n.peers[p] != nil {
			closeQuietly(n.peers[p])
		}
		n.peers[p] = c
		return nil
	}
	return stepFailf("cluster: node %d: peer %d unreachable after %d redials: %w", n.id, p, peerRedials, err)
}

// sendData sends peer p the next in-sequence data frame of the current
// round, built around its sequence number; peerMu[p] keeps the two
// together across dispatchers. The sequence number advances even when
// the send fails: the frame may have reached the peer anyway, and
// burning the seq keeps a half-delivered attempt from colliding with a
// later resend.
func (n *node) sendData(p int, kind byte, payload func(seq uint64) []byte) error {
	n.peerMu[p].Lock()
	defer n.peerMu[p].Unlock()
	n.peerSeq[p]++
	return n.sendPeer(p, kind, payload(n.peerSeq[p]))
}

// dispatchPhase begins the superstep and runs the crew's dispatch phase,
// then signals end-of-stream to every member peer and DISPATCH_OVER.
// Combine groups and batches are formed per source interval, so they
// depend only on the fixed partition — routing decides where a batch
// goes, never how it is formed.
func (n *node) dispatchPhase(step int64, round uint64) error {
	if err := n.vf.Begin(step, true); err != nil {
		return err
	}
	n.begunStep = step
	clear(n.peerSeq) // sequence numbers are per round
	generated, delivered, err := n.crew.Dispatch(step)
	if err != nil {
		return stepFailure{err: err} // an injected kill inside stays fatal (stepOutcome)
	}
	// End-of-stream on every member peer connection, then DISPATCH_OVER.
	for i := range n.peers {
		if i == n.id || !n.member[i] {
			continue
		}
		if err := n.sendData(i, fEOS, func(seq uint64) []byte { return u64Payload(round, seq) }); err != nil {
			return stepFailf("cluster: node %d EOS to %d: %w", n.id, i, err)
		}
	}
	return n.coord.writeFrame(fDispatchOver, u64Payload(uint64(step), uint64(generated), uint64(delivered)))
}

// kill is the crew's kill hook, the node-death site. A node dies whole,
// as a process does: once the site fires, its other dispatchers fail
// with the kill without consuming another hit.
func (n *node) kill() error {
	n.killMu.Lock()
	defer n.killMu.Unlock()
	if n.killed || fault.Error(fault.SiteNodeKillDispatch) != nil {
		n.killed = true
		return fmt.Errorf("cluster: node %d mid-dispatch: %w", n.id, errNodeKilled)
	}
	return nil
}

// handoff is the crew's hand-off: it moves what source interval src
// folded for intervals other nodes host out of the slab and onto their
// owners' streams, in ascending vertex order and batches of at most
// batchSize, so a round carries at most one message per (source
// interval, destination). batchPayload copies, so one buffer serves.
func (n *node) handoff(src int, s *core.Slab) (sent int64, err error) {
	round := n.round.Load()
	b := make([]core.Message, 0, batchSize)
	send := func(owner int) error {
		sent += int64(len(b))
		err := n.sendData(owner, fBatch, func(seq uint64) []byte { return batchPayload(round, seq, uint32(src), b) })
		b = b[:0]
		return err
	}
	for d, owner := range n.owners {
		lo, hi := n.ivs[d].FirstVertex, n.ivs[d].EndVertex
		if owner == n.id || lo >= hi {
			continue
		}
		for w := lo >> 6; w<<6 < hi; w++ {
			mask := ^uint64(0)
			if w == lo>>6 {
				mask <<= uint(lo & 63)
			}
			if w == (hi-1)>>6 {
				mask &= ^uint64(0) >> uint(63-(hi-1)&63)
			}
			word := s.Bits[w] & mask
			s.Bits[w] &^= word
			for ; word != 0; word &= word - 1 {
				if len(b) == batchSize {
					if err := send(owner); err != nil {
						return sent, err
					}
				}
				v := w<<6 | int64(bits.TrailingZeros64(word))
				b = append(b, core.Message{Dst: graph.VertexID(v), Val: s.Vals[v]})
			}
		}
		if len(b) > 0 {
			if err := send(owner); err != nil {
				return sent, err
			}
		}
	}
	return sent, nil
}

// barrierPhase waits for every peer's end-of-stream, runs the crew's
// compute barrier, commits the superstep, and acknowledges the
// coordinator. A corrupt peer stream unwinds the wait as a step failure
// instead of deadlocking it.
func (n *node) barrierPhase(step int64) error {
	round := n.round.Load()
	// A lost peer (no end-of-stream) fails the superstep with a labelled
	// error instead of blocking the cluster forever.
	var timeoutC <-chan time.Time
	if n.cfg.BarrierTimeout > 0 {
		tm := time.NewTimer(n.cfg.BarrierTimeout)
		defer tm.Stop()
		timeoutC = tm.C
	}
	seen := make([]bool, n.total)
	for need := n.nMembers - 1; need > 0; {
		select {
		case mk := <-n.eosCh:
			if mk.round == round && n.member[mk.sender] && !seen[mk.sender] {
				seen[mk.sender] = true
				need--
			}
		case err := <-n.failCh:
			return stepFailure{err: err}
		case <-timeoutC:
			return stepFailf("cluster: node %d: superstep %d compute barrier timed out after %v waiting for peer end-of-stream", n.id, step, n.cfg.BarrierTimeout)
		}
	}
	updates, err := n.crew.Barrier(step)
	if err != nil {
		return stepFailure{err: err} // an injected kill inside stays fatal (stepOutcome)
	}
	if fault.Error(fault.SiteNodeKillBarrier) != nil {
		return fmt.Errorf("cluster: node %d mid-barrier: %w", n.id, errNodeKilled)
	}
	if err := n.vf.Commit(step, true, true); err != nil {
		return err
	}
	n.begunStep = -1
	return n.coord.writeFrame(fComputeOver, u64Payload(uint64(step), uint64(updates)))
}

func (n *node) sendValues(iv int) error {
	if iv < 0 || iv >= len(n.ivs) || n.owners[iv] != n.id {
		return fmt.Errorf("cluster: node %d asked for values of interval %d it does not host", n.id, iv)
	}
	first, end := n.ivs[iv].FirstVertex, n.ivs[iv].EndVertex
	payloads := make([]uint64, 0, end-first)
	for v := first; v < end; v++ {
		payloads = append(payloads, n.vf.Value(v))
	}
	return n.coord.writeFrame(fValues, valuesPayload(first, payloads))
}
