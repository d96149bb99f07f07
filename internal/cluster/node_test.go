package cluster

import (
	"context"
	"errors"
	"math"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mmap"
)

// testNode boots node 0 of a two-node partition of a small R-MAT graph,
// hosting interval 1 of the two it returns, under a coordinator that only
// accepts: the node's frames land in the socket buffer and nothing else
// is asked of it.
func testNode(t *testing.T, prog core.Program) (*node, []graph.Interval) {
	t.Helper()
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 64, Edges: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.gpsa")
	if err := graph.WriteFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	gf, err := graph.OpenFile(gpath, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	ivs := gf.Partition(2)
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("partition of %d intervals, want 2", len(ivs))
	}
	coord, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeQuietly(coord) })
	go func() {
		if c, err := coord.Accept(); err == nil {
			defer closeQuietly(c)
			buf := make([]byte, 512)
			for {
				if _, err := c.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	n, err := startNode(context.Background(), nodeSpec{
		id: 0, total: 2, coordAddr: coord.Addr().String(),
		graphPath: gpath, valuesPath: filepath.Join(dir, "v.gpvf"),
		prog: prog, ivs: ivs, owners: []int{1, 0},
		cfg: NodeConfig{BarrierTimeout: 10 * time.Second}, heartbeat: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.close)
	return n, ivs
}

// dialAsPeer connects to n's data listener as node 1.
func dialAsPeer(t *testing.T, n *node) *conn {
	t.Helper()
	peer, err := net.Dial("tcp", n.listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pc := newConn(peer)
	t.Cleanup(func() { closeQuietly(pc) })
	if err := pc.writeFrame(fPeerHello, []byte{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	return pc
}

// TestBadPeerBatchFailsStep feeds node 0 of a two-node partition, which
// hosts interval 1, one peer BATCH from interval 0 that it must not apply
// — naming a vertex past the vertex count or inside the interval node 1
// hosts, or a vertex it hosts under a program whose Compute panics — and
// requires the barrier to return a typed step failure, not a panic, and
// the rollback after it to complete. The first two fail as the batch is
// released in order; the third in the crew's computer, which applies the
// held batch at the barrier.
func TestBadPeerBatchFailsStep(t *testing.T) {
	cases := []struct {
		name string
		dst  func(ivs []graph.Interval) graph.VertexID
		prog core.Program
		want string // in the step failure
	}{
		{"past the vertex count", func(ivs []graph.Interval) graph.VertexID { return graph.VertexID(ivs[1].EndVertex + 5) }, algorithms.PageRank{}, "names vertex"},
		{"in the peer's interval", func(ivs []graph.Interval) graph.VertexID { return graph.VertexID(ivs[0].FirstVertex) }, algorithms.PageRank{}, "does not host"},
		{"compute panics", func(ivs []graph.Interval) graph.VertexID { return graph.VertexID(ivs[1].FirstVertex) }, panicProg{}, "compute bomb"},
	}
	for _, tc := range cases {
		n, ivs := testNode(t, tc.prog)
		const round = 1
		n.round.Store(round)
		if err := n.vf.Begin(0, false); err != nil {
			t.Fatal(err)
		}
		n.begunStep = 0

		pc := dialAsPeer(t, n)
		batch := []core.Message{{Dst: tc.dst(ivs), Val: 1}}
		if err := pc.writeFrame(fBatch, batchPayload(round, 1, 0, batch)); err != nil {
			t.Fatal(err)
		}
		if err := pc.writeFrame(fEOS, u64Payload(round, 2)); err != nil {
			t.Fatal(err)
		}

		err := within(t, tc.name+": barrier", func() error { return n.barrierPhase(0) })
		var sf stepFailure
		if !errors.As(err, &sf) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: barrier returned %v, want a step failure naming %q", tc.name, err, tc.want)
		}
		if err := within(t, tc.name+": rollback", func() error { return n.rollbackStep(0, round+1) }); err != nil {
			t.Fatalf("%s: rollback: %v", tc.name, err)
		}
	}
}

// TestEarlyPeerBatchWaitsForBegin sends node 0 a peer's superstep-0
// batch before the node has begun the step — the coordinator writes START
// to its members one after another, so a peer can be streaming before
// this node reads its own — and then rolls the step back without the node
// having begun it, as when the START write to the node fails. The retry
// must commit exactly what a node that never saw the early batch commits:
// had the computer applied it, the retry would find its update slot
// already written at this epoch and fold into it.
func TestEarlyPeerBatchWaitsForBegin(t *testing.T) {
	run := func(early bool) []uint64 {
		n, ivs := testNode(t, silentProg{})
		pc := dialAsPeer(t, n)
		batch := []core.Message{{Dst: graph.VertexID(ivs[1].FirstVertex), Val: math.Float64bits(1)}}
		round := uint64(1)
		n.round.Store(round)
		if early {
			if err := pc.writeFrame(fBatch, batchPayload(round, 1, 0, batch)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(200 * time.Millisecond) // the node's computer has received it
			if err := within(t, "rollback", func() error { return n.rollbackStep(0, round+1) }); err != nil {
				t.Fatal(err)
			}
			round++
		}
		if err := n.vf.Begin(0, true); err != nil {
			t.Fatal(err)
		}
		n.begunStep = 0
		if err := pc.writeFrame(fBatch, batchPayload(round, 1, 0, batch)); err != nil {
			t.Fatal(err)
		}
		if err := pc.writeFrame(fEOS, u64Payload(round, 2)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := n.crew.Dispatch(0); err != nil {
			t.Fatal(err)
		}
		if err := within(t, "barrier", func() error { return n.barrierPhase(0) }); err != nil {
			t.Fatal(err)
		}
		return n.vf.Values()
	}
	got, want := run(true), run(false)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: %#x after an early batch and a rollback, want %#x: the early batch was applied", v, got[v], want[v])
		}
	}
}

// silentProg is PageRank whose dispatchers send nothing, so a test node's
// only messages are the ones its test streams to it.
type silentProg struct{ algorithms.PageRank }

func (silentProg) GenMsg(int64, uint64, uint32, graph.VertexID, float32) (uint64, bool) {
	return 0, false
}

// TestSilentProgSendsNothing: silentProg inherits PageRank's Fold, and
// the dispatcher takes the one message per vertex from the program's own
// GenMsg, so the override still suppresses every message and each
// vertex keeps its initial rank.
func TestSilentProgSendsNothing(t *testing.T) {
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 500, Edges: 4000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gpsa")
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	res, vals, err := Run(path, silentProg{}, Config{Nodes: 2, Splits: 2, MaxSupersteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 0 || res.Updates != 0 {
		t.Fatalf("silentProg sent %d messages and made %d updates, want none", res.Messages, res.Updates)
	}
	for v, x := range vals {
		if x != math.Float64bits(1) {
			t.Fatalf("vertex %d: %#x, want its initial rank 1", v, x)
		}
	}
}

// panicProg is PageRank whose Compute panics on every message.
type panicProg struct{ algorithms.PageRank }

func (panicProg) Compute(int64, uint64, uint64, bool) (uint64, bool) { panic("compute bomb") }

// within runs f, failing the test if it does not return in time — a
// barrier that lost its failure would wait for the timeout, and a
// rollback that waited on a dead apply would never return.
func within(t *testing.T, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		t.Fatalf("%s: hung", what)
		return nil
	}
}
