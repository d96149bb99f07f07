package cluster

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mmap"
)

// TestBadPeerBatchFailsStep feeds node 0 of a two-node partition one
// peer BATCH it must not apply — naming a vertex past the vertex count or
// inside the interval node 1 hosts, or a vertex it hosts under a program
// whose Compute panics — and requires the barrier to return a typed step
// failure, not a panic, and the rollback after it to complete.
func TestBadPeerBatchFailsStep(t *testing.T) {
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

	// A coordinator that only accepts: the node's hello lands in the
	// socket buffer and nothing else is asked of it.
	coord, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuietly(coord)
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
		prog: algorithms.PageRank{}, ivs: ivs, owners: []int{0, 1},
		cfg: NodeConfig{BarrierTimeout: 10 * time.Second}, heartbeat: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()

	cases := []struct {
		name string
		dst  graph.VertexID
		prog core.Program
	}{
		{"past the vertex count", graph.VertexID(g.NumVertices + 5), algorithms.PageRank{}},
		{"in the peer's interval", graph.VertexID(ivs[1].FirstVertex), algorithms.PageRank{}},
		{"compute panics", graph.VertexID(ivs[0].FirstVertex), panicProg{}},
	}
	for i, tc := range cases {
		n.prog = tc.prog
		round := uint64(i + 1)
		n.round.Store(round)
		if err := n.vf.Begin(0, false); err != nil {
			t.Fatal(err)
		}
		n.begunStep = 0

		peer, err := net.Dial("tcp", n.listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		pc := newConn(peer)
		batch := []core.Message{{Dst: tc.dst, Val: 1}}
		for _, f := range []struct {
			kind    byte
			payload []byte
		}{
			{fPeerHello, []byte{1, 0, 0, 0}},
			{fBatch, batchPayload(round, 1, 1, batch)},
			{fEOS, u64Payload(round, 2)},
		} {
			if err := pc.writeFrame(f.kind, f.payload); err != nil {
				t.Fatal(err)
			}
		}

		err = within(t, tc.name+": barrier", func() error { return n.barrierPhase(0) })
		var sf stepFailure
		if !errors.As(err, &sf) {
			t.Fatalf("%s: barrier returned %v, want a step failure", tc.name, err)
		}
		if err := within(t, tc.name+": rollback", func() error { return n.rollbackStep(0, round+1) }); err != nil {
			t.Fatalf("%s: rollback: %v", tc.name, err)
		}
		closeQuietly(pc)
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
