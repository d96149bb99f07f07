package cluster_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// bombProg panics inside Compute for one vertex, in the barrier apply of
// whichever node hosts it. The cluster must surface an error promptly
// instead of deadlocking at the barrier.
type bombProg struct{ bomb graph.VertexID }

func (b bombProg) Init(v int64) (uint64, bool) { return uint64(v), true }

func (b bombProg) GenMsg(src int64, payload uint64, outDegree uint32, dst graph.VertexID, weight float32) (uint64, bool) {
	return payload, true
}

func (b bombProg) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	if dst == int64(b.bomb) {
		panic("compute bomb")
	}
	if msg < cur {
		return msg, true
	}
	return cur, false
}

func (b bombProg) CombineMsg(a, c uint64) uint64 { return min(a, c) }

func TestClusterSurvivesComputePanicWithoutDeadlock(t *testing.T) {
	g := rmat(t, 200, 1500, 21).Symmetrize()
	path := save(t, g)

	done := make(chan error, 1)
	go func() {
		_, _, err := cluster.Run(path, bombProg{bomb: 17}, cluster.Config{Nodes: 3})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with panicking program succeeded")
		}
		if !strings.Contains(err.Error(), "panic") && !strings.Contains(err.Error(), "cluster") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster deadlocked after a Compute panic")
	}
}
