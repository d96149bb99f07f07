package cluster_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// TestClusterRecoversFromTransientConnDrop severs one data-plane
// connection mid-run; the sender must redial and resend the frame whole,
// and the run must finish with exactly the reference answer.
func TestClusterRecoversFromTransientConnDrop(t *testing.T) {
	g := rmat(t, 400, 2500, 31).Symmetrize()
	want, _ := algorithms.ReferenceRun(g, algorithms.ConnectedComponents{}, 100)

	plan := fault.NewPlan(0, fault.Injection{Site: fault.SiteConnDrop, After: 10})
	fault.Activate(plan)
	defer fault.Deactivate()
	res, values, err := cluster.Run(save(t, g), algorithms.ConnectedComponents{}, cluster.Config{
		Nodes: 3,
		Node:  cluster.NodeConfig{RedialBackoff: 2 * time.Millisecond},
	})
	fault.Deactivate()
	if err != nil {
		t.Fatalf("run with transient drop failed: %v", err)
	}
	if plan.Fired(fault.SiteConnDrop) != 1 {
		t.Fatalf("drop fired %d times, want 1", plan.Fired(fault.SiteConnDrop))
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if values[v] != want[v] {
			t.Fatalf("vertex %d: %d, want %d", v, values[v], want[v])
		}
	}
}

// TestClusterPermanentDropFailsBounded drops every data-plane write: the
// redial budget runs out and the coordinator must surface a labelled
// step-level error within a bound instead of hanging at the barrier.
func TestClusterPermanentDropFailsBounded(t *testing.T) {
	g := rmat(t, 300, 2000, 32).Symmetrize()
	path := save(t, g)

	fault.Activate(fault.NewPlan(0, fault.Injection{Site: fault.SiteConnDrop, Count: -1}))
	defer fault.Deactivate()
	done := make(chan error, 1)
	go func() {
		_, _, err := cluster.Run(path, algorithms.ConnectedComponents{}, cluster.Config{
			Nodes:       3,
			NodeTimeout: 2 * time.Second,
			Node: cluster.NodeConfig{
				BarrierTimeout: 2 * time.Second,
				RedialBackoff:  time.Millisecond,
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a dead data plane succeeded")
		}
		if !strings.Contains(err.Error(), "node") {
			t.Fatalf("error = %v, want a node-labelled cluster error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster hung on a permanently dead data plane")
	}
}

// TestClusterRedialExhaustionNamesPeer pins the shape of the
// redial-exhaustion error: when a peer stays unreachable through the
// whole redial budget, the surfaced error must name the unreachable
// peer and the attempt count, so an operator reading the failure knows
// which link died and that the budget — not a hang — ended the step.
func TestClusterRedialExhaustionNamesPeer(t *testing.T) {
	g := rmat(t, 200, 1200, 35).Symmetrize()
	path := save(t, g)

	fault.Activate(fault.NewPlan(0, fault.Injection{Site: fault.SiteConnDrop, Count: -1}))
	defer fault.Deactivate()
	redials0 := metrics.Counter(metrics.CtrClusterRedials)
	_, _, err := cluster.Run(path, algorithms.ConnectedComponents{}, cluster.Config{
		Nodes:       3,
		NodeTimeout: 2 * time.Second,
		Node: cluster.NodeConfig{
			BarrierTimeout: 2 * time.Second,
			RedialBackoff:  time.Millisecond,
		},
	})
	fault.Deactivate()
	if err == nil {
		t.Fatal("run with a dead data plane succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "peer") {
		t.Fatalf("error = %v, want the unreachable peer named", err)
	}
	if !strings.Contains(msg, "after 3 redials") {
		t.Fatalf("error = %v, want the redial attempt count (after 3 redials)", err)
	}
	if got := metrics.Counter(metrics.CtrClusterRedials); got <= redials0 {
		t.Fatalf("cluster.redials did not advance (%d -> %d)", redials0, got)
	}
}

// TestClusterNodeDeathRejoinsAndRecovers kills one node mid-dispatch at
// the cluster API level: the coordinator must roll the superstep back,
// boot a replacement that rejoins from the sealed value file, and finish
// with exactly the reference answer — the Result counters recording the
// recovery.
func TestClusterNodeDeathRejoinsAndRecovers(t *testing.T) {
	g := rmat(t, 300, 2000, 36).Symmetrize()
	want, _ := algorithms.ReferenceRun(g, algorithms.ConnectedComponents{}, 100)

	plan := fault.NewPlan(0, fault.Injection{Site: fault.SiteNodeKillDispatch, After: 40})
	fault.Activate(plan)
	defer fault.Deactivate()
	res, values, err := cluster.Run(save(t, g), algorithms.ConnectedComponents{}, cluster.Config{
		Nodes:             3,
		StepRetries:       3,
		HeartbeatInterval: 100 * time.Millisecond,
		NodeTimeout:       2 * time.Second,
		RecoveryTimeout:   10 * time.Second,
		Node: cluster.NodeConfig{
			BarrierTimeout: 2 * time.Second,
			RedialBackoff:  2 * time.Millisecond,
		},
	})
	fault.Deactivate()
	if err != nil {
		t.Fatalf("run with a killed node failed: %v", err)
	}
	if plan.Fired(fault.SiteNodeKillDispatch) == 0 {
		t.Fatal("kill site never fired; the test exercised nothing")
	}
	if res.Rollbacks == 0 || res.Rejoins == 0 {
		t.Fatalf("Result reports rollbacks=%d rejoins=%d, want both > 0", res.Rollbacks, res.Rejoins)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if values[v] != want[v] {
			t.Fatalf("vertex %d: %d, want %d", v, values[v], want[v])
		}
	}
}

// TestClusterSilentNodeTimesOut wedges the data plane while heartbeats are
// disabled, so a node goes completely silent on the control plane; the
// coordinator's liveness timeout must convert that into an "unresponsive"
// error instead of waiting forever.
func TestClusterSilentNodeTimesOut(t *testing.T) {
	g := rmat(t, 200, 1200, 33).Symmetrize()
	path := save(t, g)

	fault.Activate(fault.NewPlan(0, fault.Injection{
		Site: fault.SiteConnStall, Count: -1, Delay: 5 * time.Second,
	}))
	defer fault.Deactivate()
	done := make(chan error, 1)
	go func() {
		_, _, err := cluster.Run(path, algorithms.ConnectedComponents{}, cluster.Config{
			Nodes:             3,
			HeartbeatInterval: -1, // silence really means silence
			NodeTimeout:       time.Second,
			Node:              cluster.NodeConfig{BarrierTimeout: 2 * time.Second},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a wedged node succeeded")
		}
		if !strings.Contains(err.Error(), "unresponsive") {
			t.Fatalf("error = %v, want unresponsive-node timeout", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung on a silent node")
	}
}

// TestClusterHeartbeatsKeepSlowNodeAlive is the inverse: with heartbeats
// on and an ample liveness budget, a briefly-stalled data plane must NOT
// trip the coordinator — the run completes once the stall clears.
func TestClusterHeartbeatsKeepSlowNodeAlive(t *testing.T) {
	g := rmat(t, 200, 1200, 34).Symmetrize()
	want, _ := algorithms.ReferenceRun(g, algorithms.ConnectedComponents{}, 100)

	// One 700ms stall with a 500ms liveness timeout: only heartbeats
	// (100ms) keep the coordinator from declaring the node dead.
	fault.Activate(fault.NewPlan(0, fault.Injection{
		Site: fault.SiteConnStall, After: 8, Delay: 700 * time.Millisecond,
	}))
	defer fault.Deactivate()
	_, values, err := cluster.Run(save(t, g), algorithms.ConnectedComponents{}, cluster.Config{
		Nodes:             3,
		HeartbeatInterval: 100 * time.Millisecond,
		NodeTimeout:       500 * time.Millisecond,
	})
	fault.Deactivate()
	if err != nil {
		t.Fatalf("run with heartbeats failed: %v", err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if values[v] != want[v] {
			t.Fatalf("vertex %d: %d, want %d", v, values[v], want[v])
		}
	}
}
