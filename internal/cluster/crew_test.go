package cluster_test

import (
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mmap"
)

// TestNodeDispatchesOwnedIntervalsConcurrently runs one node over three
// intervals with a program whose first GenMsg in each interval waits
// until all three intervals have started, for at most 5 s: a node that
// dispatched its intervals one after another would leave the first two
// waiting out the bound.
func TestNodeDispatchesOwnedIntervalsConcurrently(t *testing.T) {
	path := save(t, rmat(t, 3000, 40000, 3))
	gf, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	ivs := gf.Partition(3)
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 3 {
		t.Fatalf("partition of %d intervals, want 3", len(ivs))
	}
	prog := &rendezvousProg{ivs: ivs, all: make(chan struct{})}
	start := time.Now()
	if _, _, err := cluster.Run(path, prog, cluster.Config{Nodes: 1, Splits: 3, MaxSupersteps: 2}); err != nil {
		t.Fatal(err)
	}
	if prog.timedOut.Load() {
		t.Fatalf("an interval's dispatcher waited 5 s for the others to start (run took %v): the node dispatches its intervals one at a time", time.Since(start))
	}
}

// rendezvousProg is PageRank whose first GenMsg in each interval of ivs
// waits for the first GenMsg of every other interval.
type rendezvousProg struct {
	algorithms.PageRank
	ivs      []graph.Interval
	entered  [3]atomic.Bool
	arrived  atomic.Int32
	all      chan struct{}
	timedOut atomic.Bool
}

func (p *rendezvousProg) GenMsg(src int64, payload uint64, deg uint32, dst graph.VertexID, w float32) (uint64, bool) {
	k := sort.Search(len(p.ivs), func(i int) bool { return p.ivs[i].EndVertex > src })
	if p.entered[k].CompareAndSwap(false, true) {
		if p.arrived.Add(1) == int32(len(p.ivs)) {
			close(p.all)
		}
		select {
		case <-p.all:
		case <-time.After(5 * time.Second):
			p.timedOut.Store(true)
		}
	}
	return p.PageRank.GenMsg(src, payload, deg, dst, w)
}

// TestNodeDispatcherPanicRetriesBitIdentical fires core's dispatcher
// panic site once on a 1×3 node, which reaches it only through core's
// dispatcher actors: the node must report the step failure, roll back,
// and retry to values bit-identical to an undisturbed run.
func TestNodeDispatcherPanicRetriesBitIdentical(t *testing.T) {
	path := save(t, rmat(t, 3000, 40000, 5))
	cfg := cluster.Config{Nodes: 1, Splits: 3, MaxSupersteps: 5}
	_, want, err := cluster.Run(path, algorithms.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(0, fault.Injection{Site: fault.SiteDispatcherMsg, After: 50000})
	fault.Activate(plan)
	defer fault.Deactivate()
	cfg.StepRetries = 1
	res, got, err := cluster.Run(path, algorithms.PageRank{}, cfg)
	fault.Deactivate()
	if err != nil {
		t.Fatalf("run with one dispatcher panic: %v", err)
	}
	if plan.Fired(fault.SiteDispatcherMsg) != 1 || res.Rollbacks != 1 {
		t.Fatalf("panic fired %d times and the run rolled back %d times, want 1 and 1", plan.Fired(fault.SiteDispatcherMsg), res.Rollbacks)
	}
	assertSameValues(t, "1x3 after a dispatcher panic vs undisturbed", got, want)
}
