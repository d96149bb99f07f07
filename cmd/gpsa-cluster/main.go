// Command gpsa-cluster runs a graph algorithm on an in-process GPSA
// cluster: N nodes coordinated over loopback TCP, each owning an
// edge-balanced vertex interval (the paper's actor model extended to
// distributed operation).
//
// Usage:
//
//	gpsa-cluster -graph web.gpsa -algo pagerank -nodes 4
//	gpsa-cluster -graph web-sym.gpsa -algo cc -nodes 3 -retries 3
//
// With -retries > 0 the run survives node deaths: a failed superstep is
// rolled back across the cluster, the dead node is replaced by a same-id
// node that seals its value file at the barrier and enters with JOIN,
// and the step retried. Chaos can be injected into a run through the
// GPSA_FAULT environment variable — the same seeded fault plans the
// torture harness uses (internal/chaostest), e.g.
//
//	GPSA_FAULT='site=cluster.node.kill.barrier,after=2' gpsa-cluster -graph g.gpsa -algo cc -nodes 3 -retries 4
//
// Membership is elastic: -drain shrinks the cluster mid-job (every
// interval the node owns live-migrates to the survivors before it
// exits), -join grows it (new nodes boot mid-job and receive intervals
// by migration), and -redistribute retires crashed nodes permanently
// instead of restarting them. -splits controls migration granularity.
//
//	gpsa-cluster -graph g.gpsa -algo cc -nodes 3 -splits 4 -drain 1@2
//	gpsa-cluster -graph g.gpsa -algo pagerank -nodes 3 -splits 4 -join 2 -rebalance
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro"
	"repro/internal/algorithms"
	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/fault"
)

const (
	exitUsage       = 2
	exitInterrupted = 3
)

func main() { os.Exit(run()) }

func run() int {
	var (
		graphPath  = flag.String("graph", "", "path to a .gpsa CSR graph (required)")
		algo       = flag.String("algo", "pagerank", "algorithm: pagerank, bfs, cc, sssp")
		root       = flag.Uint("root", 0, "root/source vertex for bfs and sssp")
		nodes      = flag.Int("nodes", 2, "cluster size")
		supersteps = flag.Int("supersteps", 0, "superstep cap (0 = algorithm default)")
		retries    = flag.Int("retries", 0, "rollback-and-retry a failed superstep up to N times, replacing dead nodes (0 = fail fast)")
		nodeTO     = flag.Duration("node-timeout", 0, "declare a totally silent node dead after this long (0 = 15s)")
		phaseTO    = flag.Duration("phase-timeout", 0, "fail a superstep when a node heartbeats without progress this long (0 = 4x node-timeout)")
		recoveryTO = flag.Duration("recovery-timeout", 0, "bound one rollback/replacement cycle (0 = 30s)")
		heartbeat  = flag.Duration("heartbeat", 0, "idle-node heartbeat interval (0 = 500ms, negative disables)")
		splits     = flag.Int("splits", 0, "vertex intervals per node (0 = 1); >= 2 gives migration sub-node granularity")
		drains     = flag.String("drain", "", "drain nodes mid-job: comma-separated node@step entries, e.g. 1@2,0@5")
		joins      = flag.String("join", "", "join new nodes mid-job: comma-separated barrier steps, e.g. 2,5")
		rebalance  = flag.Bool("rebalance", false, "migrate intervals toward the edge-weight balance point at every barrier")
		redist     = flag.Bool("redistribute", false, "retire crashed nodes permanently, salvaging their intervals to survivors (default: restart them)")
		verbose    = flag.Bool("v", false, "report armed fault plans, recovery activity, and the final interval assignment table")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: gpsa-cluster -graph g.gpsa [-algo pagerank] [-nodes 3] [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(w, `
exit codes:
  0  success
  1  run failed
  2  usage error
  3  interrupted (SIGINT/SIGTERM); each node's last committed superstep stays durable`)
	}
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("gpsa-cluster", buildinfo.Version())
		return 0
	}
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "gpsa-cluster: -graph is required")
		flag.Usage()
		return exitUsage
	}

	var prog gpsa.Program
	switch *algo {
	case "pagerank":
		prog = algorithms.PageRank{}
		if *supersteps == 0 {
			*supersteps = 5
		}
	case "bfs":
		prog = algorithms.BFS{Root: gpsa.VertexID(*root)}
	case "cc":
		prog = algorithms.ConnectedComponents{}
	case "sssp":
		prog = algorithms.SSSP{Source: gpsa.VertexID(*root)}
	default:
		fmt.Fprintf(os.Stderr, "gpsa-cluster: unknown algorithm %q\n", *algo)
		return exitUsage
	}

	events, err := parseEvents(*drains, *joins)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-cluster: %v\n", err)
		return exitUsage
	}

	if armed, err := fault.ActivateFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-cluster: %v\n", err)
		return exitUsage
	} else if armed && *verbose {
		fmt.Fprintf(os.Stderr, "gpsa-cluster: fault plan armed from %s\n", fault.EnvVar)
	}

	// SIGINT/SIGTERM cancel the run's context: the coordinator stops
	// issuing supersteps, nodes abandon redial storms mid-backoff, and
	// every sealed value file keeps its last committed superstep.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	res, values, err := gpsa.RunDistributed(*graphPath, prog, gpsa.ClusterOptions{
		Nodes:             *nodes,
		Supersteps:        *supersteps,
		Context:           ctx,
		StepRetries:       *retries,
		HeartbeatInterval: *heartbeat,
		NodeTimeout:       *nodeTO,
		PhaseTimeout:      *phaseTO,
		RecoveryTimeout:   *recoveryTO,
		Splits:            *splits,
		Events:            events,
		RedistributeDead:  *redist,
		Rebalance:         *rebalance,
	})
	var se *cluster.SizeError
	if errors.As(err, &se) {
		flagName := map[string]string{"Nodes": "-nodes", "Splits": "-splits"}[se.Field]
		fmt.Fprintf(os.Stderr, "gpsa-cluster: %s %d is too large: -nodes × -splits is at most %d\n", flagName, se.Value, cluster.MaxWorkers)
		return exitUsage
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-cluster: %v\n", err)
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			return exitInterrupted
		}
		return 1
	}
	saved := 0.0
	if res.Messages > 0 {
		saved = 100 * (1 - float64(res.Delivered)/float64(res.Messages))
	}
	fmt.Printf("cluster of %d nodes: %d supersteps in %v (converged=%v)\n",
		res.Nodes, res.Supersteps, res.Duration, res.Converged)
	fmt.Printf("traffic: %d messages generated, %d delivered (combining saved %.1f%%)\n",
		res.Messages, res.Delivered, saved)
	if res.Rollbacks > 0 || res.Rejoins > 0 {
		fmt.Printf("recovery: %d superstep rollbacks, %d node rejoins\n", res.Rollbacks, res.Rejoins)
	}
	if res.Migrations > 0 || res.Redistributions > 0 || res.Joins > 0 || res.Drains > 0 {
		fmt.Printf("membership: %d joins, %d drains, %d interval migrations, %d dead-node redistributions; %d members at end\n",
			res.Joins, res.Drains, res.Migrations, res.Redistributions, res.LiveNodes)
	}
	// The assignment table is the live routing state: after any
	// migration it is the only place the final interval placement shows.
	if *verbose || res.Migrations > 0 || res.Redistributions > 0 {
		fmt.Println("interval assignments:")
		for _, a := range res.Assignments {
			fmt.Printf("  interval %3d  vertices [%8d, %8d)  -> node %d\n", a.Interval, a.First, a.End, a.Node)
		}
	}
	fmt.Printf("computed values for %d vertices\n", len(values))
	return 0
}

// parseEvents builds the membership schedule from the -drain (node@step)
// and -join (step) flag lists.
func parseEvents(drains, joins string) ([]gpsa.MembershipEvent, error) {
	var events []gpsa.MembershipEvent
	for _, ent := range splitList(drains) {
		var node int
		var step int64
		if _, err := fmt.Sscanf(ent, "%d@%d", &node, &step); err != nil {
			return nil, fmt.Errorf("bad -drain entry %q, want node@step", ent)
		}
		events = append(events, gpsa.MembershipEvent{Step: step, Op: gpsa.OpDrain, Node: node})
	}
	for _, ent := range splitList(joins) {
		var step int64
		if _, err := fmt.Sscanf(ent, "%d", &step); err != nil {
			return nil, fmt.Errorf("bad -join entry %q, want a superstep number", ent)
		}
		events = append(events, gpsa.MembershipEvent{Step: step, Op: gpsa.OpJoin})
	}
	return events, nil
}

func splitList(s string) []string {
	var out []string
	for _, ent := range strings.Split(s, ",") {
		if ent = strings.TrimSpace(ent); ent != "" {
			out = append(out, ent)
		}
	}
	return out
}
