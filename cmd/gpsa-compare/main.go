// Command gpsa-compare runs one of the paper's workloads on all three
// engines — GPSA, the GraphChi-style PSW baseline, and the X-Stream-style
// edge-centric baseline — over a user-supplied graph, printing the same
// comparison row the paper's figures chart.
//
// Usage:
//
//	gpsa-compare -graph web.gpsa [-algo pagerank] [-supersteps 5] [-runs 3]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/buildinfo"
	"repro/internal/graph"
	"repro/internal/mmap"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "path to a .gpsa CSR graph (required)")
		algo       = flag.String("algo", "all", "workload: pagerank, cc, bfs, all")
		supersteps = flag.Int("supersteps", 5, "measured supersteps (paper: 5)")
		runs       = flag.Int("runs", 3, "averaging runs (paper: 3)")
		work       = flag.String("workdir", "", "scratch directory (default: temp)")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("gpsa-compare", buildinfo.Version())
		return
	}
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "gpsa-compare: -graph is required")
		flag.Usage()
		os.Exit(2)
	}

	g, err := loadCSR(*graphPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-compare: %v\n", err)
		os.Exit(1)
	}

	dir := *work
	if dir == "" {
		dir, err = os.MkdirTemp("", "gpsa-compare-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-compare: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
	}
	arts, err := bench.BuildArtifactsFromCSR(g, dir, 4)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-compare: %v\n", err)
		os.Exit(1)
	}

	algos := bench.AllAlgos
	switch *algo {
	case "pagerank":
		algos = []bench.Algo{bench.AlgoPageRank}
	case "cc":
		algos = []bench.Algo{bench.AlgoCC}
	case "bfs":
		algos = []bench.Algo{bench.AlgoBFS}
	case "all":
	default:
		fmt.Fprintf(os.Stderr, "gpsa-compare: unknown workload %q\n", *algo)
		os.Exit(2)
	}

	fmt.Printf("graph: %d vertices, %d edges; %d supersteps x %d runs; BFS root %d\n\n",
		g.NumVertices, g.NumEdges, *supersteps, *runs, arts.BFSRoot)
	fmt.Printf("%-10s %-10s %12s %12s %8s %10s\n", "Algo", "System", "Seconds", "Sec/Step", "CPU%", "vs GPSA")
	opts := bench.Options{Supersteps: *supersteps, Runs: *runs}
	for _, alg := range algos {
		var gpsaSecs float64
		for _, sys := range bench.AllSystems {
			cell, err := bench.MeasureCell(arts, sys, alg, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gpsa-compare: %s/%s: %v\n", sys, alg, err)
				os.Exit(1)
			}
			speedup := "-"
			if sys == bench.SysGPSA {
				gpsaSecs = cell.Seconds
			} else if gpsaSecs > 0 {
				speedup = fmt.Sprintf("%.2fx", cell.Seconds/gpsaSecs)
			}
			fmt.Printf("%-10s %-10s %12.4f %12.4f %7.1f%% %10s\n",
				alg, sys, cell.Seconds, cell.PerStep, cell.CPUPercent, speedup)
		}
	}
}

// loadCSR rebuilds an in-memory CSR from an on-disk file of either format.
func loadCSR(path string) (*graph.CSR, error) {
	f, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	edges := make([]graph.Edge, 0, f.NumEdges)
	c := f.Cursor(f.WholeInterval())
	for {
		v, deg, raw, ok := c.Next()
		if !ok {
			break
		}
		for i := 0; i < int(deg); i++ {
			d, w := graph.DecodeEdge(raw, i, f.Weighted())
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: d, Weight: w})
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return graph.FromEdges(edges, f.NumVertices, f.Weighted())
}
