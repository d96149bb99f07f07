// Command gpsa-preprocess converts a text edge list (SNAP format:
// "src dst [weight]" lines, '#' comments) into the on-disk CSR format the
// GPSA engine streams. It groups edges by source with a bounded-memory
// external counting sort: chunks of at most -chunk edges are placed by
// source without a comparison sort, a chunk is spilled to a temp run only
// when the input exceeds -chunk, and runs merge stably, so each vertex
// keeps its edges in input order and the output does not depend on -chunk.
//
// Usage:
//
//	gpsa-preprocess -in web-Google.txt -out web.gpsa [-weighted] [-symmetrize]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/graph"
	"repro/internal/mmap"
	"repro/internal/preprocess"
)

func main() {
	var (
		in         = flag.String("in", "", "input edge-list file (required)")
		out        = flag.String("out", "", "output .gpsa file (required)")
		weighted   = flag.Bool("weighted", false, "retain the third column as edge weights")
		symmetrize = flag.Bool("symmetrize", false, "also write <out>-sym.gpsa with doubled edges (for CC)")
		vertices   = flag.Int64("vertices", 0, "force the vertex count (0 = infer)")
		chunk      = flag.Int("chunk", 0, "edges held in memory at once; a larger input spills sorted runs to disk (0 = default 4194304)")
		compact    = flag.Bool("compact", false, "write the varint-delta compact CSR format")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("gpsa-preprocess", buildinfo.Version())
		return
	}
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "gpsa-preprocess: -in and -out are required")
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	stats, err := preprocess.EdgeListToCSR(*in, *out, preprocess.Options{
		Weighted:    *weighted,
		NumVertices: *vertices,
		ChunkEdges:  *chunk,
		Compact:     *compact,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsa-preprocess: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d vertices, %d edges (%d sorted runs, %v)\n",
		*out, stats.NumVertices, stats.NumEdges, stats.Runs, time.Since(start))

	if *symmetrize {
		f, err := graph.OpenFile(*out, mmap.ModeAuto)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-preprocess: %v\n", err)
			os.Exit(1)
		}
		sym, err := symmetrizeFile(f, *weighted)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-preprocess: %v\n", err)
			os.Exit(1)
		}
		symPath := symName(*out)
		if err := graph.WriteFile(symPath, sym); err != nil {
			fmt.Fprintf(os.Stderr, "gpsa-preprocess: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d vertices, %d edges\n", symPath, sym.NumVertices, sym.NumEdges)
	}
}

func symName(out string) string {
	const ext = ".gpsa"
	if len(out) > len(ext) && out[len(out)-len(ext):] == ext {
		return out[:len(out)-len(ext)] + "-sym" + ext
	}
	return out + "-sym"
}

// symmetrizeFile rebuilds an in-memory CSR from the on-disk file and
// doubles its edges.
func symmetrizeFile(f *graph.File, weighted bool) (*graph.CSR, error) {
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
	g, err := graph.FromEdges(edges, f.NumVertices, weighted)
	if err != nil {
		return nil, err
	}
	return g.Symmetrize(), nil
}
