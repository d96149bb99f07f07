package preprocess

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// AdjacencyToCSR converts the adjacency text format ("src n dst1 ...
// dstn" per line; paper §V-A accepts both edge lists and adjacency
// input). Adjacency input is already grouped by source, but lines may
// appear out of order, so the same external counting sort is reused;
// edges keep the order the file lists them in.
func AdjacencyToCSR(inputPath, outputPath string, opt Options) (*Stats, error) {
	in, err := os.Open(inputPath)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	defer in.Close() //lint:syncerr read-only handle; no durability contract on close
	return ConvertEdgeStream(newAdjacencyReader(in), outputPath, opt)
}

// adjacencyReader yields the edges of an adjacency file one at a time.
type adjacencyReader struct {
	sc      *bufio.Scanner
	line    int
	src     graph.VertexID
	pending []graph.VertexID
}

func newAdjacencyReader(r io.Reader) *adjacencyReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	return &adjacencyReader{sc: sc}
}

func (a *adjacencyReader) ReadEdge() (graph.Edge, error) {
	for len(a.pending) == 0 {
		if !a.sc.Scan() {
			if err := a.sc.Err(); err != nil {
				return graph.Edge{}, err
			}
			return graph.Edge{}, io.EOF
		}
		a.line++
		if err := a.parseLine(a.sc.Bytes()); err != nil {
			return graph.Edge{}, fmt.Errorf("preprocess: adjacency line %d: %w", a.line, err)
		}
	}
	e := graph.Edge{Src: a.src, Dst: a.pending[0]}
	a.pending = a.pending[1:]
	return e, nil
}

func (a *adjacencyReader) position() string { return fmt.Sprintf("adjacency line %d", a.line) }

func (a *adjacencyReader) parseLine(b []byte) error {
	b = skipSpace(b)
	if len(b) == 0 || b[0] == '#' || b[0] == '%' {
		return nil
	}
	src, rest, err := parseUint(b)
	if err != nil {
		return fmt.Errorf("bad source: %v", err)
	}
	n, rest, err := parseUint(rest)
	if err != nil {
		return fmt.Errorf("bad degree: %v", err)
	}
	// The declared count is untrusted: allocate only for destinations
	// actually present.
	var dsts []graph.VertexID
	for k := uint64(0); k < n; k++ {
		var d uint64
		d, rest, err = parseUint(rest)
		if err != nil {
			return fmt.Errorf("destination %d of %d: %v", k+1, n, err)
		}
		dsts = append(dsts, graph.VertexID(d))
	}
	if rest = skipSpace(rest); len(rest) > 0 {
		return fmt.Errorf("trailing data %q after %d destinations", rest, n)
	}
	a.src = graph.VertexID(src)
	a.pending = dsts
	return nil
}
