package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
)

// EdgeListReader parses a text edge list (the SNAP dataset format used
// for the paper's inputs) one edge at a time: one "src dst [weight]"
// line per edge, fields separated by spaces, tabs or carriage returns,
// blank lines and lines beginning with '#' or '%' ignored. Ids are
// decimal integers below 2^32; the optional weight is parsed as a
// float32 by strconv.ParseFloat, and later fields are ignored. It is the
// one text parser: ParseEdgeList and internal/preprocess both read
// through it.
type EdgeListReader struct {
	sc   *bufio.Scanner
	line int
}

// NewEdgeListReader returns a reader of the edge list r holds. Lines
// longer than 1 MiB are rejected.
func NewEdgeListReader(r io.Reader) *EdgeListReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &EdgeListReader{sc: sc}
}

// Next returns the next edge; io.EOF ends the list. Any other error
// begins "line N: ", for the caller to prefix with its own name.
func (t *EdgeListReader) Next() (Edge, error) {
	for t.sc.Scan() {
		t.line++
		b := skipSpace(t.sc.Bytes())
		if len(b) == 0 || b[0] == '#' || b[0] == '%' {
			continue
		}
		e, err := parseEdgeLine(b)
		if err != nil {
			return Edge{}, fmt.Errorf("line %d: %w", t.line, err)
		}
		return e, nil
	}
	if err := t.sc.Err(); err != nil {
		return Edge{}, fmt.Errorf("line %d: %w", t.line+1, err)
	}
	return Edge{}, io.EOF
}

// Line is the 1-based line number of the edge Next returned last.
func (t *EdgeListReader) Line() int { return t.line }

func parseEdgeLine(b []byte) (Edge, error) {
	src, rest, err := parseUint(b)
	if err != nil {
		return Edge{}, fmt.Errorf("bad source: %v", err)
	}
	dst, rest, err := parseUint(rest)
	if err != nil {
		return Edge{}, fmt.Errorf("bad destination: %v", err)
	}
	e := Edge{Src: VertexID(src), Dst: VertexID(dst)}
	if rest = skipSpace(rest); len(rest) > 0 {
		f := rest[:fieldEnd(rest)]
		w, err := strconv.ParseFloat(string(f), 32)
		if err != nil {
			return Edge{}, fmt.Errorf("bad weight %q: %v", f, err)
		}
		e.Weight = float32(w)
	}
	return e, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

func skipSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	return b
}

func fieldEnd(b []byte) int {
	i := 0
	for i < len(b) && !isSpace(b[i]) {
		i++
	}
	return i
}

// parseUint reads one decimal field; it must end at a separator or at
// the end of the line.
func parseUint(b []byte) (uint64, []byte, error) {
	b = skipSpace(b)
	i := 0
	var x uint64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		x = x*10 + uint64(b[i]-'0')
		if x > uint64(MaxVertices) {
			return 0, nil, fmt.Errorf("id overflows 32 bits")
		}
		i++
	}
	if i == 0 || i < len(b) && !isSpace(b[i]) {
		return 0, nil, fmt.Errorf("expected integer in %q", b)
	}
	return x, b[i:], nil
}

// ParseEdgeList reads a whole text edge list through EdgeListReader.
func ParseEdgeList(r io.Reader) ([]Edge, error) {
	er := NewEdgeListReader(r)
	var edges []Edge
	for {
		e, err := er.Next()
		if err == io.EOF {
			return edges, nil
		}
		if err != nil {
			return nil, fmt.Errorf("graph: edge list %w", err)
		}
		edges = append(edges, e)
	}
}

// LoadEdgeListFile reads a text edge-list file.
func LoadEdgeListFile(path string) ([]Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close() //lint:syncerr read-only handle; no durability contract on close
	return ParseEdgeList(f)
}

// WriteEdgeList writes edges in the text format ParseEdgeList accepts.
// Weights are emitted only when weighted is true.
func WriteEdgeList(w io.Writer, edges []Edge, weighted bool) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		var err error
		if weighted {
			_, err = fmt.Fprintf(bw, "%d\t%d\t%g\n", e.Src, e.Dst, e.Weight)
		} else {
			_, err = fmt.Fprintf(bw, "%d\t%d\n", e.Src, e.Dst)
		}
		if err != nil {
			return fmt.Errorf("graph: write edge list: %w", err)
		}
	}
	return bw.Flush()
}

// ToEdges flattens a CSR back into an edge list (mainly for tests and
// format conversion).
func (g *CSR) ToEdges() []Edge {
	edges := make([]Edge, 0, g.NumEdges)
	for v := int64(0); v < g.NumVertices; v++ {
		ws := g.EdgeWeights(VertexID(v))
		for i, d := range g.Neighbors(VertexID(v)) {
			e := Edge{Src: VertexID(v), Dst: d}
			if ws != nil {
				e.Weight = ws[i]
			}
			edges = append(edges, e)
		}
	}
	return edges
}
