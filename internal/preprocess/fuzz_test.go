package preprocess

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// FuzzTextEdgeReader checks the text parser never panics and that any
// input it accepts parses to the same edges under graph.ParseEdgeList.
func FuzzTextEdgeReader(f *testing.F) {
	f.Add("0 1\n2 3\n")
	f.Add("# comment\n\n5\t7\t0.5\n")
	f.Add("% note\n 1 2 \n")
	f.Add("a b\n")
	f.Add("4294967295 0\n")
	f.Add("1 2 3 4 5\n")
	f.Add("0 1 2.5x\n")
	f.Add("0 1 1e40\n")
	f.Add("0 1.5\n")
	f.Add("0 1\r2\n")
	f.Fuzz(func(t *testing.T, input string) {
		got, err := readAllText(input)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		want, err := graph.ParseEdgeList(strings.NewReader(input))
		if err != nil {
			t.Fatalf("reader accepted %q, ParseEdgeList rejects it: %v", input, err)
		}
		if !sameEdges(got, want) {
			t.Fatalf("%q: reader %v, ParseEdgeList %v", input, got, want)
		}
	})
}

// FuzzAdjacencyReader does the same for the adjacency parser.
func FuzzAdjacencyReader(f *testing.F) {
	f.Add("0 2 1 2\n")
	f.Add("0 0\n1 1 0\n")
	f.Add("# c\n3 1 0 trailing\n")
	f.Add("0 65535 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		r := newAdjacencyReader(strings.NewReader(input))
		for i := 0; i < 10000; i++ {
			if _, err := r.ReadEdge(); err != nil {
				return
			}
		}
	})
}

// FuzzConvertRoundTrip feeds arbitrary small edge lists through the full
// external-sort pipeline at arbitrary chunk sizes and requires the bytes
// graph.WriteFile writes for graph.FromEdges of the same edges.
func FuzzConvertRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, chunkRaw uint8) {
		if len(raw) > 4096 {
			return
		}
		edges := make([]graph.Edge, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			src := uint32(raw[i]) | uint32(raw[i+1])<<8
			dst := uint32(raw[i+4]) | uint32(raw[i+5])<<8
			edges = append(edges, graph.Edge{Src: src % 128, Dst: dst % 128})
		}
		dir := t.TempDir()
		out, ref := dir+"/g.gpsa", dir+"/ref.gpsa"
		st, err := EdgesToCSR(edges, out, Options{ChunkEdges: int(chunkRaw%32) + 1})
		if err != nil {
			t.Fatalf("conversion of valid edges failed: %v", err)
		}
		if st.NumEdges != int64(len(edges)) {
			t.Fatalf("edge count %d, want %d", st.NumEdges, len(edges))
		}
		writeReference(t, ref, edges, false, false)
		sameCSR(t, "EdgesToCSR", out, ref)
	})
}
