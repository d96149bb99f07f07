package preprocess

import (
	"testing"

	"repro/internal/graph"
)

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
		st, err := convertEdges(t, edges, out, Options{ChunkEdges: int(chunkRaw%32) + 1})
		if err != nil {
			t.Fatalf("conversion of valid edges failed: %v", err)
		}
		if st.NumEdges != int64(len(edges)) {
			t.Fatalf("edge count %d, want %d", st.NumEdges, len(edges))
		}
		writeReference(t, ref, edges, false, false)
		sameCSR(t, "EdgeListToCSR", out, ref)
	})
}
