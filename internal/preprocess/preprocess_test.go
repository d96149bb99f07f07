package preprocess

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/diskio"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mmap"
)

// readBack loads a converted CSR file into adjacency form.
func readBack(t *testing.T, path string, weighted bool) (map[int64][]graph.VertexID, map[int64][]float32, int64, int64) {
	t.Helper()
	f, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	adj := make(map[int64][]graph.VertexID)
	wts := make(map[int64][]float32)
	c := f.Cursor(f.WholeInterval())
	for {
		v, deg, raw, ok := c.Next()
		if !ok {
			break
		}
		for i := 0; i < int(deg); i++ {
			d, w := graph.DecodeEdge(raw, i, weighted)
			adj[v] = append(adj[v], d)
			wts[v] = append(wts[v], w)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return adj, wts, f.NumVertices, f.NumEdges
}

func TestEdgesToCSRSmall(t *testing.T) {
	edges := []graph.Edge{
		{Src: 3, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 3, Dst: 0},
	}
	out := filepath.Join(t.TempDir(), "g.gpsa")
	st, err := EdgesToCSR(edges, out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVertices != 4 || st.NumEdges != 4 {
		t.Fatalf("stats = %+v", st)
	}
	adj, _, nv, ne := readBack(t, out, false)
	if nv != 4 || ne != 4 {
		t.Fatalf("file dims (%d, %d)", nv, ne)
	}
	if !reflect.DeepEqual(adj[0], []graph.VertexID{2, 3}) {
		t.Fatalf("adj[0] = %v", adj[0])
	}
	if !reflect.DeepEqual(adj[3], []graph.VertexID{1, 0}) {
		t.Fatalf("adj[3] = %v", adj[3])
	}
}

func TestEdgeListTextConversion(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "edges.txt")
	content := "# a comment\n0\t2\n0 3\n\n% other comment\n2 1\n"
	if err := os.WriteFile(in, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "g.gpsa")
	st, err := EdgeListToCSR(in, out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVertices != 4 || st.NumEdges != 3 {
		t.Fatalf("stats = %+v", st)
	}
	adj, _, _, _ := readBack(t, out, false)
	if !reflect.DeepEqual(adj[0], []graph.VertexID{2, 3}) || !reflect.DeepEqual(adj[2], []graph.VertexID{1}) {
		t.Fatalf("adj = %v", adj)
	}
}

func TestEdgeListWeighted(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(in, []byte("0 1 2.5\n1 0 0.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "g.gpsa")
	if _, err := EdgeListToCSR(in, out, Options{Weighted: true}); err != nil {
		t.Fatal(err)
	}
	_, wts, _, _ := readBack(t, out, true)
	if wts[0][0] != 2.5 || wts[1][0] != 0.25 {
		t.Fatalf("weights = %v", wts)
	}
}

func TestEdgeListRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for i, bad := range []string{"x y\n", "1\n", "1 2 notaweight\n", "99999999999 1\n"} {
		in := filepath.Join(dir, "bad.txt")
		if err := os.WriteFile(in, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := EdgeListToCSR(in, filepath.Join(dir, "out.gpsa"), Options{}); err == nil {
			t.Errorf("case %d (%q): conversion succeeded", i, bad)
		}
	}
}

func TestEmptyInputYieldsValidFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(in, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "g.gpsa")
	st, err := EdgeListToCSR(in, out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumEdges != 0 {
		t.Fatalf("stats = %+v", st)
	}
	_, _, nv, ne := readBack(t, out, false)
	if nv != 1 || ne != 0 {
		t.Fatalf("file dims (%d, %d)", nv, ne)
	}
}

func TestForcedVertexCount(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.gpsa")
	st, err := EdgesToCSR([]graph.Edge{{Src: 0, Dst: 1}}, out, Options{NumVertices: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVertices != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := EdgesToCSR([]graph.Edge{{Src: 0, Dst: 9}}, out, Options{NumVertices: 5}); err == nil {
		t.Fatal("too-small forced vertex count accepted")
	}
}

func TestMultiRunExternalSort(t *testing.T) {
	// Tiny chunk size forces many sorted runs and a real k-way merge.
	edges, err := gen.RMAT(gen.RMATConfig{Vertices: 300, Edges: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "g.gpsa")
	st, err := EdgesToCSR(edges, out, Options{ChunkEdges: 128})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs < 30 {
		t.Fatalf("expected many runs, got %d", st.Runs)
	}
	want, err := graph.FromEdges(edges, st.NumVertices, false)
	if err != nil {
		t.Fatal(err)
	}
	adj, _, _, ne := readBack(t, out, false)
	if ne != int64(len(edges)) {
		t.Fatalf("edge count %d, want %d", ne, len(edges))
	}
	for v := int64(0); v < want.NumVertices; v++ {
		got, exp := adj[v], want.Neighbors(graph.VertexID(v))
		if len(got) != len(exp) || len(got) > 0 && !reflect.DeepEqual(got, exp) {
			t.Fatalf("vertex %d: %v, want %v", v, got, exp)
		}
	}
	// Temp runs must be cleaned up.
	entries, err := os.ReadDir(filepath.Dir(out))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) > 8 && e.Name()[:8] == "gpsa-run" {
			t.Fatalf("leftover run file %s", e.Name())
		}
	}
}

// Property: conversion through the external sort equals direct in-memory
// CSR construction, edge order included, for any random edge list and
// chunk size.
func TestConversionEquivalenceProperty(t *testing.T) {
	dir := t.TempDir()
	n := 0
	fn := func(seed int64, eRaw uint16, chunkRaw uint8) bool {
		n++
		rng := rand.New(rand.NewSource(seed))
		v := int64(40)
		edges := make([]graph.Edge, int(eRaw%600))
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VertexID(rng.Int63n(v)), Dst: graph.VertexID(rng.Int63n(v))}
		}
		out := filepath.Join(dir, "p.gpsa")
		_, err := EdgesToCSR(edges, out, Options{ChunkEdges: int(chunkRaw%64) + 1, NumVertices: v})
		if err != nil {
			t.Logf("convert: %v", err)
			return false
		}
		want, err := graph.FromEdges(edges, v, false)
		if err != nil {
			return false
		}
		f, err := graph.OpenFile(out, mmap.ModeAuto)
		if err != nil {
			return false
		}
		defer f.Close()
		c := f.Cursor(f.WholeInterval())
		for {
			vid, deg, raw, ok := c.Next()
			if !ok {
				break
			}
			got := make([]graph.VertexID, deg)
			for i := range got {
				got[i], _ = graph.DecodeEdge(raw, i, false)
			}
			exp := want.Neighbors(graph.VertexID(vid))
			if len(got) != len(exp) {
				return false
			}
			if len(got) > 0 && !reflect.DeepEqual(got, exp) {
				return false
			}
		}
		return c.Err() == nil
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactOutputMatchesPlain(t *testing.T) {
	edges, err := gen.RMAT(gen.RMATConfig{Vertices: 300, Edges: 4000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain, compact := filepath.Join(dir, "p.gpsa"), filepath.Join(dir, "c.gpsa")
	if _, err := EdgesToCSR(edges, plain, Options{ChunkEdges: 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := EdgesToCSR(edges, compact, Options{ChunkEdges: 256, Compact: true}); err != nil {
		t.Fatal(err)
	}
	pa, _, pv, pe := readBack(t, plain, false)
	ca, _, cv, ce := readBack(t, compact, false)
	if pv != cv || pe != ce {
		t.Fatalf("dims differ: (%d,%d) vs (%d,%d)", pv, pe, cv, ce)
	}
	for v := int64(0); v < pv; v++ {
		a := append([]graph.VertexID(nil), pa[v]...)
		b := append([]graph.VertexID(nil), ca[v]...)
		slices.Sort(a)
		slices.Sort(b)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: %d vs %d edges", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
	ps, _ := os.Stat(plain)
	cs, _ := os.Stat(compact)
	if cs.Size() >= ps.Size() {
		t.Fatalf("compact (%d) not smaller than plain (%d)", cs.Size(), ps.Size())
	}
}

// sameCSR fails unless the .gpsa, .idx and .sum files at got and want are
// byte-identical.
func sameCSR(t testing.TB, name, got, want string) {
	t.Helper()
	for _, suffix := range []string{"", ".idx", ".sum"} {
		a, err := os.ReadFile(got + suffix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(want + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: %s differs from graph.FromEdges written directly", name, filepath.Base(got)+suffix)
		}
	}
}

// writeReference writes graph.FromEdges(edges) at path with
// graph.WriteFile, or graph.WriteFileCompact when compact.
func writeReference(t testing.TB, path string, edges []graph.Edge, weighted, compact bool) {
	t.Helper()
	nv := int64(0)
	if len(edges) == 0 {
		nv = 1 // conversion writes an empty input as one vertex
	}
	g, err := graph.FromEdges(edges, nv, weighted)
	if err != nil {
		t.Fatal(err)
	}
	if compact {
		err = graph.WriteFileCompact(path, g)
	} else {
		err = graph.WriteFile(path, g)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, path string, write func(f *os.File) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(write(f), f.Close()); err != nil {
		t.Fatal(err)
	}
}

// writeAdjacency writes edges as an adjacency file whose lines are out of
// vertex order and split each vertex's list in two, and returns the edges
// in the order the file lists them.
func writeAdjacency(t *testing.T, path string, edges []graph.Edge) []graph.Edge {
	g, err := graph.FromEdges(edges, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	var listed []graph.Edge
	line := func(v int64, dsts []graph.VertexID) {
		if len(dsts) == 0 {
			return
		}
		fmt.Fprintf(&text, "%d %d", v, len(dsts))
		for _, d := range dsts {
			fmt.Fprintf(&text, " %d", d)
			listed = append(listed, graph.Edge{Src: graph.VertexID(v), Dst: d})
		}
		text.WriteString("\n")
	}
	for v := g.NumVertices - 1; v >= 0; v-- {
		nb := g.Neighbors(graph.VertexID(v))
		line(v, nb[:len(nb)/2])
	}
	for v := int64(0); v < g.NumVertices; v++ {
		nb := g.Neighbors(graph.VertexID(v))
		line(v, nb[len(nb)/2:])
	}
	writeFile(t, path, func(f *os.File) error { _, err := f.WriteString(text.String()); return err })
	return listed
}

// TestOutputMatchesWriteFile pins the conversion contract: every reader,
// at every chunk size, plain or compact, weighted or not, writes the
// bytes graph.WriteFile (or WriteFileCompact) writes for graph.FromEdges
// of the input edges — each vertex's edges in input order.
func TestOutputMatchesWriteFile(t *testing.T) {
	edges, err := gen.RMAT(gen.RMATConfig{Vertices: 120, Edges: 200, Seed: 21, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	adjPath := filepath.Join(dir, "adj.txt")
	adjEdges := writeAdjacency(t, adjPath, edges)
	e := len(edges)
	type reader struct {
		name  string
		edges []graph.Edge
		conv  func(out string, opt Options) (*Stats, error)
	}
	for _, weighted := range []bool{false, true} {
		text, bin := filepath.Join(dir, "edges.txt"), filepath.Join(dir, "edges.bin")
		writeFile(t, text, func(f *os.File) error { return graph.WriteEdgeList(f, edges, weighted) })
		writeFile(t, bin, func(f *os.File) error { return WriteBinaryEdgeList(f, edges, weighted) })
		readers := []reader{
			{"EdgesToCSR", edges, func(out string, opt Options) (*Stats, error) { return EdgesToCSR(edges, out, opt) }},
			{"text", edges, func(out string, opt Options) (*Stats, error) { return EdgeListToCSR(text, out, opt) }},
			{"binary", edges, func(out string, opt Options) (*Stats, error) { return BinaryEdgeListToCSR(bin, out, opt) }},
		}
		if !weighted {
			readers = append(readers, reader{"adjacency", adjEdges, func(out string, opt Options) (*Stats, error) {
				return AdjacencyToCSR(adjPath, out, opt)
			}})
		}
		for _, compact := range []bool{false, true} {
			for _, rd := range readers {
				ref := filepath.Join(dir, "ref.gpsa")
				writeReference(t, ref, rd.edges, weighted, compact)
				for _, chunk := range []int{1, 7, 128, e - 1, e, e + 1, 0} {
					name := fmt.Sprintf("%s weighted=%v compact=%v chunk=%d", rd.name, weighted, compact, chunk)
					out := filepath.Join(dir, "out.gpsa")
					st, err := rd.conv(out, Options{ChunkEdges: chunk, Weighted: weighted, Compact: compact})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					per := chunk
					if per == 0 {
						per = defaultChunkEdges
					}
					if want := (e + per - 1) / per; st.Runs != want {
						t.Errorf("%s: %d runs, want %d", name, st.Runs, want)
					}
					sameCSR(t, name, out, ref)
				}
			}
		}
	}
}

// An input of at most ChunkEdges edges is placed in memory and creates no
// run file: with TempDir missing, ChunkEdges edges convert, and one edge
// more fails with a typed create error.
func TestNoSpillAtChunkBound(t *testing.T) {
	edges, err := gen.RMAT(gen.RMATConfig{Vertices: 100, Edges: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "g.gpsa")
	opt := Options{ChunkEdges: len(edges), TempDir: filepath.Join(dir, "missing")}
	st, err := EdgesToCSR(edges, out, opt)
	if err != nil {
		t.Fatalf("%d edges at ChunkEdges %d: %v", len(edges), opt.ChunkEdges, err)
	}
	if st.Runs != 1 {
		t.Fatalf("%d runs, want the one in-memory run", st.Runs)
	}
	_, err = EdgesToCSR(append(edges, graph.Edge{Src: 1, Dst: 2}), out, opt)
	if !errors.Is(err, diskio.ErrIOFailure) || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ChunkEdges+1 edges with TempDir missing: err = %v, want a typed create failure", err)
	}
}

// Ids at or above the limit — graph.MaxVertices, the format's sentinel,
// or a forced NumVertices — fail as they are read, naming where. Before
// the check, the first line grew the degree table toward 2^32 entries and
// the adjacency line preallocated 16 GiB from its declared count.
func TestRejectsOutOfRangeIDs(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.gpsa")
	write := func(content string) string {
		path := filepath.Join(dir, "in")
		writeFile(t, path, func(f *os.File) error { _, err := f.WriteString(content); return err })
		return path
	}
	text := func(content string, opt Options) func() (*Stats, error) {
		return func() (*Stats, error) { return EdgeListToCSR(write(content), out, opt) }
	}
	adjacency := func(content string) func() (*Stats, error) {
		return func() (*Stats, error) { return AdjacencyToCSR(write(content), out, Options{}) }
	}
	slice := func(edges []graph.Edge, opt Options) func() (*Stats, error) {
		return func() (*Stats, error) { return EdgesToCSR(edges, out, opt) }
	}
	binaryIn := func() (*Stats, error) {
		var buf bytes.Buffer
		if err := WriteBinaryEdgeList(&buf, []graph.Edge{{Src: graph.Sentinel, Dst: 0}}, false); err != nil {
			return nil, err
		}
		return BinaryEdgeListToCSR(write(buf.String()), out, Options{})
	}
	for _, c := range []struct {
		name string
		conv func() (*Stats, error)
		want string
	}{
		{"text source", text("0 1\n4294967295 0\n", Options{}), "line 2: source id 4294967295"},
		{"text destination", text("0 4294967295\n", Options{}), "line 1: destination id 4294967295"},
		{"text forced count", text("# c\n0 1\n1 5\n", Options{NumVertices: 5}), "line 3: destination id 5 is not below NumVertices 5"},
		{"adjacency declared count", adjacency("0 4294967295\n"), "adjacency line 1"},
		{"adjacency destination", adjacency("0 1 4294967295\n"), "adjacency line 1: destination id 4294967295"},
		{"binary", binaryIn, "edge 1: source id 4294967295"},
		{"EdgesToCSR", slice([]graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: graph.Sentinel}}, Options{}), "edge 2: destination id 4294967295"},
		{"EdgesToCSR forced count", slice([]graph.Edge{{Src: 9, Dst: 0}}, Options{NumVertices: 5}), "edge 1: source id 9"},
		{"NumVertices too large", slice(nil, Options{NumVertices: graph.MaxVertices + 1}), "exceeds the maximum"},
	} {
		_, err := c.conv()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func readAllText(input string) ([]graph.Edge, error) {
	r := newTextEdgeReader(strings.NewReader(input))
	var edges []graph.Edge
	for {
		e, err := r.ReadEdge()
		if err == io.EOF {
			return edges, nil
		}
		if err != nil {
			return nil, err
		}
		edges = append(edges, e)
	}
}

func sameEdges(a, b []graph.Edge) bool {
	return slices.EqualFunc(a, b, func(x, y graph.Edge) bool {
		return x.Src == y.Src && x.Dst == y.Dst && math.Float32bits(x.Weight) == math.Float32bits(y.Weight)
	})
}

// The text reader and graph.ParseEdgeList make the same accept/reject
// decision on each line and, on accepting, yield the same edge, weight
// bits included.
func TestTextReaderMatchesParseEdgeList(t *testing.T) {
	for _, line := range []string{
		"0 1", "0 1 2.5", "0\t1\t0.25\r", "  7 8  ", "0 1 -3", "0 1 2 junk", "0 1\r2",
		"0 1 nan", "0 1 0x1p-2", "4294967295 0",
		"0 1 2.5x", "0 1 1e40", "0 1.5", "0 1x", "0 -1", "4294967296 0", "1", "a b",
	} {
		got, gotErr := readAllText(line + "\n")
		want, wantErr := graph.ParseEdgeList(strings.NewReader(line + "\n"))
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Errorf("%q: reader err = %v, ParseEdgeList err = %v", line, gotErr, wantErr)
		case !sameEdges(got, want):
			t.Errorf("%q: reader %v, ParseEdgeList %v", line, got, want)
		}
	}
}
