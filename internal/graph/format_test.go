package graph

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mmap"
)

func writeTemp(t *testing.T, g *CSR) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gpsa")
	if err := WriteFile(path, g); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func readAll(t *testing.T, f *File, iv Interval) map[int64][]VertexID {
	t.Helper()
	out := make(map[int64][]VertexID)
	c := f.Cursor(iv)
	for {
		v, deg, edges, ok := c.Next()
		if !ok {
			break
		}
		dsts := make([]VertexID, deg)
		for i := range dsts {
			d, _ := DecodeEdge(edges, i, f.Weighted())
			dsts[i] = d
		}
		out[v] = dsts
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	return out
}

func TestFileRoundTrip(t *testing.T) {
	g := paperExample(t)
	path := writeTemp(t, g)

	f, err := OpenFile(path, mmap.ModeAuto)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if f.NumVertices != 4 || f.NumEdges != 6 || f.Weighted() {
		t.Fatalf("header = (%d, %d, %v)", f.NumVertices, f.NumEdges, f.Weighted())
	}
	got := readAll(t, f, f.WholeInterval())
	for v := int64(0); v < 4; v++ {
		want := g.Neighbors(VertexID(v))
		if len(want) == 0 && len(got[v]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got[v], want) {
			t.Fatalf("vertex %d: %v, want %v", v, got[v], want)
		}
	}
}

func TestFileWeightedRoundTrip(t *testing.T) {
	g, err := FromEdges([]Edge{
		{Src: 0, Dst: 1, Weight: 0.5}, {Src: 0, Dst: 2, Weight: 1.25}, {Src: 2, Dst: 0, Weight: -3},
	}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, g)
	f, err := OpenFile(path, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Weighted() {
		t.Fatal("weighted flag lost")
	}
	c := f.Cursor(f.WholeInterval())
	v, deg, edges, ok := c.Next()
	if !ok || v != 0 || deg != 2 {
		t.Fatalf("first record = (%d, %d, %v)", v, deg, ok)
	}
	d0, w0 := DecodeEdge(edges, 0, true)
	d1, w1 := DecodeEdge(edges, 1, true)
	if d0 != 1 || w0 != 0.5 || d1 != 2 || w1 != 1.25 {
		t.Fatalf("edges = (%d,%g) (%d,%g)", d0, w0, d1, w1)
	}
}

// TestFileCSRRoundTrip decodes plain, compact and weighted files back
// into the graph that was written. Neighbors are in ascending order, the
// order the compact writer stores them in.
func TestFileCSRRoundTrip(t *testing.T) {
	weighted, err := FromEdges([]Edge{
		{Src: 0, Dst: 1, Weight: 0.5}, {Src: 0, Dst: 2, Weight: 1.25}, {Src: 2, Dst: 0, Weight: -3}, {Src: 3, Dst: 3, Weight: 7},
	}, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		g     *CSR
		write func(string, *CSR) error
	}{
		{"plain", paperExample(t), WriteFile},
		{"compact", paperExample(t), WriteFileCompact},
		{"weighted", weighted, WriteFile},
		{"compact-weighted", weighted, WriteFileCompact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.gpsa")
			if err := tc.write(path, tc.g); err != nil {
				t.Fatal(err)
			}
			f, err := OpenFile(path, mmap.ModeAuto)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, err := f.CSR()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.g) {
				t.Fatalf("decoded %+v, wrote %+v", got, tc.g)
			}
		})
	}
}

func TestFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.gpsa")
	if err := os.WriteFile(path, []byte("this is not a gpsa file at all........."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, mmap.ModeAuto); err == nil {
		t.Fatal("garbage file opened successfully")
	}
}

func TestFileIndexRebuild(t *testing.T) {
	g := paperExample(t)
	path := writeTemp(t, g)
	if err := os.Remove(path + ".idx"); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path, mmap.ModeAuto)
	if err != nil {
		t.Fatalf("OpenFile without index: %v", err)
	}
	defer f.Close()
	got := readAll(t, f, f.WholeInterval())
	if !reflect.DeepEqual(got[0], []VertexID{2, 3}) {
		t.Fatalf("vertex 0 after rebuild: %v", got[0])
	}
}

func TestWriterEnforcesDeclaredCounts(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(filepath.Join(dir, "a.gpsa"), 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendVertex([]VertexID{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err == nil {
		t.Fatal("Finish with missing vertices succeeded")
	}

	w, err = NewWriter(filepath.Join(dir, "b.gpsa"), 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendVertex([]VertexID{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err == nil {
		t.Fatal("Finish with missing edges succeeded")
	}

	w, err = NewWriter(filepath.Join(dir, "c.gpsa"), 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendVertex([]VertexID{5}, nil); err == nil {
		t.Fatal("out-of-range destination accepted")
	}

	w, err = NewWriter(filepath.Join(dir, "d.gpsa"), 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendVertex([]VertexID{0}, nil); err == nil {
		t.Fatal("weighted file accepted nil weights")
	}
}

func TestPartitionCoversGraphExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const v = 1000
	g, err := FromEdges(randomEdges(rng, v, 8000), v, false)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, g)
	f, err := OpenFile(path, mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for _, n := range []int{1, 2, 3, 7, 16} {
		ivs := f.Partition(n)
		if len(ivs) == 0 || len(ivs) > n {
			t.Fatalf("Partition(%d) returned %d intervals", n, len(ivs))
		}
		var vertices, edges int64
		prevEnd := int64(0)
		for _, iv := range ivs {
			if iv.FirstVertex != prevEnd {
				t.Fatalf("Partition(%d): gap before vertex %d", n, iv.FirstVertex)
			}
			prevEnd = iv.EndVertex
			vertices += iv.EndVertex - iv.FirstVertex
			edges += iv.Edges
		}
		if prevEnd != f.NumVertices || vertices != f.NumVertices || edges != f.NumEdges {
			t.Fatalf("Partition(%d) covers %d vertices / %d edges, want %d / %d",
				n, vertices, edges, f.NumVertices, f.NumEdges)
		}
		// Each interval's cursor must see exactly its vertices.
		for _, iv := range ivs {
			seen := readAll(t, f, iv)
			if int64(len(seen)) != iv.EndVertex-iv.FirstVertex {
				t.Fatalf("interval [%d,%d): cursor saw %d vertices", iv.FirstVertex, iv.EndVertex, len(seen))
			}
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	// A skewed graph: vertex 0 has 5000 edges, the rest few. Partitioning
	// by edges should still bound each interval (beyond the unavoidable
	// single-vertex hot spot) near the average.
	edges := make([]Edge, 0, 6000)
	for i := 0; i < 5000; i++ {
		edges = append(edges, Edge{Src: 0, Dst: VertexID(1 + i%999)})
	}
	for i := 0; i < 1000; i++ {
		edges = append(edges, Edge{Src: VertexID(i), Dst: 0})
	}
	g, err := FromEdges(edges, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(writeTemp(t, g), mmap.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ivs := f.Partition(4)
	var total int64
	for _, iv := range ivs {
		total += iv.Edges
	}
	if total != f.NumEdges {
		t.Fatalf("edges sum %d, want %d", total, f.NumEdges)
	}
}

// Property: for any random graph, writing then reading through any
// partitioning yields exactly the original adjacency.
func TestFileRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	n := 0
	fn := func(seed int64, vRaw uint8, eRaw uint16, parts uint8) bool {
		n++
		rng := rand.New(rand.NewSource(seed))
		v := int64(vRaw%60) + 1
		g, err := FromEdges(randomEdges(rng, v, int(eRaw%400)), v, false)
		if err != nil {
			return false
		}
		path := filepath.Join(dir, "p"+string(rune('a'+n%26))+".gpsa")
		if err := WriteFile(path, g); err != nil {
			return false
		}
		f, err := OpenFile(path, mmap.ModeAuto)
		if err != nil {
			return false
		}
		defer f.Close()
		got := make(map[int64][]VertexID)
		for _, iv := range f.Partition(int(parts%5) + 1) {
			c := f.Cursor(iv)
			for {
				vid, deg, raw, ok := c.Next()
				if !ok {
					break
				}
				dsts := make([]VertexID, deg)
				for i := range dsts {
					dsts[i], _ = DecodeEdge(raw, i, false)
				}
				got[vid] = dsts
			}
			if c.Err() != nil {
				return false
			}
		}
		for vid := int64(0); vid < v; vid++ {
			want := g.Neighbors(VertexID(vid))
			if len(want) == 0 {
				if len(got[vid]) != 0 {
					return false
				}
				continue
			}
			if !reflect.DeepEqual(got[vid], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
