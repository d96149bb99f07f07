package graph

import (
	"encoding/binary"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mmap"
)

// strideGraph is a random graph large enough for an index stride of 2,
// with a vertex count that leaves the last index block partial.
func strideGraph(t *testing.T, weighted bool) *CSR {
	t.Helper()
	const n = 2*8192 + 1
	g, err := FromEdges(randomEdges(rand.New(rand.NewSource(3)), n, 3*n), n, weighted)
	if err != nil {
		t.Fatal(err)
	}
	if s := indexStride(n); s != 2 {
		t.Fatalf("index stride %d, want 2", s)
	}
	return g
}

// TestOpenRejectsCorruptIndex damages a valid sidecar index three ways —
// a zero stride, an absurd entry count, two swapped entries — and a bad
// entry offset, on both encodings. Each must fail OpenFile with an error
// naming the index, never panic or open a file whose cursors would seek
// to the wrong record.
func TestOpenRejectsCorruptIndex(t *testing.T) {
	g := strideGraph(t, false)
	damage := map[string]func(b []byte){
		"stride 0": func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 0) },
		"count 2^61": func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:], 1<<61)
		},
		"swapped entries": func(b []byte) {
			e3, e4 := 24+24*3, 24+24*4
			tmp := append([]byte(nil), b[e3:e3+24]...)
			copy(b[e3:e3+24], b[e4:e4+24])
			copy(b[e4:e4+24], tmp)
		},
		"offset past region": func(b []byte) {
			last := len(b) - 24
			binary.LittleEndian.PutUint64(b[last+8:], 1<<40)
		},
	}
	for enc, write := range map[string]func(t *testing.T, g *CSR) string{"plain": writeTemp, "compact": writeCompactTemp} {
		path := write(t, g)
		orig, err := os.ReadFile(path + ".idx")
		if err != nil {
			t.Fatal(err)
		}
		for name, hurt := range damage {
			b := append([]byte(nil), orig...)
			hurt(b)
			if err := os.WriteFile(path+".idx", b, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := OpenFile(path, mmap.ModeAuto)
			if err == nil {
				f.Close()
				t.Fatalf("%s, %s: corrupt index accepted", enc, name)
			}
			if !strings.Contains(err.Error(), "index") {
				t.Fatalf("%s, %s: error %q does not name the index", enc, name, err)
			}
		}
	}
}

// TestCursorSkipTo checks the cursor's index-block seek on both
// encodings and on every interval of a partition: SkipTo lands on the
// start of the target's block (never past the target, never backward),
// and Next from there reads the same records as a full stream.
func TestCursorSkipTo(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := strideGraph(t, weighted)
		for enc, write := range map[string]func(t *testing.T, g *CSR) string{"plain": writeTemp, "compact": writeCompactTemp} {
			f, err := OpenFile(write(t, g), mmap.ModeAuto)
			if err != nil {
				t.Fatal(err)
			}
			want := readAll(t, f, f.WholeInterval())
			rng := rand.New(rand.NewSource(9))
			for _, iv := range f.Partition(3) {
				c := f.Cursor(iv)
				pos := iv.FirstVertex
				for pos < iv.EndVertex {
					target := pos + rng.Int63n(9)
					at := c.SkipTo(target)
					switch {
					case at < pos || (target < iv.EndVertex && at > target):
						t.Fatalf("%s: SkipTo(%d) from %d landed at %d", enc, target, pos, at)
					case at != pos && at%f.stride != 0:
						t.Fatalf("%s: SkipTo(%d) landed mid-block at %d", enc, target, at)
					}
					v, deg, edges, ok := c.Next()
					if !ok {
						if at != iv.EndVertex {
							t.Fatalf("%s: stream ended at %d, interval ends at %d (err %v)", enc, at, iv.EndVertex, c.Err())
						}
						break
					}
					dsts := make([]VertexID, deg)
					for i := range dsts {
						dsts[i], _ = DecodeEdge(edges, i, weighted)
					}
					if v != at || !reflect.DeepEqual(dsts, want[v]) {
						t.Fatalf("%s: after SkipTo(%d) read vertex %d %v, want vertex %d %v", enc, target, v, dsts, at, want[at])
					}
					pos = v + 1
				}
			}
			f.Close()
		}
	}
}
