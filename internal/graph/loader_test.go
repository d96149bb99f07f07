package graph

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sameEdges compares edge lists with weights bit for bit.
func sameEdges(a, b []Edge) bool {
	return slices.EqualFunc(a, b, func(x, y Edge) bool {
		return x.Src == y.Src && x.Dst == y.Dst && math.Float32bits(x.Weight) == math.Float32bits(y.Weight)
	})
}

func TestParseEdgeList(t *testing.T) {
	in := `# comment line
% another comment

0	2
0 3
1 0 2.5
`
	edges, err := ParseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 0, Weight: 2.5}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}

	// One line each: the edge it parses to, weight bits included. Fields
	// split on space, tab and CR; a weight is the third field, later
	// fields are ignored.
	for _, c := range []struct {
		line string
		want Edge
	}{
		{"0 1", Edge{Src: 0, Dst: 1}},
		{"0 1 2.5", Edge{Src: 0, Dst: 1, Weight: 2.5}},
		{"0\t1\t0.25\r", Edge{Src: 0, Dst: 1, Weight: 0.25}},
		{"  7 8  ", Edge{Src: 7, Dst: 8}},
		{"0 1 -3", Edge{Src: 0, Dst: 1, Weight: -3}},
		{"0 1 2 junk", Edge{Src: 0, Dst: 1, Weight: 2}},
		{"0 1\r2", Edge{Src: 0, Dst: 1, Weight: 2}},
		{"0 1 nan", Edge{Src: 0, Dst: 1, Weight: float32(math.NaN())}},
		{"0 1 0x1p-2", Edge{Src: 0, Dst: 1, Weight: 0.25}},
		{"4294967295 0", Edge{Src: Sentinel, Dst: 0}},
	} {
		got, err := ParseEdgeList(strings.NewReader(c.line + "\n"))
		if err != nil {
			t.Errorf("%q: %v", c.line, err)
		} else if !sameEdges(got, []Edge{c.want}) {
			t.Errorf("%q: parsed %v, want %v", c.line, got, c.want)
		}
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := []string{
		"justonefield",
		"a b",
		"1 b",
		"1 2 notaweight",
		"-1 2",
		"0 1 2.5x", // an integer or a weight must end at a separator
		"0 1 1e40", // weight overflows float32
		"0 1.5",
		"0 1x",
		"0 -1",
		"4294967296 0", // id overflows 32 bits
		"1",
		"0\v1",     // only space, tab and CR separate fields
		"0\u00a01", // no Unicode spaces either
	}
	for _, in := range cases {
		_, err := ParseEdgeList(strings.NewReader(in + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 1:") {
			t.Errorf("ParseEdgeList(%q): err = %v, want one naming line 1", in, err)
		}
	}
}

// FuzzParseEdgeList checks the one text parser never panics and that
// whatever it accepts is written back by weighted WriteEdgeList as text
// that parses to the same edges, weight bits included.
func FuzzParseEdgeList(f *testing.F) {
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
		edges, err := ParseEdgeList(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, edges, true); err != nil {
			t.Fatal(err)
		}
		back, err := ParseEdgeList(&buf)
		if err != nil {
			t.Fatalf("%q: written back as %q, which does not parse: %v", input, buf.String(), err)
		}
		if !sameEdges(back, edges) {
			t.Fatalf("%q: parsed %v, written and parsed again %v", input, edges, back)
		}
	})
}

func TestWriteEdgeListRoundTrip(t *testing.T) {
	edges := []Edge{{Src: 3, Dst: 1, Weight: 0.5}, {Src: 0, Dst: 2, Weight: 4}}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, edges, true); err != nil {
		t.Fatal(err)
	}
	back, err := ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, edges) {
		t.Fatalf("round trip = %v, want %v", back, edges)
	}

	buf.Reset()
	if err := WriteEdgeList(&buf, edges, false); err != nil {
		t.Fatal(err)
	}
	back, err = ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Weight != 0 {
		t.Fatal("unweighted output retained weights")
	}
}
