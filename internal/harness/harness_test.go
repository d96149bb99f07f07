package harness

import (
	"strings"
	"testing"
)

func TestFileStateDiff(t *testing.T) {
	want := FileState{Values: []uint64{1, 2, 3, 4, 5}, Epoch: 7, Converged: true}
	if d := want.Diff(want); d != "" {
		t.Fatalf("identical states: Diff = %q, want empty", d)
	}

	got := FileState{Values: []uint64{1, 9, 3, 8, 7}, Epoch: 6, Converged: false}
	d := got.Diff(want)
	for _, part := range []string{
		"epoch 6, want 7",
		"converged false, want true",
		"3 vertices differ",
		"(1, 0x9, 0x2) (3, 0x8, 0x4) (4, 0x7, 0x5)",
	} {
		if !strings.Contains(d, part) {
			t.Errorf("Diff = %q, missing %q", d, part)
		}
	}

	// Only the first three differing vertices are listed.
	many := FileState{Values: []uint64{0, 0, 0, 0, 0}, Epoch: 7, Converged: true}
	if d := many.Diff(want); !strings.Contains(d, "5 vertices differ") || strings.Contains(d, "(3,") {
		t.Errorf("Diff = %q, want a count of 5 and the first three vertices only", d)
	}

	short := FileState{Values: []uint64{1, 2}, Epoch: 7, Converged: true}
	if d := short.Diff(want); !strings.Contains(d, "2 vertices, want 5") {
		t.Errorf("Diff = %q, want the vertex-count mismatch", d)
	}
}
