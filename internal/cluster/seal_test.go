package cluster

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/vertexfile"
)

// TestSealedAt pins the one way a dead incarnation's value file is
// brought back to a barrier — a same-id replacement boots from it and a
// salvage extracts from it, and the coordinator no longer checks the
// epoch window itself. Sealing at step 2 must recover a file torn
// mid-commit or killed mid-step, rewind one committed a step ahead, leave one already at
// step byte for byte untouched, and refuse one two steps ahead with an
// error naming both epochs. In every accepted case the file ends clean
// at step 2 holding exactly the values sealed at that barrier.
func TestSealedAt(t *testing.T) {
	const step, nv = 2, 200
	init := func(v int64) (uint64, bool) { return uint64(v), v%3 == 0 }
	// advance runs superstep s on vf: every vertex v gains s+1, then it
	// commits — or, per crash, tears the commit's header flush ("torn")
	// or stops before committing ("killed": the header still records the
	// superstep in progress).
	advance := func(t *testing.T, vf *vertexfile.File, s int64, crash string) {
		t.Helper()
		if err := vf.Begin(s, true); err != nil {
			t.Fatal(err)
		}
		u := vf.Updater(s)
		add := func(v int64, cur, msg uint64, first bool) (uint64, bool, bool) { return cur + msg, true, false }
		for v := int64(0); v < nv; v++ {
			u.Apply(v, uint64(s+1), add)
		}
		u.Publish()
		switch crash {
		case "killed":
			return
		case "torn":
			fault.Activate(fault.NewPlan(0, fault.Injection{Site: fault.SiteCommitTorn}))
			defer fault.Deactivate()
			if err := vf.Commit(s, true, true); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("torn commit returned %v", err)
			}
			return
		}
		if err := vf.Commit(s, true, true); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		steps int64  // supersteps committed
		crash string // one more superstep, crashed this way
		want  string
	}{
		{name: "torn mid-commit", steps: step, crash: "torn"},
		{name: "killed mid-step", steps: step, crash: "killed"},
		{name: "one epoch ahead", steps: step + 1},
		{name: "at step", steps: step},
		{name: "two epochs ahead", steps: step + 2, want: "epoch 4, want 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "node.gpvf")
			vf, err := vertexfile.Create(path, nv, init)
			if err != nil {
				t.Fatal(err)
			}
			var sealed []uint64
			for s := int64(0); s < tc.steps; s++ {
				if s == step {
					sealed = vf.Values()
				}
				advance(t, vf, s, "")
			}
			if sealed == nil {
				sealed = vf.Values()
			}
			if tc.crash != "" {
				advance(t, vf, tc.steps, tc.crash)
			}
			if err := vf.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			got, err := sealedAt(path, step)
			if tc.want != "" {
				var ee *epochError
				if !errors.As(err, &ee) || ee.epoch != step+2 || ee.want != step || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("sealedAt = %v, want an *epochError naming %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Epoch() != step || got.InProgress() {
				t.Fatalf("sealed at epoch %d (in progress %v), want clean at %d", got.Epoch(), got.InProgress(), step)
			}
			vals := got.Values()
			if err := got.Close(); err != nil {
				t.Fatal(err)
			}
			for v := range sealed {
				if vals[v] != sealed[v] {
					t.Fatalf("vertex %d = %d, want %d as sealed at epoch %d", v, vals[v], sealed[v], step)
				}
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "at step" && !bytes.Equal(before, after) {
				t.Fatal("a file already sealed at step was rewritten")
			}
			if state, err := vertexfile.VerifyState(path); err != nil || state != "sealed" {
				t.Fatalf("state %q, %v after sealing; want sealed", state, err)
			}
		})
	}
}
