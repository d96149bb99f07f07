package core

import (
	"testing"
)

// TestDigestsDeterministicAcrossConfigurations: for integer programs the
// per-superstep digests must be bit-identical regardless of worker
// counts and phase overlap — the cross-run equivalence check the feature
// exists for.
func TestDigestsDeterministicAcrossConfigurations(t *testing.T) {
	g := randomGraph(t, 51, 250, 1500).Symmetrize()
	digests := func(cfg Config) []uint64 {
		cfg.Digests = true
		eng, _ := setup(t, g, ccProg{}, cfg)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(res.Steps))
		for i, s := range res.Steps {
			out[i] = s.Digest
		}
		return out
	}
	base := digests(Config{Dispatchers: 1, Computers: 1})
	for _, cfg := range []Config{
		{Dispatchers: 3, Computers: 4},
		{Dispatchers: 8, Computers: 2},
		{SequentialPhases: true},
	} {
		got := digests(cfg)
		if len(got) != len(base) {
			t.Fatalf("superstep count differs: %d vs %d", len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("digest of superstep %d differs: %#x vs %#x (cfg %+v)", i, got[i], base[i], cfg)
			}
		}
	}
}

func TestDigestChangesWithState(t *testing.T) {
	g := randomGraph(t, 52, 100, 600).Symmetrize()
	eng, _ := setup(t, g, ccProg{}, Config{Digests: true})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) < 2 {
		t.Skip("converged too fast to compare digests")
	}
	if res.Steps[0].Digest == 0 {
		t.Fatal("digest not computed")
	}
	if res.Steps[0].Digest == res.Steps[len(res.Steps)-2].Digest && res.Steps[0].Updates != 0 {
		// Labels changed between superstep 0 and the last updating one,
		// so digests must differ (FNV collisions are astronomically
		// unlikely on this input).
		t.Fatal("digest did not change despite updates")
	}
}

func TestDigestsOffByDefault(t *testing.T) {
	g := randomGraph(t, 53, 50, 200)
	eng, _ := setup(t, g, ccProg{}, Config{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		if s.Digest != 0 {
			t.Fatal("digest computed without Config.Digests")
		}
	}
}
