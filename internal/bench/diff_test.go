package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func diffReport(rev string, cells ...HotPathCell) *HotPathReport {
	return &HotPathReport{Rev: rev, Cells: cells}
}

func cell(algo, mode string, msgsPerSec, allocPerMsg float64) HotPathCell {
	return HotPathCell{
		Algo: algo, Mode: mode,
		Seconds: 1, Supersteps: 5, Messages: 1000,
		MsgsPerSec: msgsPerSec, AllocPerMsg: allocPerMsg,
	}
}

func TestDiffHotPathGates(t *testing.T) {
	oldRep := diffReport("old",
		cell("pagerank", "dense", 1e6, 0.01),
		cell("deltapagerank", "dense", 2e5, 2.0),
		cell("cc", "dense", 5e5, 0.05),
		cell("bfs", "auto", 3e5, 0.02), // a mode only old artifacts carry
	)
	newRep := diffReport("new",
		cell("pagerank", "dense", 0.95e6, 0.05),    // -5%, +0.04B: within both gates
		cell("deltapagerank", "dense", 1.5e5, 2.0), // -25%: throughput regression
		cell("cc", "dense", 5.2e5, 0.40),           // +0.35B: alloc regression
		cell("sssp", "dense", 1e5, 0.01),           // only in new: skipped
	)
	diffs := DiffHotPath(oldRep, newRep)
	if len(diffs) != 3 {
		t.Fatalf("got %d diffs, want 3 (bfs/auto and sssp/dense are one-sided)", len(diffs))
	}
	got := map[string]BenchDiff{}
	for _, d := range diffs {
		got[d.Algo+"/"+d.Mode] = d
	}
	if d := got["pagerank/dense"]; d.Regression {
		t.Fatalf("pagerank/dense flagged within tolerance: %q", d.Reason)
	}
	if d := got["deltapagerank/dense"]; !d.Regression || !strings.Contains(d.Reason, "throughput") {
		t.Fatalf("deltapagerank/dense throughput drop not flagged: %+v", d)
	}
	if d := got["cc/dense"]; !d.Regression || !strings.Contains(d.Reason, "alloc") {
		t.Fatalf("cc/dense alloc rise not flagged: %+v", d)
	}
	if _, ok := got["bfs/auto"]; ok {
		t.Fatal("bfs/auto present in old only must be skipped, not diffed")
	}

	out := FormatBenchDiff(oldRep, newRep, diffs)
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "baseline old vs new") {
		t.Fatalf("formatted diff missing verdicts or header:\n%s", out)
	}
}

func TestDiffHotPathSelfIsClean(t *testing.T) {
	rep := diffReport("same",
		cell("pagerank", "dense", 1e6, 0.01),
		cell("cc", "dense", 4e5, 0.02),
	)
	for _, d := range DiffHotPath(rep, rep) {
		if d.Regression {
			t.Fatalf("self-diff flagged %s/%s: %q", d.Algo, d.Mode, d.Reason)
		}
	}
}

func TestLoadHotPathReportRoundTrip(t *testing.T) {
	rep := diffReport("rt", cell("bfs", "dense", 1e5, 0.1))
	path := filepath.Join(t.TempDir(), "BENCH_rt.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadHotPathReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rev != "rt" || len(back.Cells) != 1 || back.Cells[0].Algo != "bfs" {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	if _, err := LoadHotPathReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}
