// Package harness is the plumbing the torture harnesses share
// (internal/crashtest, internal/servetest, internal/disktest,
// internal/chaostest): building the real binaries from the module root,
// writing a torture graph and its symmetrized twin, snapshotting a
// sealed value file for the bit-identity comparison every harness ends
// in, and driving a gpsa-serve subprocess over HTTP. Scenarios, seeds
// and assertions stay in the harness packages.
package harness

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vertexfile"
)

// moduleRoot walks up from the working directory to the directory
// holding go.mod, which is where `go build ./cmd/...` must run.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("harness: go.mod not found above working directory")
		}
		dir = parent
	}
}

// Build compiles ./cmd/<name> into dir and returns the binary path.
func Build(dir, name string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("harness: building %s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// WriteGraphPair writes g as dir/<base>.gpsa and its symmetrized twin
// (the CC input) as dir/<base>-sym.gpsa, creating dir if needed and
// returning the two file names relative to dir.
func WriteGraphPair(dir, base string, g *graph.CSR) (directed, symmetric string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	directed, symmetric = base+".gpsa", base+"-sym.gpsa"
	if err := graph.WriteFile(filepath.Join(dir, directed), g); err != nil {
		return "", "", err
	}
	if err := graph.WriteFile(filepath.Join(dir, symmetric), g.Symmetrize()); err != nil {
		return "", "", err
	}
	return directed, symmetric, nil
}

// WriteTortureGraphs generates the kill- and serve-torture inputs under
// dir: a random directed graph for PageRank/BFS and its symmetrized
// twin for CC, returned as file names relative to dir. Fixed seeds keep
// every run of the harnesses on the same graphs.
func WriteTortureGraphs(dir string) (directed, symmetric string, err error) {
	edges, err := gen.ErdosRenyi(300, 1500, 42, false)
	if err != nil {
		return "", "", err
	}
	g, err := graph.FromEdges(edges, 300, false)
	if err != nil {
		return "", "", err
	}
	return WriteGraphPair(dir, "torture", g)
}

// FileState is the durable outcome of a run: every vertex payload plus
// the sealed progress counters, the exact data bit-identical resume and
// recovery are judged on.
type FileState struct {
	Values    []uint64
	Epoch     int64
	Converged bool
}

// ReadState opens a value file and snapshots its payloads and header.
// The file must be cleanly sealed — reading an in-progress file would
// compare half-finished state.
func ReadState(path string) (FileState, error) {
	vf, err := vertexfile.Open(path)
	if err != nil {
		return FileState{}, err
	}
	defer vf.Close()
	if vf.InProgress() {
		return FileState{}, fmt.Errorf("harness: %s not cleanly sealed", path)
	}
	return FileState{Values: vf.Values(), Epoch: vf.Epoch(), Converged: vf.Converged()}, nil
}

// Diff compares s (got) against o (want) and returns "" when the two
// states are bit-identical. Otherwise it names every header mismatch,
// how many vertices differ, and the first three as (vertex, got, want),
// so a torture failure says where the runs diverged, not just that they
// did.
func (s FileState) Diff(o FileState) string {
	var parts []string
	if s.Epoch != o.Epoch {
		parts = append(parts, fmt.Sprintf("epoch %d, want %d", s.Epoch, o.Epoch))
	}
	if s.Converged != o.Converged {
		parts = append(parts, fmt.Sprintf("converged %v, want %v", s.Converged, o.Converged))
	}
	if len(s.Values) != len(o.Values) {
		parts = append(parts, fmt.Sprintf("%d vertices, want %d", len(s.Values), len(o.Values)))
	}
	var differ int
	var first []string
	for v := range min(len(s.Values), len(o.Values)) {
		if s.Values[v] == o.Values[v] {
			continue
		}
		if differ++; differ <= 3 {
			first = append(first, fmt.Sprintf("(%d, %#x, %#x)", v, s.Values[v], o.Values[v]))
		}
	}
	if differ > 0 {
		parts = append(parts, fmt.Sprintf("%d vertices differ, first (vertex, got, want): %s", differ, strings.Join(first, " ")))
	}
	return strings.Join(parts, "; ")
}
