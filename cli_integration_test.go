package gpsa_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds every command-line tool and drives the full
// workflow: generate -> preprocess -> run -> cluster -> inspect ->
// compare.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := t.TempDir()
	work := t.TempDir()
	for _, tool := range []string{"gpsa", "gpsa-gen", "gpsa-preprocess", "gpsa-bench", "gpsa-cluster", "gpsa-inspect"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		return string(out)
	}

	out := run("gpsa-gen", "-dataset", "google", "-scale", "256", "-out", "g.gpsa", "-text", "g.txt", "-symmetrize")
	if !strings.Contains(out, "google@1/256") {
		t.Fatalf("gpsa-gen output: %s", out)
	}

	out = run("gpsa", "-graph", "g.gpsa", "-algo", "pagerank", "-top", "3")
	if !strings.Contains(out, "top 3 vertices") || !strings.Contains(out, "ran 5 supersteps") {
		t.Fatalf("gpsa pagerank output: %s", out)
	}

	out = run("gpsa", "-graph", "g.gpsa", "-algo", "bfs", "-root", "0")
	if !strings.Contains(out, "reached") {
		t.Fatalf("gpsa bfs output: %s", out)
	}

	out = run("gpsa", "-graph", "g.gpsa-sym", "-algo", "cc")
	if !strings.Contains(out, "components") {
		t.Fatalf("gpsa cc output: %s", out)
	}

	out = run("gpsa-preprocess", "-in", "g.txt", "-out", "g2.gpsa")
	if !strings.Contains(out, "wrote g2.gpsa") {
		t.Fatalf("gpsa-preprocess output: %s", out)
	}

	// The preprocessed graph must be runnable too.
	out = run("gpsa", "-graph", "g2.gpsa", "-algo", "pagerank", "-top", "1")
	if !strings.Contains(out, "ran 5 supersteps") {
		t.Fatalf("gpsa on preprocessed graph: %s", out)
	}

	// Persistent values enable resumption across process boundaries.
	run("gpsa", "-graph", "g.gpsa", "-algo", "pagerank", "-supersteps", "2", "-values", "pr.gpvf")
	if _, err := os.Stat(filepath.Join(work, "pr.gpvf")); err != nil {
		t.Fatalf("persistent value file missing: %v", err)
	}

	out = run("gpsa-cluster", "-graph", "g.gpsa", "-algo", "cc", "-nodes", "2")
	if !strings.Contains(out, "cluster of") {
		t.Fatalf("gpsa-cluster output: %s", out)
	}

	out = run("gpsa-inspect", "-graph", "g.gpsa", "-values", "pr.gpvf")
	if !strings.Contains(out, "out-degree histogram") || !strings.Contains(out, "epoch:") {
		t.Fatalf("gpsa-inspect output: %s", out)
	}

	// The three-system comparison on a user's graph: every workload on
	// every system, each timed against GPSA.
	out = run("gpsa-bench", "-graph", "g.gpsa", "-runs", "1", "-supersteps", "2")
	if !strings.Contains(out, "2 supersteps x 1 runs") {
		t.Fatalf("gpsa-bench -graph output: %s", out)
	}
	var header string
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		switch f := strings.Fields(line); {
		case len(f) > 0 && f[0] == "Algo":
			header = line
		case len(f) == 6 && header != "":
			rows[f[0]+"/"+f[1]] = f[5]
		}
	}
	if h := strings.Fields(header); strings.Join(h, " ") != "Algo System Seconds Sec/Step CPU% vs GPSA" {
		t.Fatalf("gpsa-bench -graph header %q:\n%s", header, out)
	}
	for _, alg := range []string{"PageRank", "CC", "BFS"} {
		for _, sys := range []string{"GPSA", "GraphChi", "X-Stream"} {
			vs, ok := rows[alg+"/"+sys]
			if !ok || (sys == "GPSA") != (vs == "-") || (sys != "GPSA" && !strings.HasSuffix(vs, "x")) {
				t.Fatalf("gpsa-bench -graph: row %s/%s vs GPSA = %q (present %v):\n%s", alg, sys, vs, ok, out)
			}
		}
	}
	if len(rows) != 9 {
		t.Fatalf("gpsa-bench -graph printed %d rows, want 9:\n%s", len(rows), out)
	}

	// Bad invocations must fail loudly.
	cmd := exec.Command(filepath.Join(bin, "gpsa"), "-graph", "missing.gpsa", "-algo", "pagerank")
	cmd.Dir = work
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("gpsa with missing graph succeeded: %s", out)
	}
	cmd = exec.Command(filepath.Join(bin, "gpsa"), "-graph", "g.gpsa", "-algo", "nonsense")
	cmd.Dir = work
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("gpsa with unknown algorithm succeeded: %s", out)
	}
	// An unknown gpsa-bench experiment id, workload or core count, a
	// cluster size past the bound and a negative or too large
	// gpsa-preprocess count are usage errors: exit 2 before any work
	// (the preprocess rows name an input that does not exist, which
	// would exit 1 if it were opened), gpsa-bench names the valid ids or
	// the flag and the others the flag.
	gpath := filepath.Join(work, "g.gpsa")
	for _, bad := range []struct {
		args []string
		want string
	}{
		{[]string{"gpsa-bench", "-exp", "nope"}, "scalability, all, scale"},
		{[]string{"gpsa-bench", "-exp", "hotpath"}, "scalability, all, scale"},
		{[]string{"gpsa-bench", "-graph", gpath, "-algo", "nope"}, "pagerank, cc, bfs, all"},
		{[]string{"gpsa-bench", "-exp", "scale", "-cores", "0"}, "-cores"},
		{[]string{"gpsa-cluster", "-graph", gpath, "-nodes", "4", "-splits", "2000000000"}, "-splits 2000000000"},
		{[]string{"gpsa-preprocess", "-in", "missing.txt", "-out", "x.gpsa", "-vertices", "-5"}, "-vertices -5"},
		{[]string{"gpsa-preprocess", "-in", "missing.txt", "-out", "x.gpsa", "-vertices", "4294967296"}, "-vertices 4294967296"},
		{[]string{"gpsa-preprocess", "-in", "missing.txt", "-out", "x.gpsa", "-chunk", "-1"}, "-chunk -1"},
	} {
		out, err := exec.Command(filepath.Join(bin, bad.args[0]), bad.args[1:]...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("%v: err = %v, want exit status 2\n%s", bad.args, err, out)
		}
		if !strings.Contains(string(out), bad.want) {
			t.Fatalf("%v does not name %q:\n%s", bad.args, bad.want, out)
		}
	}
}
