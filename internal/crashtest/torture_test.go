package crashtest

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/vertexfile"
)

var (
	gpsaBin        string
	directedGraph  string
	symmetricGraph string
)

// TestMain compiles cmd/gpsa and generates the torture graphs once for
// the whole package. Skipped under -short, where only the in-process
// regression tests run.
func TestMain(m *testing.M) {
	flag.Parse()
	dir := ""
	if !testing.Short() {
		var err error
		if dir, err = os.MkdirTemp("", "gpsa-crashtest-*"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fatal := func(err error) {
			os.RemoveAll(dir)
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if gpsaBin, err = harness.Build(dir, "gpsa"); err != nil {
			fatal(err)
		}
		directed, symmetric, err := harness.WriteTortureGraphs(dir)
		if err != nil {
			fatal(err)
		}
		directedGraph, symmetricGraph = filepath.Join(dir, directed), filepath.Join(dir, symmetric)
	}
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

// killSites are the fault sites a torture cycle may park a SIGKILL at —
// every phase of the durability state machine.
var killSites = []string{
	fault.SiteKillBeginActive,
	fault.SiteKillDispatch,
	fault.SiteKillBarrier,
	fault.SiteKillCommitColumns,
	fault.SiteKillCommitSeal,
	fault.SiteKillCommitDone,
}

// resumable reports whether path currently holds a value file a -resume
// run can continue from (a kill before Create finished leaves it
// missing or truncated).
func resumable(path string) bool {
	vf, err := vertexfile.Open(path)
	if err != nil {
		return false
	}
	vf.Close()
	return true
}

// runBaseline executes one uninterrupted run into its own value file and
// returns the sealed state every tortured run must reproduce exactly.
func runBaseline(t *testing.T, graphPath string, algoArgs []string, dir string) harness.FileState {
	t.Helper()
	values := filepath.Join(dir, "baseline.gpvf")
	args := append([]string{"-graph", graphPath, "-values", values}, algoArgs...)
	res, err := runBinary(gpsaBin, args, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.exitCode != 0 {
		t.Fatalf("baseline run exited %d\nstdout:\n%s\nstderr:\n%s", res.exitCode, res.stdout, res.stderr)
	}
	state, err := harness.ReadState(values)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestTortureKillResume is the kill-torture acceptance test: for each
// shipped algorithm it SIGKILLs the gpsa binary at randomized supersteps
// and commit-protocol phases (plus wall-clock jitter kills), resumes
// with -resume, and requires the surviving value file to end bit-identical
// to the uninterrupted baseline. 4 cases x 7 kills = 28 randomized
// kill points per run of the harness. pagerank-prefetch forces the
// async CSR prefetcher on, so kills land while madvise windows are in
// flight ahead of the edge cursor.
func TestTortureKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture harness")
	}
	cases := []struct {
		name  string
		graph func() string
		args  []string
		seed  int64
	}{
		{"pagerank", func() string { return directedGraph }, []string{"-algo", "pagerank", "-supersteps", "12"}, 101},
		{"pagerank-prefetch", func() string { return directedGraph }, []string{"-algo", "pagerank", "-supersteps", "12", "-prefetch"}, 505},
		{"bfs", func() string { return directedGraph }, []string{"-algo", "bfs", "-root", "0"}, 202},
		{"cc", func() string { return symmetricGraph }, []string{"-algo", "cc"}, 303},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tortureCase(t, tc.graph(), tc.args, 7, tc.seed)
		})
	}
}

func tortureCase(t *testing.T, graphPath string, algoArgs []string, wantKills int, seed int64) {
	dir := t.TempDir()
	baseline := runBaseline(t, graphPath, algoArgs, dir)

	values := filepath.Join(dir, "torture.gpvf")
	commonArgs := append([]string{"-graph", graphPath, "-values", values}, algoArgs...)
	rng := rand.New(rand.NewSource(seed))
	kills, resumes := 0, 0
	for attempt := 0; kills < wantKills; attempt++ {
		if attempt > 60 {
			t.Fatalf("only %d of %d kills after %d attempts", kills, wantKills, attempt)
		}
		args := commonArgs
		if resumable(values) {
			args = append(append([]string{}, commonArgs...), "-resume")
			resumes++
		} else {
			os.Remove(values) // a kill before Create sealed anything: start fresh
		}
		var spec string
		var killAfter time.Duration
		if rng.Intn(4) == 0 {
			// Wall-clock jitter: SIGKILL from outside at a random instant,
			// landing between fault sites (mid-mmap-write, mid-page-fault...).
			killAfter = time.Duration(10+rng.Intn(120)) * time.Millisecond
		} else {
			spec = fmt.Sprintf("site=%s,after=%d", killSites[rng.Intn(len(killSites))], 1+rng.Intn(3))
		}
		res, err := runBinary(gpsaBin, args, spec, killAfter, 0)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case res.killed:
			kills++
		case res.exitCode == 0:
			// Finished before the kill fired. The completed state must
			// already match the baseline; restart fresh for more kills.
			state, rerr := harness.ReadState(values)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if d := state.Diff(baseline); d != "" {
				t.Fatalf("completed torture run diverged from baseline: %s", d)
			}
			os.Remove(values)
		default:
			t.Fatalf("unexpected outcome (exit %d, plan %q, timer %v)\nstdout:\n%s\nstderr:\n%s",
				res.exitCode, spec, killAfter, res.stdout, res.stderr)
		}
	}

	// Drive the survivor to completion with clean resumes.
	for finished := false; !finished; {
		args := commonArgs
		wasResume := resumable(values)
		if wasResume {
			args = append(append([]string{}, commonArgs...), "-resume")
		} else {
			os.Remove(values)
		}
		res, err := runBinary(gpsaBin, args, "", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.exitCode != 0 {
			t.Fatalf("final resume exited %d\nstdout:\n%s\nstderr:\n%s", res.exitCode, res.stdout, res.stderr)
		}
		if wasResume && !strings.Contains(res.stdout, "resumed at superstep") {
			t.Fatalf("resumed run did not report its resume point:\n%s", res.stdout)
		}
		finished = true
	}
	state, err := harness.ReadState(values)
	if err != nil {
		t.Fatal(err)
	}
	if d := state.Diff(baseline); d != "" {
		t.Fatalf("after %d kills and %d resumes: final state diverged from baseline: %s", kills, resumes, d)
	}
	t.Logf("%d SIGKILLs, %d resumes, final state bit-identical to baseline (epoch %d)", kills, resumes, state.Epoch)
}

// TestInterruptSealsCleanly covers the graceful half of the contract:
// SIGINT mid-superstep must roll the in-flight superstep back, seal the
// value file clean, exit with the recoverable code, and print the exact
// resume command — and the resumed run must still match the
// uninterrupted baseline bit for bit.
func TestInterruptSealsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture harness")
	}
	dir := t.TempDir()
	algoArgs := []string{"-algo", "pagerank", "-supersteps", "12"}
	baseline := runBaseline(t, directedGraph, algoArgs, dir)

	values := filepath.Join(dir, "int.gpvf")
	args := append([]string{"-graph", directedGraph, "-values", values}, algoArgs...)
	// Stall every computed message so superstep 0 is still in flight when
	// the SIGINT lands.
	res, err := runBinary(gpsaBin, args, "site="+fault.SiteComputerStall+",count=-1,delay=2ms", 0, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.exitCode != 3 {
		t.Fatalf("interrupted run exited %d, want 3\nstdout:\n%s\nstderr:\n%s", res.exitCode, res.stdout, res.stderr)
	}
	if !strings.Contains(res.stderr, "resume with:") {
		t.Fatalf("interrupted run did not print the resume command:\n%s", res.stderr)
	}
	vf, err := vertexfile.Open(values)
	if err != nil {
		t.Fatalf("value file not reopenable after SIGINT: %v", err)
	}
	if vf.InProgress() || vf.Torn() {
		vf.Close()
		t.Fatalf("SIGINT left the file unsealed (inProgress=%v torn=%v)", vf.InProgress(), vf.Torn())
	}
	vf.Close()

	res, err = runBinary(gpsaBin, append(append([]string{}, args...), "-resume"), "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.exitCode != 0 {
		t.Fatalf("resume after SIGINT exited %d\nstderr:\n%s", res.exitCode, res.stderr)
	}
	if !strings.Contains(res.stdout, "resumed at superstep") {
		t.Fatalf("resume output missing resume point:\n%s", res.stdout)
	}
	state, err := harness.ReadState(values)
	if err != nil {
		t.Fatal(err)
	}
	if d := state.Diff(baseline); d != "" {
		t.Fatalf("resume after SIGINT diverged from baseline: %s", d)
	}
}

// TestExitCodes pins the documented exit code contract of cmd/gpsa.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture harness")
	}
	dir := t.TempDir()
	runExit := func(args ...string) int {
		t.Helper()
		res, err := runBinary(gpsaBin, args, "", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.exitCode
	}
	if got := runExit(); got != 2 {
		t.Errorf("no -graph: exit %d, want 2", got)
	}
	if got := runExit("-graph", directedGraph, "-algo", "no-such-algorithm"); got != 2 {
		t.Errorf("unknown algorithm: exit %d, want 2", got)
	}
	if got := runExit("-graph", directedGraph, "-resume"); got != 2 {
		t.Errorf("-resume without -values: exit %d, want 2", got)
	}
	garbage := filepath.Join(dir, "garbage.gpvf")
	if err := os.WriteFile(garbage, []byte(strings.Repeat("not a value file ", 64)), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runExit("-graph", directedGraph, "-algo", "pagerank", "-values", garbage, "-resume"); got != 4 {
		t.Errorf("-resume from garbage: exit %d, want 4", got)
	}
}

// TestTortureKillDuringResume closes the recovery loop on itself: for
// each shipped algorithm the binary is killed once to leave a resumable
// survivor, then killed AGAIN while a -resume run is replaying it —
// recovery must itself be recoverable, any number of generations deep —
// and the final clean resume must still match the uninterrupted
// baseline bit for bit.
func TestTortureKillDuringResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture harness")
	}
	cases := []struct {
		name  string
		graph func() string
		args  []string
		seed  int64
	}{
		{"pagerank", func() string { return directedGraph }, []string{"-algo", "pagerank", "-supersteps", "12"}, 111},
		{"bfs", func() string { return directedGraph }, []string{"-algo", "bfs", "-root", "0"}, 222},
		{"cc", func() string { return symmetricGraph }, []string{"-algo", "cc"}, 333},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			killDuringResumeCase(t, tc.graph(), tc.args, 4, tc.seed)
		})
	}
}

// killDuringResumeCase drives wantResumeKills SIGKILLs that each land
// inside a -resume run (kills that land in fresh runs only serve to
// manufacture the resumable survivor).
func killDuringResumeCase(t *testing.T, graphPath string, algoArgs []string, wantResumeKills int, seed int64) {
	dir := t.TempDir()
	baseline := runBaseline(t, graphPath, algoArgs, dir)

	values := filepath.Join(dir, "resume-torture.gpvf")
	commonArgs := append([]string{"-graph", graphPath, "-values", values}, algoArgs...)
	rng := rand.New(rand.NewSource(seed))
	resumeKills := 0
	for attempt := 0; resumeKills < wantResumeKills; attempt++ {
		if attempt > 80 {
			t.Fatalf("only %d of %d resume-kills after %d attempts", resumeKills, wantResumeKills, attempt)
		}
		args := commonArgs
		isResume := resumable(values)
		if isResume {
			args = append(append([]string{}, commonArgs...), "-resume")
		} else {
			os.Remove(values) // survivor lost: manufacture a new one first
		}
		var spec string
		var killAfter time.Duration
		if rng.Intn(4) == 0 {
			killAfter = time.Duration(5+rng.Intn(80)) * time.Millisecond
		} else {
			spec = fmt.Sprintf("site=%s,after=%d", killSites[rng.Intn(len(killSites))], 1+rng.Intn(3))
		}
		res, err := runBinary(gpsaBin, args, spec, killAfter, 0)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case res.killed:
			if isResume {
				resumeKills++
			}
		case res.exitCode == 0:
			// Finished before the kill fired: verify and restart fresh.
			state, rerr := harness.ReadState(values)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if d := state.Diff(baseline); d != "" {
				t.Fatalf("completed run diverged from baseline: %s", d)
			}
			os.Remove(values)
		default:
			t.Fatalf("unexpected outcome (exit %d, plan %q, timer %v)\nstdout:\n%s\nstderr:\n%s",
				res.exitCode, spec, killAfter, res.stdout, res.stderr)
		}
	}

	// The multiply-killed survivor must still resume to the baseline.
	if !resumable(values) {
		t.Fatalf("survivor not resumable after %d resume-kills", resumeKills)
	}
	res, err := runBinary(gpsaBin, append(append([]string{}, commonArgs...), "-resume"), "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.exitCode != 0 {
		t.Fatalf("final resume exited %d\nstdout:\n%s\nstderr:\n%s", res.exitCode, res.stdout, res.stderr)
	}
	if !strings.Contains(res.stdout, "resumed at superstep") {
		t.Fatalf("final resume did not report its resume point:\n%s", res.stdout)
	}
	state, err := harness.ReadState(values)
	if err != nil {
		t.Fatal(err)
	}
	if d := state.Diff(baseline); d != "" {
		t.Fatalf("after %d kills-during-resume: final state diverged from baseline: %s", resumeKills, d)
	}
	t.Logf("%d SIGKILLs landed inside -resume runs; final state bit-identical to baseline (epoch %d)", resumeKills, state.Epoch)
}
