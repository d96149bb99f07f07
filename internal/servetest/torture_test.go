package servetest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

var (
	serveBin  string
	graphsDir string
)

// TestMain compiles cmd/gpsa-serve and generates the torture graphs
// once for the whole package. Skipped under -short.
func TestMain(m *testing.M) {
	flag.Parse()
	dir := ""
	if !testing.Short() {
		var err error
		if dir, err = os.MkdirTemp("", "gpsa-servetest-*"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fatal := func(err error) {
			os.RemoveAll(dir)
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if serveBin, err = harness.Build(dir, "gpsa-serve"); err != nil {
			fatal(err)
		}
		graphsDir = filepath.Join(dir, "graphs")
		if _, _, err = harness.WriteTortureGraphs(graphsDir); err != nil {
			fatal(err)
		}
	}
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

// tortureSpecs are the concurrent jobs of the kill/resume scenarios:
// mixed programs over both graphs at the server's default pool. Slabs
// apply in dispatcher order, so the float-valued programs commit
// bit-identical values run over run at any pool.
func tortureSpecs() []map[string]any {
	return []map[string]any{
		{"graph": "torture.gpsa", "algo": "pagerank", "supersteps": 5},
		{"graph": "torture.gpsa", "algo": "deltapagerank", "supersteps": 5},
		{"graph": "torture.gpsa", "algo": "bfs", "root": 0},
		{"graph": "torture-sym.gpsa", "algo": "cc"},
		{"graph": "torture-sym.gpsa", "algo": "pagerank", "supersteps": 5},
		{"graph": "torture.gpsa", "algo": "bfs", "root": 1},
	}
}

// stallFault keeps every job slow enough that kills and drains land
// mid-run: each computer message sleeps 20ms (results are unaffected —
// stalls delay, they do not perturb).
const stallFault = "site=core.computer.stall,count=-1,delay=20ms"

// submitAll submits specs in order and returns the job IDs.
func submitAll(t *testing.T, s *harness.Server, specs []map[string]any) []string {
	t.Helper()
	var ids []string
	for i, spec := range specs {
		code, j, _, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if code != 202 {
			t.Fatalf("submit %d = %d, want 202", i, code)
		}
		ids = append(ids, j.ID)
	}
	return ids
}

// waitRunning polls until at least n jobs report status running.
func waitRunning(t *testing.T, s *harness.Server, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		jobs, err := s.ListJobs()
		if err == nil {
			running := 0
			for _, j := range jobs {
				if j.Status == "running" {
					running++
				}
			}
			if running >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d running jobs; stderr:\n%s", n, s.StderrText())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitAllTerminal polls until every listed job is terminal, then
// returns the jobs keyed by ID.
func waitAllTerminal(t *testing.T, s *harness.Server, ids []string, timeout time.Duration) map[string]harness.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		jobs, err := s.ListJobs()
		if err == nil {
			byID := make(map[string]harness.Job, len(jobs))
			done := 0
			for _, j := range jobs {
				byID[j.ID] = j
			}
			for _, id := range ids {
				if j, ok := byID[id]; ok && terminalStatus(j.Status) {
					done++
				}
			}
			if done == len(ids) {
				return byID
			}
		}
		if time.Now().After(deadline) {
			jobs, _ := s.ListJobs()
			t.Fatalf("jobs never all finished: %+v\nstderr:\n%s", jobs, s.StderrText())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runBaseline runs the torture specs on an undisturbed server and
// returns each job's sealed file state — the bits every tortured
// schedule must reproduce exactly.
func runBaseline(t *testing.T, specs []map[string]any) map[string]harness.FileState {
	t.Helper()
	jobsDir := filepath.Join(t.TempDir(), "jobs-baseline")
	s, err := harness.StartServer(harness.ServerConfig{Bin: serveBin, GraphDir: graphsDir, JobsDir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	ids := submitAll(t, s, specs)
	byID := waitAllTerminal(t, s, ids, 120*time.Second)
	states := make(map[string]harness.FileState, len(ids))
	for _, id := range ids {
		j := byID[id]
		if j.Status != "completed" {
			t.Fatalf("baseline job %s finished %q (%s)", id, j.Status, j.Error)
		}
		st, err := harness.ReadState(j.Values)
		if err != nil {
			t.Fatal(err)
		}
		states[id] = st
	}
	if code, err := s.Terminate(); err != nil || code != 0 {
		t.Fatalf("baseline drain exit = %d (%v)", code, err)
	}
	return states
}

// TestServeSmoke is the make-check slice: submit, complete, cache-hit,
// drain with exit 0. No kills, no faults.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("servetest harness skipped in -short mode")
	}
	jobsDir := filepath.Join(t.TempDir(), "jobs")
	s, err := harness.StartServer(harness.ServerConfig{Bin: serveBin, GraphDir: graphsDir, JobsDir: jobsDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	spec := map[string]any{"graph": "torture.gpsa", "algo": "pagerank", "supersteps": 5}
	ids := submitAll(t, s, []map[string]any{spec, {"graph": "torture.gpsa", "algo": "bfs", "root": 0}})
	byID := waitAllTerminal(t, s, ids, 60*time.Second)
	for _, id := range ids {
		if byID[id].Status != "completed" {
			t.Fatalf("job %s finished %q (%s)", id, byID[id].Status, byID[id].Error)
		}
	}
	// Identical resubmission is a cache hit.
	code, j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || !j.Cached {
		t.Fatalf("resubmission = %d cached=%v, want 200 from cache", code, j.Cached)
	}
	if ready, _ := s.GetStatus("/readyz"); ready != 200 {
		t.Fatalf("/readyz = %d", ready)
	}
	m, err := s.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m["serve.admitted"] < 2 || m["serve.completed"] < 2 || m["serve.cache.hits"] < 1 {
		t.Fatalf("metrics %v missing admitted/completed/cache.hits", m)
	}
	if code, err := s.Terminate(); err != nil || code != 0 {
		t.Fatalf("drain exit = %d (%v); stderr:\n%s", code, err, s.StderrText())
	}
	if !strings.Contains(s.StderrText(), "drained cleanly") {
		t.Fatalf("drain not confirmed; stderr:\n%s", s.StderrText())
	}
}

// TestServeTortureKillResume is the headline durability scenario:
// SIGKILL the server with >= 4 jobs in flight, twice over (the second
// kill lands during resume), and require the third generation to finish
// every job bit-identical to an undisturbed run.
func TestServeTortureKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("servetest harness skipped in -short mode")
	}
	specs := tortureSpecs()
	baseline := runBaseline(t, specs)

	jobsDir := filepath.Join(t.TempDir(), "jobs")

	// Generation 1: stalled jobs, SIGKILL with >= 4 running.
	s1, err := harness.StartServer(harness.ServerConfig{Bin: serveBin, GraphDir: graphsDir, JobsDir: jobsDir, Fault: stallFault})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitAll(t, s1, specs)
	waitRunning(t, s1, 4, 30*time.Second)
	s1.Kill()
	t.Log("generation 1 SIGKILLed with >= 4 jobs in flight")

	// Generation 2: resume under the same stall, SIGKILL again mid-resume
	// — recovery must itself be recoverable.
	s2, err := harness.StartServer(harness.ServerConfig{Bin: serveBin, GraphDir: graphsDir, JobsDir: jobsDir, Resume: true, Fault: stallFault})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s2, 1, 30*time.Second)
	m2, err := s2.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m2["serve.resumed"] < 4 {
		t.Fatalf("generation 2 resumed %d jobs, want >= 4 (the in-flight kills)", m2["serve.resumed"])
	}
	s2.Kill()
	t.Log("generation 2 SIGKILLed mid-resume")

	// Generation 3: undisturbed resume runs everything to completion.
	s3, err := harness.StartServer(harness.ServerConfig{Bin: serveBin, GraphDir: graphsDir, JobsDir: jobsDir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Kill()
	byID := waitAllTerminal(t, s3, ids, 120*time.Second)
	m3, err := s3.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m3["serve.resumed"] < 1 {
		t.Fatalf("generation 3 resumed %d jobs, want >= 1", m3["serve.resumed"])
	}
	for _, id := range ids {
		j := byID[id]
		if j.Status != "completed" {
			t.Fatalf("job %s finished %q (%s) after double kill + resume", id, j.Status, j.Error)
		}
		st, err := harness.ReadState(j.Values)
		if err != nil {
			t.Fatal(err)
		}
		if d := st.Diff(baseline[id]); d != "" {
			t.Fatalf("job %s (recovery %v, resumed_from %v): resumed values differ from undisturbed baseline: %s",
				id, j.Result["recovery"], j.Result["resumed_from"], d)
		}
	}
	if code, err := s3.Terminate(); err != nil || code != 0 {
		t.Fatalf("final drain exit = %d (%v)", code, err)
	}
}

// TestServeTortureOverloadDrain floods a capacity-2 queue behind one
// worker: the burst must shed with 429 + Retry-After (bounded memory),
// the SIGTERM drain must exit 0, and the next generation must resume
// the journaled backlog to completion.
func TestServeTortureOverloadDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("servetest harness skipped in -short mode")
	}
	jobsDir := filepath.Join(t.TempDir(), "jobs")
	s, err := harness.StartServer(harness.ServerConfig{
		Bin: serveBin, GraphDir: graphsDir, JobsDir: jobsDir, Fault: stallFault,
		Extra: []string{"-queue-cap", "2", "-workers", "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	var admitted []string
	shed := 0
	for i := 0; i < 12; i++ {
		// Distinct epsilons keep every submission out of the result cache.
		code, j, hdr, err := s.Submit(map[string]any{
			"graph": "torture.gpsa", "algo": "pagerank", "supersteps": 5,
			"epsilon": float64(i+1) / 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		switch code {
		case 202:
			admitted = append(admitted, j.ID)
		case 429:
			shed++
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("burst submit %d = %d", i, code)
		}
	}
	if shed == 0 {
		t.Fatal("12-job burst into a capacity-2 queue behind one stalled worker shed nothing")
	}
	t.Logf("burst: %d admitted, %d shed", len(admitted), shed)

	m, err := s.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m["serve.admitted"] != int64(len(admitted)) || m["serve.shed"] != int64(shed) {
		t.Fatalf("metrics admitted=%d shed=%d, want %d/%d",
			m["serve.admitted"], m["serve.shed"], len(admitted), shed)
	}

	// SIGTERM drains: exit 0, journal keeps the backlog.
	code, err := s.Terminate()
	if err != nil || code != 0 {
		t.Fatalf("drain exit = %d (%v); stderr:\n%s", code, err, s.StderrText())
	}

	s2, err := harness.StartServer(harness.ServerConfig{Bin: serveBin, GraphDir: graphsDir, JobsDir: jobsDir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	byID := waitAllTerminal(t, s2, admitted, 120*time.Second)
	for _, id := range admitted {
		if byID[id].Status != "completed" {
			t.Fatalf("backlog job %s finished %q (%s)", id, byID[id].Status, byID[id].Error)
		}
	}
	m2, err := s2.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m2["serve.resumed"] < 1 {
		t.Fatalf("drained backlog not resumed: metrics %v", m2)
	}
	if code, err := s2.Terminate(); err != nil || code != 0 {
		t.Fatalf("second drain exit = %d (%v)", code, err)
	}
}

// TestServeTortureDeadline gives a stalled job a 150ms budget: it must
// end deadline_exceeded with a cleanly sealed, resumable value file — a
// checkpoint, not a zombie or a corpse.
func TestServeTortureDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("servetest harness skipped in -short mode")
	}
	jobsDir := filepath.Join(t.TempDir(), "jobs")
	s, err := harness.StartServer(harness.ServerConfig{Bin: serveBin, GraphDir: graphsDir, JobsDir: jobsDir, Fault: stallFault})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	code, j, _, err := s.Submit(map[string]any{
		"graph": "torture.gpsa", "algo": "pagerank", "supersteps": 5,
		"deadline_ms": 50,
	})
	if err != nil || code != 202 {
		t.Fatalf("submit = %d (%v)", code, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := s.GetJob(j.ID)
		if err == nil && terminalStatus(cur.Status) {
			if cur.Status != "deadline_exceeded" {
				t.Fatalf("job finished %q (%s), want deadline_exceeded", cur.Status, cur.Error)
			}
			if _, err := harness.ReadState(cur.Values); err != nil {
				t.Fatalf("deadline did not leave a sealed checkpoint: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never hit its deadline; stderr:\n%s", s.StderrText())
		}
		time.Sleep(10 * time.Millisecond)
	}
	m, err := s.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m["serve.deadline_exceeded"] < 1 {
		t.Fatalf("serve.deadline_exceeded not counted: %v", m)
	}
	if code, err := s.Terminate(); err != nil || code != 0 {
		t.Fatalf("drain exit = %d (%v)", code, err)
	}
}
