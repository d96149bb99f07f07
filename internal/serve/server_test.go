package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

func startTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv, err := NewServer(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	return srv
}

func postJob(t *testing.T, addr string, spec JobSpec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) Job {
	t.Helper()
	defer resp.Body.Close()
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestServerSubmitPollComplete(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	srv := startTestServer(t, opts)
	defer srv.Shutdown(context.Background())

	resp := postJob(t, srv.Addr(), JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 3, Dispatchers: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	j := decodeJob(t, resp)
	deadline := time.Now().Add(15 * time.Second)
	for {
		r, err := http.Get("http://" + srv.Addr() + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		cur := decodeJob(t, r)
		if cur.Status == StatusCompleted {
			if cur.Result == nil || cur.Result.ValuesDigest == "" {
				t.Fatalf("completed without a digest: %+v", cur)
			}
			break
		}
		if cur.Status == StatusFailed || time.Now().After(deadline) {
			t.Fatalf("job %s: %q (%s)", j.ID, cur.Status, cur.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Identical resubmission: 200 from the cache, not 202.
	resp2 := postJob(t, srv.Addr(), JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 3, Dispatchers: 1})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit = %d, want 200", resp2.StatusCode)
	}
	if j2 := decodeJob(t, resp2); !j2.Cached {
		t.Fatalf("resubmission not cached: %+v", j2)
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	opts := testOptions(t)
	srv := startTestServer(t, opts)
	defer srv.Shutdown(context.Background())

	for name, spec := range map[string]JobSpec{
		"no algo":         {Graph: "g.gpsa"},
		"unknown algo":    {Graph: "g.gpsa", Algo: "zork"},
		"path escape":     {Graph: "../../etc/passwd", Algo: "cc"},
		"missing graph":   {Graph: "nope.gpsa", Algo: "cc"},
		"priority range":  {Graph: "g.gpsa", Algo: "cc", Priority: 11},
		"negative budget": {Graph: "g.gpsa", Algo: "cc", DeadlineMS: -1},
	} {
		resp := postJob(t, srv.Addr(), spec)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// The engine refuses a pool larger than core.MaxWorkers on every attempt,
// so an admitted one would burn its retries and then count a breaker
// failure for (graph, algo) — three such POSTs would quarantine that pair
// for every client. It gets 400 before anything is journaled, and the
// server keeps completing ordinary jobs.
func TestServerRejectsUnreasonableWorkerCount(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	srv := startTestServer(t, opts)
	defer srv.Shutdown(context.Background())
	journal := filepath.Join(opts.JobsDir, "jobs.journal")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []JobSpec{
		{Graph: rel, Algo: "bfs", Dispatchers: core.MaxWorkers + 1},
		{Graph: rel, Algo: "bfs", Computers: core.MaxWorkers + 1},
	} {
		resp := postJob(t, srv.Addr(), spec)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("dispatchers %d, computers %d: status %d, want 400", spec.Dispatchers, spec.Computers, resp.StatusCode)
		}
	}
	if after, err := os.ReadFile(journal); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused submissions reached the journal (err %v):\n%s", err, after)
	}
	j := decodeJob(t, postJob(t, srv.Addr(), JobSpec{Graph: rel, Algo: "bfs", Dispatchers: 1}))
	if got := waitStatus(t, srv.Manager(), j.ID, 15*time.Second); got.Status != StatusCompleted {
		t.Fatalf("follow-up job %s: %q (%s)", j.ID, got.Status, got.Error)
	}
}

// JobSpec once carried mailbox_cap. A journal written then still replays
// (replay decodes with plain json.Unmarshal, which skips the retired
// field), while a new submission carrying it is refused with 400 naming
// the field (the HTTP decoder disallows unknown fields).
func TestServerReplaysRetiredSpecField(t *testing.T) {
	opts := testOptions(t)
	writeTestGraph(t, opts.GraphDir)
	if err := os.MkdirAll(opts.JobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := `{"id":"j-000000","event":"submitted","spec":{"graph":"g.gpsa","algo":"bfs","dispatchers":1,"mailbox_cap":64}}` + "\n"
	if err := os.WriteFile(filepath.Join(opts.JobsDir, "jobs.journal"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.ResumeJobs = true
	srv := startTestServer(t, opts)
	defer srv.Shutdown(context.Background())
	if got := waitStatus(t, srv.Manager(), "j-000000", 15*time.Second); got.Status != StatusCompleted || !got.Replayed {
		t.Fatalf("journaled job: %q replayed=%v (%s), want completed and replayed", got.Status, got.Replayed, got.Error)
	}

	body := `{"graph":"g.gpsa","algo":"bfs","mailbox_cap":64}`
	resp, err := http.Post("http://"+srv.Addr()+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, `"mailbox_cap"`) {
		t.Fatalf("new submission with mailbox_cap: status %d (%s), want 400 naming the field", resp.StatusCode, eb.Error)
	}
}

func TestServerShedsWith429AndRetryAfter(t *testing.T) {
	opts := testOptions(t)
	opts.QueueCap = 1
	opts.Workers = 1
	rel := writeTestGraph(t, opts.GraphDir)

	// Stall computer messages so the single worker stays busy while the
	// burst lands.
	fault.Activate(fault.NewPlan(1, fault.Injection{
		Site: fault.SiteComputerStall, Count: -1, Delay: time.Millisecond,
	}))
	defer fault.Deactivate()

	srv := startTestServer(t, opts)
	defer srv.Shutdown(context.Background())

	var shed int
	for i := 0; i < 12; i++ {
		resp := postJob(t, srv.Addr(), JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 5, Dispatchers: 1,
			Epsilon: float64(i)}) // distinct params: no cache hits
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("burst submit %d = %d", i, resp.StatusCode)
		}
	}
	if shed == 0 {
		t.Fatal("12-job burst into a capacity-1 queue shed nothing")
	}
	// Shedding is backpressure, not amnesia: the metrics prove it.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "serve.shed") {
		t.Fatal("/metrics missing serve.shed")
	}
}

func TestServerReadyzFlipsWhileDraining(t *testing.T) {
	opts := testOptions(t)
	srv := startTestServer(t, opts)

	get := func(path string) int {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d", code)
	}
	if err := srv.Manager().Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while drained = %d, want 503", code)
	}
	// Submissions are refused outright.
	resp := postJob(t, srv.Addr(), JobSpec{Graph: "g.gpsa", Algo: "cc"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestServerListsJobs(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	srv := startTestServer(t, opts)
	defer srv.Shutdown(context.Background())

	for i := 0; i < 3; i++ {
		resp := postJob(t, srv.Addr(), JobSpec{Graph: rel, Algo: "bfs", Root: int64(i), Dispatchers: 1})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + srv.Addr() + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(jobs))
	}
	for i, j := range jobs {
		if want := fmt.Sprintf("j-%06d", i); j.ID != want {
			t.Fatalf("job %d listed as %s, want %s (admission order)", i, j.ID, want)
		}
	}
}
