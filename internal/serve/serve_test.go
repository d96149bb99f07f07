package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/diskio"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// writeTestGraph saves a small RMAT graph under dir and returns its
// relative name.
func writeTestGraph(t *testing.T, dir string) string {
	t.Helper()
	g, err := gen.RMATGraph(gen.RMATConfig{Vertices: 300, Edges: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := gpsa.SaveGraph(filepath.Join(dir, "g.gpsa"), g); err != nil {
		t.Fatal(err)
	}
	return "g.gpsa"
}

func testOptions(t *testing.T) Options {
	t.Helper()
	root := t.TempDir()
	graphs := filepath.Join(root, "graphs")
	if err := os.MkdirAll(graphs, 0o755); err != nil {
		t.Fatal(err)
	}
	return Options{
		GraphDir:     graphs,
		JobsDir:      filepath.Join(root, "jobs"),
		Workers:      2,
		RetryBackoff: 5 * time.Millisecond,
		Logf:         t.Logf,
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	q := newJobQueue(8)
	mk := func(seq int64, prio int) *Job {
		return &Job{ID: fmt.Sprintf("j-%d", seq), Spec: JobSpec{Priority: prio}, seq: seq}
	}
	for _, j := range []*Job{mk(0, 1), mk(1, 5), mk(2, 5), mk(3, 9)} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	all := func(*Job) bool { return true }
	var got []string
	for i := 0; i < 4; i++ {
		j, err := q.pop(ctx, all)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, j.ID)
	}
	want := "j-3 j-1 j-2 j-0" // priority desc, seq asc within ties
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("pop order %q, want %q", s, want)
	}
}

func TestQueueShedsWhenFull(t *testing.T) {
	q := newJobQueue(2)
	for i := int64(0); i < 2; i++ {
		if err := q.push(&Job{seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.push(&Job{seq: 9}); err != errQueueFull {
		t.Fatalf("push on full queue = %v, want errQueueFull", err)
	}
}

func TestQueueEligibilitySkipsSaturatedGraph(t *testing.T) {
	q := newJobQueue(8)
	busy := &Job{ID: "busy", Spec: JobSpec{Graph: "a", Priority: 9}, seq: 0}
	free := &Job{ID: "free", Spec: JobSpec{Graph: "b", Priority: 1}, seq: 1}
	if err := q.push(busy); err != nil {
		t.Fatal(err)
	}
	if err := q.push(free); err != nil {
		t.Fatal(err)
	}
	// The higher-priority job's graph is saturated: pop must hand out
	// the lower-priority one instead of blocking behind it.
	j, err := q.pop(context.Background(), func(j *Job) bool { return j.Spec.Graph != "a" })
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "free" {
		t.Fatalf("popped %q, want the eligible lower-priority job", j.ID)
	}
}

func TestJournalReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{Graph: "g.gpsa", Algo: "pagerank", Supersteps: 5}
	if err := j.append(journalRecord{ID: "j-000000", Event: "submitted", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{ID: "j-000000", Event: StatusCompleted, Digest: "deadbeef"}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{ID: "j-000001", Event: "submitted", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, partial final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"j-000002","ev`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	order, states, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if len(order) != 2 {
		t.Fatalf("replayed %d jobs, want 2 (torn tail dropped)", len(order))
	}
	if st := states["j-000000"]; !st.terminal() || st.Digest != "deadbeef" {
		t.Fatalf("j-000000 state = %+v, want terminal completed", st)
	}
	if st := states["j-000001"]; st.terminal() {
		t.Fatalf("j-000001 should be non-terminal (needs resume), got %+v", st)
	}
}

func TestJournalReplayRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	body := `{"id":"j-000000","event":"submitted","spec":{"graph":"g","algo":"cc"}}` + "\n" +
		"{garbage\n" +
		`{"id":"j-000001","event":"submitted","spec":{"graph":"g","algo":"cc"}}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayJournal(path); err == nil {
		t.Fatal("mid-file corruption replayed silently, want error")
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	b := newBreaker(2, 50*time.Millisecond)
	if tripped := b.failure("k"); tripped {
		t.Fatal("tripped after one failure, threshold is 2")
	}
	if tripped := b.failure("k"); !tripped {
		t.Fatal("did not trip at threshold")
	}
	if ok, left := b.allow("k"); ok || left <= 0 {
		t.Fatalf("allow during quarantine = (%v, %v)", ok, left)
	}
	time.Sleep(60 * time.Millisecond)
	if ok, _ := b.allow("k"); !ok {
		t.Fatal("still quarantined after cooldown")
	}
	// Half-open: a single failure re-trips immediately.
	if tripped := b.failure("k"); !tripped {
		t.Fatal("half-open breaker did not re-trip on next failure")
	}
	b.success("k")
	if tripped := b.failure("k"); tripped {
		t.Fatal("success did not reset the failure count")
	}
}

func TestManagerRunsJobAndCaches(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 3, Dispatchers: 1}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusQueued {
		t.Fatalf("submitted job status %q", j.Status)
	}
	done := waitStatus(t, m, j.ID, 10*time.Second)
	if done.Status != StatusCompleted || done.Result == nil {
		t.Fatalf("job finished %q (%s), want completed", done.Status, done.Error)
	}
	if done.Result.Supersteps != 3 {
		t.Fatalf("ran %d supersteps, want 3", done.Result.Supersteps)
	}

	// The identical submission must come back from the result cache,
	// with the same values digest, without queueing.
	j2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached || j2.Status != StatusCompleted {
		t.Fatalf("second submission not served from cache: %+v", j2)
	}
	if j2.Result.ValuesDigest != done.Result.ValuesDigest {
		t.Fatalf("cached digest %s != original %s", j2.Result.ValuesDigest, done.Result.ValuesDigest)
	}

	// Different params miss the cache.
	j3, err := m.Submit(JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 4, Dispatchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j3.Cached {
		t.Fatal("different supersteps hit the cache")
	}
	waitStatus(t, m, j3.ID, 10*time.Second)

	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestManagerDeadlineSealsResumable(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Stall every computer message long enough that a 50ms deadline
	// expires mid-run.
	fault.Activate(fault.NewPlan(1, fault.Injection{
		Site: fault.SiteComputerStall, Count: -1, Delay: 2 * time.Millisecond,
	}))
	defer fault.Deactivate()

	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 5, Dispatchers: 1, DeadlineMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m, j.ID, 15*time.Second)
	if done.Status != StatusDeadline {
		t.Fatalf("job finished %q, want deadline_exceeded", done.Status)
	}
	if got := metrics.Counter(metrics.CtrServeDeadlineExceeded); got == 0 {
		t.Fatal("serve.deadline_exceeded not incremented")
	}
	// The deadline must leave a checkpoint, not a corpse: the value
	// file seals resumable.
	if !gpsa.Resumable(done.ValuesPath) {
		t.Fatalf("value file %s not resumable after deadline", done.ValuesPath)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestManagerRetriesTransientThenFails(t *testing.T) {
	opts := testOptions(t)
	opts.JobRetries = 2
	opts.BreakerThreshold = 1
	rel := writeTestGraph(t, opts.GraphDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Every attempt fails post-run: 1 initial + 2 retries, then the
	// job fails terminally and trips the (threshold 1) breaker.
	fault.Activate(fault.NewPlan(1, fault.Injection{
		Site: fault.SiteServeJobFail, Count: -1,
	}))
	defer fault.Deactivate()
	metrics.ResetCounters()

	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(JobSpec{Graph: rel, Algo: "cc", Dispatchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m, j.ID, 15*time.Second)
	if done.Status != StatusFailed {
		t.Fatalf("job finished %q, want failed", done.Status)
	}
	if done.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", done.Attempts)
	}
	if got := metrics.Counter(metrics.CtrServeRetries); got != 2 {
		t.Fatalf("serve.retries = %d, want 2", got)
	}

	// The breaker is now open for this (graph, program): submissions
	// shed with a Retry-After.
	_, err = m.Submit(JobSpec{Graph: rel, Algo: "cc", Dispatchers: 1})
	var shed *shedError
	if !asShed(err, &shed) || shed.cause != errBreakerOpen {
		t.Fatalf("submission during quarantine = %v, want breaker shed", err)
	}
	// A different program on the same graph is unaffected.
	fault.Deactivate()
	j2, err := m.Submit(JobSpec{Graph: rel, Algo: "bfs", Dispatchers: 1})
	if err != nil {
		t.Fatalf("bfs on quarantined graph's other program: %v", err)
	}
	if d := waitStatus(t, m, j2.ID, 15*time.Second); d.Status != StatusCompleted {
		t.Fatalf("bfs finished %q (%s)", d.Status, d.Error)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestManagerJournalFailureRefusesAdmission(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(fault.NewPlan(1, fault.Injection{
		Site: fault.SiteServeJournalSync, Count: 1,
	}))
	defer fault.Deactivate()
	if _, err := m.Submit(JobSpec{Graph: rel, Algo: "cc", Dispatchers: 1}); err == nil {
		t.Fatal("submission acknowledged without a durable journal record")
	}
	// The failed submission must not leak into the job table.
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Fatalf("job table has %d entries after refused admission", len(jobs))
	}
	fault.Deactivate()
	j, err := m.Submit(JobSpec{Graph: rel, Algo: "cc", Dispatchers: 1})
	if err != nil {
		t.Fatalf("submission after journal recovered: %v", err)
	}
	waitStatus(t, m, j.ID, 15*time.Second)
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestManagerDrainInterruptsAndResumeCompletes(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)

	// Reference: the undisturbed digest for the same spec.
	refOpts := testOptions(t)
	refRel := writeTestGraph(t, refOpts.GraphDir)
	if refRel != rel {
		t.Fatal("test graphs must be identical")
	}
	spec := JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 5, Dispatchers: 1}
	refCtx, refCancel := context.WithCancel(context.Background())
	defer refCancel()
	refM, err := NewManager(refCtx, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refJob, err := refM.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitStatus(t, refM, refJob.ID, 15*time.Second)
	if refDone.Status != StatusCompleted {
		t.Fatalf("reference run finished %q", refDone.Status)
	}
	if err := refM.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Disturbed: stall computers so the drain lands mid-run.
	fault.Activate(fault.NewPlan(1, fault.Injection{
		Site: fault.SiteComputerStall, Count: -1, Delay: time.Millisecond,
	}))
	defer fault.Deactivate()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let it start, then drain out from under it.
	deadlineAt := time.Now().Add(10 * time.Second)
	for {
		cur, _ := m.Get(j.ID)
		if cur.Status == StatusRunning {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fault.Deactivate()
	cur, _ := m.Get(j.ID)
	if cur.Status != StatusInterrupted && cur.Status != StatusCompleted {
		t.Fatalf("after drain job is %q, want interrupted (or completed if it won the race)", cur.Status)
	}

	// New generation with -resume-jobs: the journal replays the job and
	// it completes with the undisturbed digest.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	opts2 := opts
	opts2.ResumeJobs = true
	m2, err := NewManager(ctx2, opts2)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m2, j.ID, 15*time.Second)
	if done.Status != StatusCompleted {
		t.Fatalf("resumed job finished %q (%s)", done.Status, done.Error)
	}
	if !done.Replayed {
		t.Fatal("resumed job not marked replayed")
	}
	if done.Result.ValuesDigest != refDone.Result.ValuesDigest {
		t.Fatalf("resumed digest %s != undisturbed %s", done.Result.ValuesDigest, refDone.Result.ValuesDigest)
	}
	if err := m2.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// A restart over a used jobs directory WITHOUT ResumeJobs abandons the
// journaled jobs but must not reuse their IDs: a recycled ID names the
// abandoned job's sealed value file, and a new job with a different
// spec would silently resume the wrong computation from it.
func TestManagerFreshStartSkipsJournaledIDs(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 5, Dispatchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j-000000" {
		t.Fatalf("first job ID %s", j.ID)
	}
	if got := waitStatus(t, m, j.ID, 15*time.Second); got.Status != StatusCompleted {
		t.Fatalf("first job finished %q", got.Status)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second generation, same JobsDir, no ResumeJobs.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	m2, err := NewManager(ctx2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := m2.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if _, ok := m2.Get(j.ID); ok {
		t.Fatal("fresh start rehydrated an abandoned job")
	}
	j2, err := m2.Submit(JobSpec{Graph: rel, Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID == j.ID {
		t.Fatalf("fresh start reused journaled ID %s", j2.ID)
	}
	if j2.ID != "j-000001" {
		t.Fatalf("second-generation job ID %s, want j-000001", j2.ID)
	}
	if got := waitStatus(t, m2, j2.ID, 15*time.Second); got.Status != StatusCompleted {
		t.Fatalf("second-generation job finished %q", got.Status)
	}
}

func asShed(err error, target **shedError) bool {
	if err == nil {
		return false
	}
	se, ok := err.(*shedError)
	if ok {
		*target = se
	}
	return ok
}

// waitStatus polls until the job reaches a terminal status.
// TestJournalShortWriteRefusesButKeepsPriorRecords pins the journal
// under a torn write: the failing append surfaces typed, and replay
// still reads every previously acknowledged record — the short write's
// partial line is a tolerated torn tail, never silent corruption.
func TestJournalShortWriteRefusesButKeepsPriorRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{Graph: "g.gpsa", Algo: "cc"}
	if err := j.append(journalRecord{ID: "j-000000", Event: "submitted", Spec: spec}); err != nil {
		t.Fatal(err)
	}

	fault.Activate(fault.NewPlan(1, fault.Injection{Site: fault.SiteDiskShortWrite}))
	defer fault.Deactivate()
	err = j.append(journalRecord{ID: "j-000001", Event: "submitted", Spec: spec})
	if err == nil {
		t.Fatal("short-written append acknowledged")
	}
	if !errors.Is(err, diskio.ErrIOFailure) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append error not typed: %v", err)
	}
	fault.Deactivate()
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	order, states, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay over torn tail: %v", err)
	}
	if len(order) != 1 || order[0] != "j-000000" {
		t.Fatalf("replayed %v, want exactly the acknowledged job", order)
	}
	if st := states["j-000000"]; st.Event != "submitted" || st.Spec.Algo != "cc" {
		t.Fatalf("prior record damaged: %+v", st)
	}
}

// TestJournalReplayEIOTyped pins replay under a failing disk: the read
// error surfaces typed (startup refuses rather than resuming from a
// journal it could not read), and the same journal replays fine once
// the disk heals.
func TestJournalReplayEIOTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{ID: "j-000000", Event: "submitted", Spec: &JobSpec{Graph: "g", Algo: "cc"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	fault.Activate(fault.NewPlan(1, fault.Injection{Site: fault.SiteDiskEIORead}))
	defer fault.Deactivate()
	if _, _, err := replayJournal(path); !errors.Is(err, diskio.ErrIOFailure) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("replay on failing disk = %v, want typed i/o failure", err)
	}
	fault.Deactivate()

	order, _, err := replayJournal(path)
	if err != nil || len(order) != 1 {
		t.Fatalf("replay after heal: %v %v", order, err)
	}
}

// TestManagerDiskDegradedAndRecovers pins the degraded-mode state
// machine: a journal write failing at the disk flips the manager
// read-only (typed 503 refusal, gauge set), later submissions are
// refused without touching the disk, and the recovery probe restores
// admissions once writes succeed again.
func TestManagerDiskDegradedAndRecovers(t *testing.T) {
	metrics.ResetGauges()
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	opts.ProbeInterval = 10 * time.Millisecond
	opts.DiskRetries = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	// Every disk write fails until the plan is deactivated.
	fault.Activate(fault.NewPlan(1, fault.Injection{
		Site: fault.SiteDiskEIOWrite, Count: -1,
	}))
	defer fault.Deactivate()

	spec := JobSpec{Graph: rel, Algo: "cc", Dispatchers: 1}
	if _, err := m.Submit(spec); !errors.Is(err, errDiskDegraded) {
		t.Fatalf("submit on failing disk = %v, want errDiskDegraded", err)
	}
	if !m.Degraded() {
		t.Fatal("manager not degraded after journal disk failure")
	}
	if v := metrics.GaugeValue(metrics.GaugeServeDiskDegraded); v != 1 {
		t.Fatalf("serve.disk.degraded = %d, want 1", v)
	}
	// Degraded refusals are immediate and typed; nothing touches the disk.
	if _, err := m.Submit(spec); !errors.Is(err, errDiskDegraded) {
		t.Fatalf("submit while degraded = %v, want errDiskDegraded", err)
	}

	fault.Deactivate()
	deadline := time.Now().Add(5 * time.Second)
	for m.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("probe never restored admissions after the disk healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := metrics.GaugeValue(metrics.GaugeServeDiskDegraded); v != 0 {
		t.Fatalf("serve.disk.degraded = %d after recovery, want 0", v)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	done := waitStatus(t, m, j.ID, 10*time.Second)
	if done.Status != StatusCompleted {
		t.Fatalf("post-recovery job finished %q (%s), want completed", done.Status, done.Error)
	}
}

// TestManagerFreeSpacePreflightDegrades pins the admission gate: a
// free-space probe below MinFreeBytes refuses the job with the typed
// degraded error before anything is journaled, and counts disk.enospc.
func TestManagerFreeSpacePreflightDegrades(t *testing.T) {
	metrics.ResetCounters()
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	opts.MinFreeBytes = 1 // any nonzero: the fault makes the probe read 0
	opts.ProbeInterval = 10 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	fault.Activate(fault.NewPlan(1, fault.Injection{
		Site: fault.SiteDiskENOSPCPreflight, Count: -1,
	}))
	defer fault.Deactivate()

	spec := JobSpec{Graph: rel, Algo: "cc", Dispatchers: 1}
	if _, err := m.Submit(spec); !errors.Is(err, errDiskDegraded) {
		t.Fatalf("submit with no free space = %v, want errDiskDegraded", err)
	}
	if metrics.Counter(metrics.CtrDiskENOSPC) == 0 {
		t.Fatal("disk.enospc not counted by the preflight refusal")
	}

	fault.Deactivate()
	deadline := time.Now().Add(5 * time.Second)
	for m.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("probe never restored admissions after space freed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	waitStatus(t, m, j.ID, 10*time.Second)
}

// TestManagerScrubNow pins the serving-tier scrub pass: resident graphs
// and sealed job value files are verified, and a healthy set is clean.
func TestManagerScrubNow(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	opts.ScrubInterval = time.Hour // actor idle; drive passes by hand
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	j, err := m.Submit(JobSpec{Graph: rel, Algo: "cc", Dispatchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m, j.ID, 10*time.Second)
	if done.Status != StatusCompleted {
		t.Fatalf("job finished %q (%s)", done.Status, done.Error)
	}
	rep := m.ScrubNow()
	if !rep.Clean() {
		t.Fatalf("healthy serving tier not clean: %+v", rep)
	}
	// Graph CSR + the completed job's sealed value file.
	if rep.Scrubbed != 2 {
		t.Fatalf("scrubbed %d artifacts, want 2 (resident graph + sealed values)", rep.Scrubbed)
	}
}

func waitStatus(t *testing.T, m *Manager, id string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch j.Status {
		case StatusCompleted, StatusFailed, StatusDeadline, StatusInterrupted:
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q after %v", id, j.Status, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A job that leaves its pool at 0 shares the host with Workers-1
// others, so it runs at DefaultPool of its share of the cores: its
// values equal an explicit job at that pool bit for bit (the two specs
// differ in the cache key, so both run).
func TestZeroPoolTakesWorkersShare(t *testing.T) {
	opts := testOptions(t)
	rel := writeTestGraph(t, opts.GraphDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := NewManager(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(spec JobSpec) string {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitStatus(t, m, j.ID, 10*time.Second)
		if done.Status != StatusCompleted || done.Result == nil {
			t.Fatalf("%+v finished %q (%s), want completed", spec, done.Status, done.Error)
		}
		return done.Result.ValuesDigest
	}
	d, c := core.DefaultPool(max(1, runtime.GOMAXPROCS(0)/opts.Workers))
	zero := digest(JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 5})
	if want := digest(JobSpec{Graph: rel, Algo: "pagerank", Supersteps: 5, Dispatchers: d, Computers: c}); zero != want {
		t.Fatalf("zero-pool job digest %s, explicit %dx%d job %s", zero, d, c, want)
	}
}
