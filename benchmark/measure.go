package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/algorithms"
)

// metricDef is one metric as BENCHMARK.json declares it; the smoke test
// holds the two lists equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.20},
	{"cpu_s", "s", "lower", 0.20},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.20},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runConfig struct {
	W       workload
	Seed    int64
	Seconds float64
	Toy     bool   // 2^10 vertices: the smoke test's scale
	Home    string // the benchmark's own directory; work files go under it
}

func (c runConfig) scale() int {
	if c.Toy {
		return toyScale
	}
	return c.W.Scale
}

// run is one invocation's state: inputs, oracle answers and the tally
// of operations attempted and failed.
type run struct {
	cfg       runConfig
	in        *inputs
	roots     []bfsRoot // bfs: the job's roots; serve: warm-up root then one per job
	wantRanks []uint64  // PageRank oracle payloads
	refS      float64   // the oracle's single-threaded time for one job's work
	attempted int
	failed    int
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", r.cfg.W.Name, fmt.Sprintf(format, args...))
}

// prepare generates the inputs and the oracle's answers. None of it is
// inside a metric; the time is printed as harness information.
func prepare(cfg runConfig) (*run, error) {
	if err := os.MkdirAll(filepath.Join(cfg.Home, ".cache"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.Home, ".cache"), fmt.Sprintf("%s-%d-", cfg.W.Name, cfg.Seed))
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	// The cluster's nodes keep their value files under os.TempDir();
	// point it into the work directory so nothing is written elsewhere.
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	os.Setenv("TMPDIR", tmp)

	r := &run{cfg: cfg}
	if r.in, err = makeInputs(dir, cfg.scale(), cfg.Seed); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	t0 := time.Now()
	switch cfg.W.Kind {
	case kindPR, kindCluster:
		r.wantRanks, _ = algorithms.ReferenceRun(r.in.oracle, algorithms.PageRank{}, supersteps)
		r.refS = time.Since(t0).Seconds()
	case kindBFS:
		rule := cfg.W.Roots
		if cfg.Toy {
			rule = rootRule{} // the rule describes the full-scale graph
		}
		r.roots, err = pickRoots(r.in.oracle, cfg.Seed, bfsRoots, rule, true)
	case kindServe:
		// One root per job the loop can possibly complete, plus the warm-up.
		n := 1 + int(30*cfg.Seconds)
		if cfg.Toy {
			n = 11
		}
		r.roots, err = pickRoots(r.in.oracle, cfg.Seed, n, rootRule{}, false)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if cfg.W.Kind == kindBFS || cfg.W.Kind == kindServe {
		// One job's work for the single-threaded reference: a plain
		// queue BFS from each of the job's roots.
		t1 := time.Now()
		for _, p := range r.programs() {
			algorithms.TrueBFS(r.in.oracle, p.(algorithms.BFS).Root)
		}
		r.refS = time.Since(t1).Seconds()
	}
	fmt.Printf("# %s seed=%d: %d vertices, %d edges, edge list %s; generated in %.2fs, oracle in %.2fs (harness time, in no metric)\n",
		cfg.W.Name, cfg.Seed, r.in.oracle.NumVertices, r.in.oracle.NumEdges, r.in.digest, r.in.genS, time.Since(t0).Seconds())
	return r, nil
}

func (r *run) cleanup() { os.RemoveAll(r.in.dir) }

func (r *run) rootIDs() []int64 {
	ids := make([]int64, len(r.roots))
	for i, b := range r.roots {
		ids[i] = b.Root
	}
	return ids
}

func (r *run) child(phase, out string, seconds float64) childArgs {
	return childArgs{Phase: phase, Workload: r.cfg.W, Dir: r.in.dir, Out: out, Roots: r.rootIDs(), Seconds: seconds}
}

// ingest runs the edge-list -> CSR set-up in a child. A failure is fatal
// to the run: nothing later can be measured without the CSR.
func (r *run) ingest() (report, error) {
	r.attempted++
	rep, err := spawn(r.child("setup", "", 0))
	if err != nil {
		r.failed++
	}
	return rep, err
}

// samples is what the jobs of one run measured.
type samples struct {
	setupS   []float64
	wallS    []float64 // per job
	cpuS     []float64 // per job
	engineS  []float64 // serve: per job, JobResult.DurationMS
	elapsedS float64   // first job started .. last job ended
	reports  []report
}

func (s samples) metrics() map[string]metricValue {
	ms := make([]float64, len(s.wallS))
	for i, w := range s.wallS {
		ms[i] = w * 1e3
	}
	return map[string]metricValue{
		"setup_s":    {median(s.setupS), "s"},
		"run_s":      {median(s.wallS), "s"},
		"cpu_s":      {median(s.cpuS), "s"},
		"job_p90_ms": {percentile(ms, 0.9), "ms"},
		"jobs_per_s": {float64(len(s.wallS)) / s.elapsedS, "1/s"},
	}
}

// moreSetups reports whether another set-up is needed after those timed
// so far (see minSetupReps).
func moreSetups(done []float64) bool {
	return len(done) < minSetupReps || (len(done) < maxSetupReps && sum(done) < setupBudgetS)
}

// measure is the untraced run: set-up several times, then jobs until
// the seconds are used up, then verification outside every timed
// interval.
func (r *run) measure() (samples, error) {
	if r.cfg.W.Kind == kindServe {
		return r.measureServe()
	}
	var s samples
	for moreSetups(s.setupS) {
		rep, err := r.ingest()
		if err != nil {
			return s, err
		}
		s.setupS = append(s.setupS, rep.WallS)
	}
	// One discarded warm-up job: the first job after the set-ups runs up
	// to 40% slower than the rest while the CSR just written settles.
	warm := filepath.Join(r.in.dir, "warm-up.out")
	r.attempted++
	if _, err := spawn(r.child("job", warm, 0)); err != nil {
		r.failed++
		return s, err
	}
	if err := r.verifyJob(warm); err != nil {
		r.fail("warm-up job: %v", err)
	}
	var outs []string
	start := time.Now()
	for len(outs) == 0 || time.Since(start).Seconds() < r.cfg.Seconds {
		out := filepath.Join(r.in.dir, fmt.Sprintf("job-%d.out", len(outs)))
		r.attempted++
		rep, err := spawn(r.child("job", out, 0))
		if err != nil {
			r.fail("%v", err)
			if r.failed > 3 {
				return s, err
			}
			continue
		}
		outs = append(outs, out)
		s.reports = append(s.reports, rep)
		s.wallS = append(s.wallS, rep.WallS)
		s.cpuS = append(s.cpuS, rep.CPUS)
	}
	s.elapsedS = time.Since(start).Seconds()
	for _, out := range outs {
		if err := r.verifyJob(out); err != nil {
			r.fail("%s: %v", filepath.Base(out), err)
		}
	}
	return s, nil
}

// verifyJob checks one batch or cluster job's output against the oracle
// and removes it.
func (r *run) verifyJob(out string) error {
	switch r.cfg.W.Kind {
	case kindPR:
		defer os.Remove(out)
		got, err := readValueFile(out)
		if err != nil {
			return err
		}
		return checkRanks(got, r.wantRanks)
	case kindCluster:
		defer os.Remove(out)
		got, err := readPayloads(out)
		if err != nil {
			return err
		}
		return checkRanks(got, r.wantRanks)
	case kindBFS:
		for i, root := range r.roots {
			got, err := readValueFile(bfsOut(out, i))
			os.Remove(bfsOut(out, i))
			if err != nil {
				return err
			}
			if err := checkLevels(got, root.Levels); err != nil {
				return fmt.Errorf("root %d: %w", root.Root, err)
			}
		}
	}
	return nil
}

// measureServe: the CSR is ingested once (harness work: the server's
// users never see it), the server is set up several times, and the last
// server stays up for the closed loop.
func (r *run) measureServe() (samples, error) {
	var s samples
	if _, err := r.ingest(); err != nil {
		return s, err
	}
	server := func(seconds float64) (report, error) {
		r.attempted++
		rep, err := spawn(r.child("serve", "", seconds))
		if err != nil {
			r.failed++
		}
		s.setupS = append(s.setupS, rep.SetupS)
		return rep, err
	}
	// The loop's own server is the sample's last set-up; its time is not
	// known yet and counts as 0 s here.
	for moreSetups(append(s.setupS, 0)) {
		if _, err := server(0); err != nil {
			return s, err
		}
	}
	rep, err := server(r.cfg.Seconds)
	if err != nil {
		return s, err
	}
	s.reports = []report{rep}
	s.elapsedS = rep.WallS
	r.tallyServeJobs(rep.Jobs, &s)
	if len(s.wallS) == 0 {
		return s, fmt.Errorf("serve: no job completed")
	}
	// One process served every job, so CPU is the loop's total shared out.
	for range s.wallS {
		s.cpuS = append(s.cpuS, rep.CPUS/float64(len(s.wallS)))
	}
	return s, nil
}

// tallyServeJobs counts every job as attempted, checks each digest
// against the oracle's, and keeps the latencies of the good ones.
func (r *run) tallyServeJobs(jobs []jobSample, s *samples) {
	want := make(map[int64]string, len(r.roots))
	for _, b := range r.roots {
		want[b.Root] = b.Digest
	}
	for _, j := range jobs {
		r.attempted++
		switch {
		case !j.ok():
			r.fail("job root %d: POST %d, status %q, %s", j.Root, j.Code, j.Status, j.Err)
		case j.Digest != want[j.Root]:
			r.fail("job root %d: values_digest %s, oracle %s", j.Root, j.Digest, want[j.Root])
		default:
			s.wallS = append(s.wallS, j.LatencyMS/1e3)
			s.engineS = append(s.engineS, j.EngineMS/1e3)
		}
	}
}
