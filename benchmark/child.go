package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	gpsa "repro"
	"repro/internal/algorithms"
	"repro/internal/metrics"
	"repro/internal/preprocess"
)

// Every measured operation runs in a fresh child process (this binary
// re-executed with -child), so arena warm-up, page-in from the warm
// page cache and rusage belong to that operation alone, as they do for
// a user who starts gpsa, gpsa-serve or gpsa-cluster.

// report is what a child prints as its single line of standard output.
type report struct {
	WallS     float64 `json:"wall_s"` // the timed interval, measured inside the child
	CPUS      float64 `json:"cpu_s"`  // user+system CPU over the same interval
	PeakRSSMB float64 `json:"peak_rss_mb"`

	Steps int `json:"steps,omitempty"` // batch and cluster jobs: supersteps run

	// serve
	SetupS float64     `json:"setup_s,omitempty"` // NewServer .. warm-up job completed
	Jobs   []jobSample `json:"jobs,omitempty"`
	// serve, traced run only (see serveExtras)
	CacheHitMS     []float64 `json:"cache_hit_ms,omitempty"`
	Admitted, Shed int64     `json:"-"`
}

// meter times one interval: wall clock and this process's CPU.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
}

func startMeter() meter { return meter{t0: time.Now(), cpu0: metrics.ProcessCPUTime()} }

func (m meter) stop(r *report) {
	r.WallS = time.Since(m.t0).Seconds()
	r.CPUS = (metrics.ProcessCPUTime() - m.cpu0).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// childArgs is the part of the command line a child needs.
type childArgs struct {
	Phase    string // setup | job | serve
	Workload workload
	Dir      string  // the invocation's work directory
	Out      string  // where a job leaves its output for the parent to verify
	Roots    []int64 // BFS roots
	Seconds  float64 // serve: length of the closed loop; 0 = set-up only
}

func runChild(a childArgs) (report, error) {
	csr := csrPath(a.Dir)
	var r report
	var err error
	switch {
	case a.Phase == "setup":
		err = childIngest(&r, edgeListPath(a.Dir), csr, a.Workload.Compact)
	case a.Phase == "serve":
		err = serveRun(&r, nil, a.Dir, a.Roots, a.Seconds)
	case a.Phase == "job" && a.Workload.Kind == kindPR:
		err = childPageRank(&r, csr, a.Out)
	case a.Phase == "job" && a.Workload.Kind == kindBFS:
		err = childBFS(&r, csr, a.Out, a.Roots)
	case a.Phase == "job" && a.Workload.Kind == kindCluster:
		err = childCluster(&r, csr, a.Out)
	default:
		err = fmt.Errorf("no child phase %q for workload %s", a.Phase, a.Workload.Name)
	}
	r.PeakRSSMB = peakRSSMB()
	return r, err
}

// childIngest is the batch and cluster set-up: text edge list on disk to
// a checksummed CSR (.gpsa + .idx + .sum), then one OpenGraph.
func childIngest(r *report, edgeList, csr string, compact bool) error {
	m := startMeter()
	if _, err := preprocess.EdgeListToCSR(edgeList, csr, preprocess.Options{Compact: compact}); err != nil {
		return err
	}
	g, err := gpsa.OpenGraph(csr)
	if err != nil {
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	m.stop(r)
	return nil
}

// childPageRank spans "CSR on disk, nothing open" to "sealed value file
// closed": open graph, create value file, all supersteps, commit, seal,
// close. Pool sizes stay at their defaults and durability stays on.
func childPageRank(r *report, csr, out string) error {
	m := startMeter()
	g, err := gpsa.OpenGraph(csr)
	if err != nil {
		return err
	}
	vals, res, err := gpsa.RunOn(g, algorithms.PageRank{}, gpsa.RunOptions{Supersteps: supersteps, ValuesPath: out})
	if err != nil {
		g.Close()
		return err
	}
	if err := vals.Close(); err != nil {
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	m.stop(r)
	r.Steps = res.Supersteps
	return nil
}

func bfsOut(out string, i int) string { return out + "." + strconv.Itoa(i) }

// childBFS runs BFS from each root back to back over one open graph,
// each into a fresh persistent value file.
func childBFS(r *report, csr, out string, roots []int64) error {
	m := startMeter()
	g, err := gpsa.OpenGraph(csr)
	if err != nil {
		return err
	}
	for i, root := range roots {
		vals, res, err := gpsa.RunOn(g, algorithms.BFS{Root: gpsa.VertexID(root)}, gpsa.RunOptions{ValuesPath: bfsOut(out, i)})
		if err != nil {
			g.Close()
			return err
		}
		if err := vals.Close(); err != nil {
			return err
		}
		r.Steps += res.Supersteps
	}
	if err := g.Close(); err != nil {
		return err
	}
	m.stop(r)
	return nil
}

func clusterOptions() gpsa.ClusterOptions {
	return gpsa.ClusterOptions{Nodes: clusterNodes, Supersteps: supersteps}
}

// childCluster spans gpsa.RunDistributed, node start-up and teardown
// included. The returned payloads are dumped after the timed interval.
func childCluster(r *report, csr, out string) error {
	m := startMeter()
	res, payloads, err := gpsa.RunDistributed(csr, algorithms.PageRank{}, clusterOptions())
	if err != nil {
		return err
	}
	m.stop(r)
	r.Steps = res.Supersteps
	return writePayloads(out, payloads)
}

// spawn runs one child to completion and decodes its report. The child
// inherits standard error, so its diagnostics reach the user.
func spawn(a childArgs) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	roots := make([]string, len(a.Roots))
	for i, r := range a.Roots {
		roots[i] = strconv.FormatInt(r, 10)
	}
	cmd := exec.Command(self,
		"-child", a.Phase, "-workload", a.Workload.Name, "-dir", a.Dir, "-out", a.Out,
		"-roots", strings.Join(roots, ","), "-seconds", strconv.FormatFloat(a.Seconds, 'g', -1, 64))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("child %s %s: %w", a.Workload.Name, a.Phase, err)
	}
	var r report
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &r); err != nil {
		return report{}, fmt.Errorf("child %s %s: bad report: %w", a.Workload.Name, a.Phase, err)
	}
	return r, nil
}

// childEnv marks a re-execution of this binary as a child; the smoke
// test's TestMain hands such a process to main.
const childEnv = "GPSA_BENCHMARK_CHILD"

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func parseRoots(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad root %q", f)
		}
		out = append(out, r)
	}
	return out, nil
}
