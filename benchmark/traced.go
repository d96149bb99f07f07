package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	gpsa "repro"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/preprocess"
)

// perLayer lists the metrics of the traced run, in BENCHMARK.json's
// order. Every workload reports every one of them, so they are the ones
// that mean something for every workload; what only the serving tier or
// the cluster has is printed and written to out/trace.json as "extras".
var perLayer = []metricDef{
	{Name: "preprocess.edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "preprocess.sorted_runs", Unit: "count", Better: "lower"},
	{Name: "graph.open_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.decode_edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "graph.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "graph.bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_ms", Unit: "ms", Better: "lower"},
	{Name: "core.msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.fold_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.overlap_gain", Unit: "ratio", Better: "higher"},
	{Name: "core.sync_tax", Unit: "ratio", Better: "lower"},
	{Name: "core.reconcile_tax", Unit: "ratio", Better: "lower"},
	{Name: "vertexfile.create_ms", Unit: "ms", Better: "lower"},
	{Name: "vertexfile.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "vertexfile.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "vertexfile.commit_nosync_ms", Unit: "ms", Better: "lower"},
	{Name: "vertexfile.bulkapply_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "actor.mailbox_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "diskio.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "diskio.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "diskio.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "job.engine_ms", Unit: "ms", Better: "lower"},
	{Name: "job.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.core.accum.folded", Unit: "count", Better: "higher"},
	{Name: "metrics.core.accum.segments.dense", Unit: "count", Better: "lower"},
	{Name: "metrics.core.accum.segments.sparse", Unit: "count", Better: "lower"},
	{Name: "reference.single_thread_s", Unit: "s", Better: "lower"},
	{Name: "cost_ratio", Unit: "ratio", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "residual_share", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
}

// tracedSeconds caps the untraced baseline and the traced serve loop of
// a traced run, which has probes to fit into the same budget.
const tracedSeconds = 3

func (r *run) programs() []core.Program {
	switch r.cfg.W.Kind {
	case kindBFS:
		progs := make([]core.Program, len(r.roots))
		for i, b := range r.roots {
			progs[i] = algorithms.BFS{Root: uint32(b.Root)}
		}
		return progs
	case kindServe:
		return []core.Program{algorithms.BFS{Root: uint32(r.roots[0].Root)}}
	}
	return []core.Program{algorithms.PageRank{}}
}

func (r *run) maxSteps() int {
	if r.cfg.W.Kind == kindPR || r.cfg.W.Kind == kindCluster {
		return supersteps
	}
	return 0 // to convergence, as gpsa.RunOn does for BFS
}

func counterSnapshot() map[string]int64 {
	out := map[string]int64{}
	for _, nv := range metrics.Dump() {
		out[nv.Name] = nv.Value
	}
	return out
}

// traceFile is what out/trace.json holds.
type traceFile struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	EdgeList    string                 `json:"edge_list_digest"`
	PerLayer    map[string]metricValue `json:"per_layer"`
	Extras      map[string]metricValue `json:"extras"`
	LayerSelfMS map[string]float64     `json:"layer_self_ms"`
	Spans       []span                 `json:"spans"`
}

// tracer carries one traced run's recorder and the rows it fills in.
type tracer struct {
	*run
	rec    *recorder
	out    map[string]metricValue // the declared per-layer metrics
	extras map[string]metricValue // what only one tier has
}

func (t *tracer) put(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			t.out[name] = metricValue{v, d.Unit}
			return
		}
	}
	panic("traced: metric " + name + " is not in perLayer")
}

// traced is the --trace 1 run: the set-up and one job with a span
// around each call into each layer, an untraced baseline to price the
// tracing, then the ablations and the single-layer probes.
func (r *run) traced() (map[string]metricValue, error) {
	t := &tracer{run: r, rec: newRecorder(r.cfg.W.Name), out: map[string]metricValue{}, extras: map[string]metricValue{}}
	if err := t.setup(); err != nil {
		return nil, err
	}
	untraced, err := t.baseline()
	if err != nil {
		return nil, err
	}
	steps, err := t.job(untraced)
	if err != nil {
		return nil, err
	}
	maxSteps, err := t.coreRows(steps)
	if err != nil {
		return nil, err
	}
	if err := t.ablations(maxSteps); err != nil {
		return nil, err
	}
	if err := t.probes(); err != nil {
		return nil, err
	}
	spans := t.rec.snapshot()
	if err := checkNesting(spans); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	tf := traceFile{Workload: r.cfg.W.Name, Seed: r.cfg.Seed, EdgeList: r.in.digest, PerLayer: t.out, Extras: t.extras,
		LayerSelfMS: t.printTrace(spans, untraced), Spans: spans}
	return t.out, writeTrace(filepath.Join(r.cfg.Home, "out"), tf)
}

// setup is the batch set-up, traced in-process.
func (t *tracer) setup() error {
	setup := t.rec.start(0, "setup")
	defer t.rec.end(setup)
	id := t.rec.start(setup, "preprocess.edge_list_to_csr")
	t0 := time.Now()
	st, err := preprocess.EdgeListToCSR(t.in.edgeList, t.in.csrPath, preprocess.Options{Compact: t.cfg.W.Compact})
	took := time.Since(t0).Seconds()
	t.rec.end(id)
	t.attempted++
	if err != nil {
		return err
	}
	t.rec.count(id, "edges", st.NumEdges)
	id = t.rec.start(setup, "graph.open")
	g, err := gpsa.OpenGraph(t.in.csrPath)
	t.rec.end(id)
	if err != nil {
		return err
	}
	t.put("preprocess.edges_per_s", float64(st.NumEdges)/took)
	t.put("preprocess.sorted_runs", float64(st.Runs))
	return g.Close()
}

// baseline measures untraced jobs in fresh children, as the end-to-end
// run does, and returns their median wall time in seconds.
func (t *tracer) baseline() (float64, error) {
	var base samples
	if t.cfg.W.Kind == kindServe {
		t.attempted++
		rep, err := spawn(t.child("serve", "", min(t.cfg.Seconds, tracedSeconds)))
		if err != nil {
			return 0, err
		}
		t.tallyServeJobs(rep.Jobs, &base)
	} else {
		for i := 0; i < 3; i++ {
			job := filepath.Join(t.in.dir, fmt.Sprintf("base-%d.out", i))
			t.attempted++
			rep, err := spawn(t.child("job", job, 0))
			if err != nil {
				return 0, err
			}
			if err := t.verifyJob(job); err != nil {
				t.fail("baseline job: %v", err)
			}
			base.wallS = append(base.wallS, rep.WallS)
		}
	}
	if len(base.wallS) == 0 {
		return 0, fmt.Errorf("traced run: no baseline job completed")
	}
	return median(base.wallS), nil
}

// job runs the traced job(s) and fills in the rows that come from the
// job's own span tree. For the batch workloads it returns the engine's
// step statistics; the other tiers do not run core under a span.
func (t *tracer) job(untraced float64) (steps []core.StepStats, err error) {
	before := counterSnapshot()
	var wallS, engineMS []float64 // per traced job
	switch t.cfg.W.Kind {
	case kindPR, kindBFS:
		job := t.rec.start(0, "job")
		steps, err = localRun(t.rec, job, t.in.csrPath, t.in.dir, t.programs(), t.maxSteps(), nil)
		t.rec.end(job)
		t.attempted++
		if err != nil {
			return nil, err
		}
		spans := t.rec.snapshot()
		wallS = []float64{float64(spans[job-1].dur()) / 1e9}
		engineMS = []float64{sum(durationsMS(spans, "core.step"))}
	case kindCluster:
		if wallS, engineMS, err = t.clusterJob(); err != nil {
			return nil, err
		}
	case kindServe:
		if wallS, engineMS, err = t.serveJobs(); err != nil {
			return nil, err
		}
	}
	after := counterSnapshot()
	for _, name := range []string{metrics.CtrAccumFolded, metrics.CtrAccumDenseSegs, metrics.CtrAccumSparseSegs} {
		t.put("metrics."+name, float64(after[name]-before[name]))
	}
	spans := t.rec.snapshot()
	var residual []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "job" {
			residual = append(residual, residualShare(spans, s.ID))
		}
	}
	t.put("job.engine_ms", median(engineMS))
	t.put("job.overhead_ms", median(wallS)*1e3-median(engineMS))
	t.put("residual_share", mean(residual))
	t.put("trace_overhead", median(wallS)/untraced)
	t.put("reference.single_thread_s", t.refS)
	t.put("cost_ratio", t.refS/untraced)
	return steps, nil
}

func (t *tracer) clusterJob() (wallS, engineMS []float64, err error) {
	lo0, loOK := loopbackBytes()
	job := t.rec.start(0, "job")
	id := t.rec.start(job, "cluster.run_distributed")
	res, payloads, err := gpsa.RunDistributed(t.in.csrPath, algorithms.PageRank{}, clusterOptions())
	t.rec.end(id)
	t.rec.end(job)
	t.attempted++
	if err != nil {
		return nil, nil, err
	}
	lo1, _ := loopbackBytes()
	if err := checkRanks(payloads, t.wantRanks); err != nil {
		t.fail("traced cluster job: %v", err)
	}
	// The cluster API has no progress callback: the steps are laid end
	// to end from the start of the call, which keeps their durations
	// (all the arithmetic uses) and only guesses their position.
	spans := t.rec.snapshot()
	at := t.rec.epoch.Add(time.Duration(spans[id-1].StartNS))
	var stepMS, msgs, delivered float64
	for _, s := range res.Steps {
		sid := t.rec.add(id, "cluster.step", at, at.Add(s.Duration))
		t.rec.count(sid, "messages", s.Messages)
		at = at.Add(s.Duration)
		stepMS += s.Duration.Seconds() * 1e3
		msgs += float64(s.Messages)
		delivered += float64(s.Delivered)
	}
	t.extras["cluster.step_ms"] = metricValue{stepMS / float64(len(res.Steps)), "ms"}
	t.extras["cluster.msgs_per_s"] = metricValue{msgs / (stepMS / 1e3), "1/s"}
	t.extras["cluster.fold_ratio"] = metricValue{delivered / msgs, "ratio"}
	if loOK {
		t.extras["cluster.wire_bytes_per_msg"] = metricValue{float64(lo1-lo0) / delivered, "B"} // approximate: all loopback traffic of the host
	}
	return []float64{float64(spans[job-1].dur()) / 1e9}, []float64{stepMS}, nil
}

func (t *tracer) serveJobs() (wallS, engineMS []float64, err error) {
	var rep report
	// A new server over a new jobs directory has an empty result cache,
	// so the baseline's roots can be used again.
	if err := serveRun(&rep, t.rec, t.in.dir, t.rootIDs(), min(t.cfg.Seconds, tracedSeconds)); err != nil {
		return nil, nil, err
	}
	var tr samples
	t.tallyServeJobs(rep.Jobs, &tr)
	if len(tr.wallS) == 0 || len(rep.CacheHitMS) == 0 {
		return nil, nil, fmt.Errorf("traced run: no serve job or no cache hit completed")
	}
	var submit []float64
	for _, j := range rep.Jobs {
		submit = append(submit, j.SubmitMS)
	}
	for _, e := range tr.engineS {
		engineMS = append(engineMS, e*1e3)
	}
	t.extras["serve.submit_ms"] = metricValue{median(submit), "ms"}
	t.extras["serve.cache_hit_ms"] = metricValue{median(rep.CacheHitMS), "ms"}
	t.extras["serve.shed_share"] = metricValue{float64(rep.Shed) / float64(rep.Shed+rep.Admitted), "ratio"}
	return tr.wallS, engineMS, nil
}

// coreRows fills in the core.*, graph.open and vertexfile.* rows from
// the engine's step statistics and the spans around it, and returns the
// largest superstep count of a program, which caps the ablation runs.
// The serving tier and the cluster do not run core in this process under
// a span; for them one local run of the same program on the same graph
// supplies the rows (and cluster.local_ratio).
func (t *tracer) coreRows(steps []core.StepStats) (maxSteps int, err error) {
	if steps == nil {
		local := t.rec.start(0, "local")
		steps, err = localRun(t.rec, local, t.in.csrPath, t.in.dir, t.programs(), t.maxSteps(), nil)
		t.rec.end(local)
		if err != nil {
			return 0, err
		}
	}
	var stepS, msgs, delivered float64
	for _, s := range steps {
		stepS += s.Duration.Seconds()
		msgs += float64(s.Messages)
		delivered += float64(s.Delivered)
		maxSteps = max(maxSteps, int(s.Step)+1)
	}
	spans := t.rec.snapshot()
	t.put("graph.open_ms", median(durationsMS(spans, "graph.open")))
	t.put("core.new_ms", median(durationsMS(spans, "core.new")))
	t.put("core.step_ms", stepS*1e3/float64(len(steps)))
	t.put("core.msgs_per_s", msgs/stepS)
	t.put("core.fold_ratio", delivered/msgs)
	t.put("vertexfile.create_ms", median(durationsMS(spans, "vertexfile.create")))
	t.put("vertexfile.seal_ms", median(durationsMS(spans, "vertexfile.seal")))
	if c, ok := t.extras["cluster.msgs_per_s"]; ok {
		t.extras["cluster.local_ratio"] = metricValue{(msgs / stepS) / c.Value, "ratio"}
	}
	return maxSteps, nil
}

// ablations repeats the untraced local run with one engine option
// flipped at a time; each row is a ratio with the unflipped run.
func (t *tracer) ablations(maxSteps int) error {
	var secs [4]float64
	for i, mod := range []func(*core.Config){
		nil,
		func(c *core.Config) { c.SequentialPhases = true },
		func(c *core.Config) { c.DisableSync = true },
		func(c *core.Config) { c.DisableReconcile = true },
	} {
		t0 := time.Now()
		if _, err := localRun(nil, 0, t.in.csrPath, t.in.dir, t.programs(), maxSteps, mod); err != nil {
			return err
		}
		secs[i] = time.Since(t0).Seconds()
	}
	t.put("core.overlap_gain", secs[1]/secs[0])
	t.put("core.sync_tax", secs[0]/secs[2])
	t.put("core.reconcile_tax", secs[0]/secs[3])
	return nil
}

// probes drives single layers alone (see probes.go).
func (t *tracer) probes() error {
	csr := t.in.csrPath
	decS, edges, err := probeDecode(csr)
	if err != nil {
		return err
	}
	fi, err := os.Stat(csr)
	if err != nil {
		return err
	}
	t.put("graph.decode_edges_per_s", float64(edges)/decS)
	t.put("graph.decode_mb_per_s", float64(fi.Size())/1e6/decS)
	t.put("graph.bytes_per_edge", float64(fi.Size())/float64(edges))
	vp, err := probeVertexfile(t.in.dir, t.in.oracle.NumVertices)
	if err != nil {
		return err
	}
	t.put("vertexfile.commit_ms", vp.CommitMS)
	t.put("vertexfile.commit_nosync_ms", vp.CommitNoSyncMS)
	t.put("vertexfile.bulkapply_ns_per_update", vp.BulkApplyNS)
	t.put("actor.mailbox_ops_per_s", probeMailbox())
	dp, err := probeDiskio(t.in.dir)
	if err != nil {
		return err
	}
	t.put("diskio.write_mb_per_s", dp.WriteMBPerS)
	t.put("diskio.sync_ms", dp.SyncMS)
	t.put("diskio.overhead_ratio", dp.OverheadRatio)
	t.put("peak_rss_mb", peakRSSMB())
	return nil
}

// printTrace prints each layer's self time in the traced job and the
// share of the job it covers, then the extras.
func (t *tracer) printTrace(spans []span, untraced float64) map[string]float64 {
	layers := map[string]float64{}
	total := 0.0
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "job" {
			for l, ms := range layerSelfMS(spans, s.ID) {
				layers[l] += ms
			}
			total += float64(s.dur()) / 1e6
		}
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Printf("# traced job(s): %.1f ms in total; untraced median %.1f ms per job\n", total, untraced*1e3)
	for _, l := range names {
		fmt.Printf("#   layer %-12s self %10.2f ms  %5.1f%% of the traced job\n", l, layers[l], 100*layers[l]/total)
	}
	fmt.Printf("#   residual_share %.4f (what the outside view cannot attribute), trace_overhead %.4f (traced / untraced)\n",
		t.out["residual_share"].Value, t.out["trace_overhead"].Value)
	for _, k := range sortedKeys(t.extras) {
		fmt.Printf("extra %-40s %16.6g %s\n", k, t.extras[k].Value, t.extras[k].Unit)
	}
	return layers
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), b, 0o644)
}
