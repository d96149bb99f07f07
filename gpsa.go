// Package gpsa is the public API of GPSA-Go, a single-machine graph
// processing system with actors — a reproduction of "GPSA: A Graph
// Processing System with Actors" (ICPP 2015).
//
// The typical flow is:
//
//	g, _ := gpsa.BuildGraph(edges, 0)            // or gpsa.LoadEdgeList
//	_ = gpsa.SaveGraph("web.gpsa", g)            // preprocess to CSR-on-disk
//	ranks, res, _ := gpsa.PageRank("web.gpsa", gpsa.RunOptions{Supersteps: 5})
//
// or, for a custom vertex program (a Program: Init, GenMsg, Compute and
// CombineMsg, which folds two messages for one vertex into one):
//
//	vals, res, err := gpsa.Run("web.gpsa", myProgram, gpsa.RunOptions{})
//	defer vals.Close()
//
// The engine behind this API is documented in internal/core; the storage
// formats in internal/graph and internal/vertexfile.
package gpsa

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/diskio"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// Re-exported fundamental types, so callers need only this package.
type (
	// Edge is a directed, optionally weighted edge.
	Edge = graph.Edge
	// VertexID identifies a vertex (0..|V|-1).
	VertexID = graph.VertexID
	// CSR is an in-memory compressed-sparse-row graph.
	CSR = graph.CSR
	// Program is a user-defined vertex program (see internal/core): Init,
	// GenMsg, Compute and the message combiner CombineMsg.
	Program = core.Program
	// Result summarizes an engine run.
	Result = core.Result
	// StepStats records one superstep's activity.
	StepStats = core.StepStats
)

// BuildGraph constructs an in-memory CSR from an edge list. Pass
// numVertices = 0 to infer the vertex count from the edges.
func BuildGraph(edges []Edge, numVertices int64) (*CSR, error) {
	return graph.FromEdges(edges, numVertices, false)
}

// BuildWeightedGraph is BuildGraph retaining edge weights.
func BuildWeightedGraph(edges []Edge, numVertices int64) (*CSR, error) {
	return graph.FromEdges(edges, numVertices, true)
}

// LoadEdgeList reads a text edge-list file ("src dst [weight]" lines,
// '#' comments — the SNAP format).
func LoadEdgeList(path string) ([]Edge, error) {
	return graph.LoadEdgeListFile(path)
}

// SaveGraph preprocesses g into the on-disk CSR format GPSA streams
// (paper Fig. 4), writing path and path+".idx".
func SaveGraph(path string, g *CSR) error {
	return graph.WriteFile(path, g)
}

// SaveGraphCompact writes g in the compact (varint-delta) CSR format —
// typically 2-4x smaller than SaveGraph on social and web graphs at a
// modest decode cost. Files of either format open identically.
func SaveGraphCompact(path string, g *CSR) error {
	return graph.WriteFileCompact(path, g)
}

// ErrCrashInjected surfaces from a run killed by the fault-injection
// site core.step.crash (simulated process death; see internal/fault).
var ErrCrashInjected = core.ErrCrashInjected

// RunOptions tunes Run and the convenience algorithm runners.
type RunOptions struct {
	// Supersteps caps the run; 0 means run to convergence (up to the
	// engine's default cap of 100). For a resumed run the cap counts
	// from superstep 0 — the total budget, not additional supersteps —
	// so an interrupted fixed-budget run (e.g. PageRank's default 5)
	// finishes with exactly the supersteps the uninterrupted run had.
	Supersteps int

	// Context, when non-nil, cancels the run: between supersteps it
	// stops cleanly, mid-superstep the in-flight superstep is rolled
	// back. Either way a persistent value file is left cleanly sealed
	// and resumable, and the returned error wraps the context's error.
	Context context.Context

	// Resume continues the computation recorded in ValuesPath (which
	// must name an existing value file created with the same program):
	// an interrupted superstep is rolled back — exactly, when the
	// persisted active-set snapshot survived — and the run proceeds
	// from the recorded superstep with the recorded convergence and
	// aggregator state. The Resume function is shorthand for this flag.
	Resume bool
	// Dispatchers and Computers size the actor pools, at most
	// core.MaxWorkers each. 0 takes core.DefaultPool(GOMAXPROCS): a
	// dispatcher per CPU and a computer per two. Every pool is
	// bit-identical run over run; float programs differ in the low bits
	// between dispatcher counts, never between computer counts. The
	// value file records the dispatcher count its computation started
	// at, and a resume runs at that count whatever Dispatchers says, so
	// a resumed run is bit-identical to the uninterrupted one. Message
	// memory is the slab grid, allocated when the engine is built:
	// ≈ Dispatchers × |V| × 8.125 bytes.
	Dispatchers int
	Computers   int
	// ValuesPath, when set, locates the persistent vertex value file —
	// required to use crash recovery across processes. Empty means a
	// temporary file that is removed when Values is closed.
	ValuesPath string
	// StepRetries is how many times a failed superstep (worker panic,
	// watchdog timeout, torn commit) is rolled back and re-executed
	// in-process before the run fails. 0 disables supervised recovery.
	StepRetries int
	// Watchdog bounds how long the engine waits for any single worker
	// notification within a superstep; 0 disables it. Combine with
	// StepRetries to retry supersteps that time out.
	Watchdog time.Duration
	// Progress, when non-nil, receives per-superstep statistics.
	Progress func(StepStats)
	// Prefetch spawns an async CSR prefetch actor per dispatcher: a
	// windowed madvise(WILLNEED) walker ahead of each edge cursor with
	// a DONTNEED trail behind it, overlapping page-in I/O with dispatch
	// on out-of-core graphs. Best-effort; inactive for in-memory graphs.
	Prefetch bool
	// PrefetchWindow is the WILLNEED window size in bytes (0 = engine
	// default, 8 MiB). Only meaningful with Prefetch.
	PrefetchWindow int
}

func (o RunOptions) engineConfig() core.Config {
	return core.Config{
		Dispatchers:      o.Dispatchers,
		Computers:        o.Computers,
		MaxSupersteps:    o.Supersteps,
		MaxStepRetries:   o.StepRetries,
		SuperstepTimeout: o.Watchdog,
		Progress:         o.Progress,
		Prefetch:         o.Prefetch,
		PrefetchWindow:   o.PrefetchWindow,
	}
}

func (o RunOptions) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Values is the vertex value store produced by a run. Close releases (and
// for temporary stores, deletes) the backing file.
type Values struct {
	vf   *vertexfile.File
	temp bool
}

// NumVertices returns the vertex count.
func (v *Values) NumVertices() int64 { return v.vf.NumVertices() }

// Raw returns vertex x's 63-bit payload.
func (v *Values) Raw(x int64) uint64 { return v.vf.Value(x) }

// Float64 decodes vertex x's payload as a non-negative float64 (the
// encoding used by PageRank and SSSP).
func (v *Values) Float64(x int64) float64 { return vertexfile.UnpackFloat64(v.vf.Value(x)) }

// Uint decodes vertex x's payload as an unsigned integer (BFS levels,
// component labels).
func (v *Values) Uint(x int64) uint64 { return v.vf.Value(x) }

// Digest folds every vertex payload into an FNV-1a digest — a cheap
// whole-result equivalence check: bit-identical values imply equal
// digests, which is how the serving layer compares a resumed job's
// outcome against an undisturbed run's.
func (v *Values) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	n := v.vf.NumVertices()
	for i := int64(0); i < n; i++ {
		w := v.vf.Value(i)
		for b := 0; b < 8; b++ {
			h ^= (w >> (8 * b)) & 0xFF
			h *= prime64
		}
	}
	return h
}

// Close releases the store.
func (v *Values) Close() error {
	err := v.vf.Close()
	if v.temp {
		if rmErr := os.Remove(v.vf.Path()); rmErr != nil && err == nil {
			err = rmErr
		}
	}
	return err
}

// Graph is an open, resident on-disk CSR graph: the mmap'd edge file
// stays hot across any number of runs, which is what a long-lived
// serving process wants (open once, run many jobs). The zero value is
// not usable; obtain one with OpenGraph and Close it when done.
type Graph struct {
	gf   *graph.File
	path string
}

// OpenGraph opens the on-disk CSR graph at path for repeated runs.
func OpenGraph(path string) (*Graph, error) {
	gf, err := graph.OpenFile(path, mmap.ModeAuto)
	if err != nil {
		return nil, err
	}
	return &Graph{gf: gf, path: path}, nil
}

// NumVertices returns the graph's vertex count.
func (g *Graph) NumVertices() int64 { return g.gf.NumVertices }

// NumEdges returns the graph's edge count.
func (g *Graph) NumEdges() int64 { return g.gf.NumEdges }

// Path returns the path the graph was opened from.
func (g *Graph) Path() string { return g.path }

// Close releases the graph's mapping. Runs using it must have finished.
func (g *Graph) Close() error { return g.gf.Close() }

// Run executes prog over the on-disk CSR graph at graphPath and returns
// the run summary plus the resulting vertex values. The caller must Close
// the returned Values.
//
// With opts.Resume set, Run continues the computation recorded in
// opts.ValuesPath instead of starting over: an interrupted superstep is
// rolled back (exactly, when the active-set snapshot Begin persisted
// survived the crash) and execution proceeds from the recorded superstep.
// On failure the Result — when non-nil — still carries what ran.
func Run(graphPath string, prog Program, opts RunOptions) (*Values, *Result, error) {
	g, err := OpenGraph(graphPath)
	if err != nil {
		return nil, nil, err
	}
	defer g.Close()
	return RunOn(g, prog, opts)
}

// RunOn is Run over an already-open Graph, which stays open (and hot)
// afterwards: the serving layer keeps graphs resident and multiplexes
// many jobs — fresh runs and resumes alike — over one Graph handle.
func RunOn(g *Graph, prog Program, opts RunOptions) (*Values, *Result, error) {
	gf := g.gf
	var vals *Values
	resumedFrom := int64(-1)
	recovery := ""
	if opts.Resume {
		if opts.ValuesPath == "" {
			return nil, nil, errors.New("gpsa: Resume requires ValuesPath")
		}
		vf, err := vertexfile.Open(opts.ValuesPath)
		if err != nil {
			return nil, nil, err
		}
		step, err := vf.Recover()
		if err != nil {
			vf.Close()
			return nil, nil, err
		}
		resumedFrom, recovery = step, vf.LastRecovery()
		metrics.Inc(metrics.CtrResumes)
		vals = &Values{vf: vf}
	} else {
		vpath := opts.ValuesPath
		temp := vpath == ""
		if temp {
			f, err := diskio.CreateTemp(filepath.Dir(g.path), ".gpsa-values-*")
			if err != nil {
				return nil, nil, fmt.Errorf("gpsa: temp value file: %w", err)
			}
			vpath = f.Name()
			f.Close()
		}
		vf, err := core.CreateValueFile(vpath, gf, prog)
		if err != nil {
			if temp {
				os.Remove(vpath)
			}
			return nil, nil, err
		}
		vals = &Values{vf: vf, temp: temp}
	}

	cfg := opts.engineConfig()
	if opts.Resume {
		// Supersteps is a total budget counted from superstep 0, so a
		// resumed fixed-budget run stops exactly where the uninterrupted
		// run would have. The engine cap is what remains.
		total := opts.Supersteps
		if total <= 0 {
			total = core.DefaultMaxSupersteps
		}
		remaining := total - int(vals.vf.Epoch())
		if remaining <= 0 || vals.vf.Converged() {
			res := &Result{Converged: vals.vf.Converged(), ResumedFrom: resumedFrom, Recovery: recovery}
			return vals, res, nil
		}
		cfg.MaxSupersteps = remaining
	}

	eng, err := core.New(gf, vals.vf, prog, cfg)
	if err != nil {
		vals.Close()
		return nil, nil, err
	}
	res, err := eng.RunContext(opts.ctx())
	if res != nil && opts.Resume {
		res.ResumedFrom = resumedFrom
		res.Recovery = recovery
	}
	if err != nil {
		// Close seals the mapping; for persistent files the state on disk
		// stays resumable (a cancelled superstep was already rolled back,
		// a crashed one is rolled back on the next Open+Recover).
		vals.Close()
		return nil, res, err
	}
	return vals, res, nil
}

// Resume reopens a persistent value file (after a crash or a previous
// partial run), rolls back any interrupted superstep, and continues
// running prog. The program must be the one the file was created with.
// It is shorthand for Run with opts.Resume and opts.ValuesPath set.
func Resume(graphPath, valuesPath string, prog Program, opts RunOptions) (*Values, *Result, error) {
	opts.Resume = true
	opts.ValuesPath = valuesPath
	return Run(graphPath, prog, opts)
}

// ValuesInfo is a cheap description of a value file's recorded
// progress, for tools deciding whether (and how) to resume.
type ValuesInfo struct {
	NumVertices int64
	Epoch       int64   // completed supersteps
	InProgress  bool    // an uncommitted superstep was interrupted
	Converged   bool    // the computation finished
	Aggregate   float64 // aggregator value at the last commit
	Torn        bool    // the header was torn and has been rolled back
}

// InspectValues opens, validates, and summarizes the value file at path
// without running anything (a torn header is rolled back in the process,
// as on any Open). An error means the file is not resumable (missing,
// truncated, corrupt, or digest-mismatched).
func InspectValues(path string) (ValuesInfo, error) {
	vf, err := vertexfile.Open(path)
	if err != nil {
		return ValuesInfo{}, err
	}
	defer vf.Close()
	return ValuesInfo{
		NumVertices: vf.NumVertices(),
		Epoch:       vf.Epoch(),
		InProgress:  vf.InProgress(),
		Converged:   vf.Converged(),
		Aggregate:   vf.Aggregate(),
		Torn:        vf.Torn(),
	}, nil
}

// Resumable reports whether path holds a value file a -resume run could
// continue from.
func Resumable(path string) bool {
	_, err := InspectValues(path)
	return err == nil
}

// RunGraph executes prog over an in-memory graph with no files at all:
// the CSR is mirrored as an in-memory record image and vertex values live
// in an in-memory two-column store (durability and crash recovery
// naturally do not apply). Ideal for embedding GPSA as a library on
// graphs that fit in memory.
func RunGraph(g *CSR, prog Program, opts RunOptions) (*Values, *Result, error) {
	gf, err := graph.NewMemoryFile(g)
	if err != nil {
		return nil, nil, err
	}
	vf, err := vertexfile.NewMemory(g.NumVertices, prog.Init)
	if err != nil {
		return nil, nil, err
	}
	vals := &Values{vf: vf}
	cfg := opts.engineConfig()
	cfg.DisableSync = true // no backing file to sync
	eng, err := core.New(gf, vf, prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := eng.RunContext(opts.ctx())
	if err != nil {
		return nil, res, err
	}
	return vals, res, nil
}
