package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/diskio"
	"repro/internal/graph"
	"repro/internal/mmap"
	"repro/internal/vertexfile"
)

// Probes drive one layer alone, from outside, on this workload's own
// files and sizes. They feed per-layer metrics only; none is gated.

// localRun is what gpsa.RunOn does, one call per layer, so that a span
// can sit around each: open the CSR, then for every program create the
// value file, build the engine, run it and close (seal) the values.
// A nil recorder makes it an untraced run; mod flips engine options for
// the ablation probes. It returns the engine's own per-step statistics.
func localRun(rec *recorder, parent int, csr, dir string, progs []core.Program, maxSteps int, mod func(*core.Config)) ([]core.StepStats, error) {
	id := rec.start(parent, "graph.open")
	gf, err := graph.OpenFile(csr, mmap.ModeAuto)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	defer gf.Close()
	var steps []core.StepStats
	for i, prog := range progs {
		path := filepath.Join(dir, fmt.Sprintf("local-%d.gpvf", i))
		id = rec.start(parent, "vertexfile.create")
		vf, err := core.CreateValueFile(path, gf, prog)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		runID := 0
		lastEnd := time.Time{}
		cfg := core.Config{MaxSupersteps: maxSteps, Progress: func(s core.StepStats) {
			// The engine reports a step when it has committed; the span
			// is laid back from that moment by the step's own duration,
			// and never before the previous step's end.
			end := time.Now()
			start := end.Add(-s.Duration)
			if start.Before(lastEnd) {
				start = lastEnd
			}
			lastEnd = end
			sid := rec.add(runID, "core.step", start, end)
			rec.count(sid, "messages", s.Messages)
			rec.count(sid, "delivered", s.Delivered)
			steps = append(steps, s)
		}}
		if mod != nil {
			mod(&cfg)
		}
		id = rec.start(parent, "core.new")
		eng, err := core.New(gf, vf, prog, cfg)
		rec.end(id)
		if err != nil {
			vf.Close()
			return nil, err
		}
		runID = rec.start(parent, "core.run")
		lastEnd = time.Now()
		_, err = eng.RunContext(context.Background())
		rec.end(runID)
		id = rec.start(parent, "vertexfile.seal")
		cerr := vf.Close()
		rec.end(id)
		os.Remove(path)
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
	}
	return steps, nil
}

// probeDecode streams every record of the CSR through Cursor.Next and
// DecodeEdge, as a dispatcher does, and returns the best of three
// passes in seconds plus the edge count.
func probeDecode(csr string) (seconds float64, edges int64, err error) {
	gf, err := graph.OpenFile(csr, mmap.ModeAuto)
	if err != nil {
		return 0, 0, err
	}
	defer gf.Close()
	var sink uint32
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		cur := gf.Cursor(gf.WholeInterval())
		edges = 0
		for {
			_, deg, rec, ok := cur.Next()
			if !ok {
				break
			}
			for i := 0; i < int(deg); i++ {
				dst, _ := graph.DecodeEdge(rec, i, gf.Weighted())
				sink += dst
			}
			edges += int64(deg)
		}
		if err := cur.Err(); err != nil {
			return 0, 0, err
		}
		if s := time.Since(t0).Seconds(); pass == 0 || s < seconds {
			seconds = s
		}
	}
	if sink == 1 { // keeps the decode loop observable
		fmt.Fprintln(os.Stderr)
	}
	return seconds, edges, nil
}

type vertexfileProbe struct {
	CreateMS, CommitMS, CommitNoSyncMS, BulkApplyNS float64
}

// probeVertexfile times Create, then two supersteps in which every
// vertex is updated through BulkApply with a full bitmap: the first
// committed durably, the second not.
func probeVertexfile(dir string, n int64) (vertexfileProbe, error) {
	var p vertexfileProbe
	path := filepath.Join(dir, "probe.gpvf")
	defer os.Remove(path)
	t0 := time.Now()
	vf, err := vertexfile.Create(path, n, func(int64) (uint64, bool) { return 1, true })
	if err != nil {
		return p, err
	}
	defer vf.Close()
	p.CreateMS = time.Since(t0).Seconds() * 1e3

	bits := make([]uint64, (n+63)/64)
	for i := range bits {
		bits[i] = ^uint64(0)
	}
	vals := make([]uint64, len(bits)*64)
	add := func(v int64, cur, msg uint64, first bool) (uint64, bool, bool) { return cur + msg + 1, true, false }
	for step, durable := range []bool{true, false} {
		t0 = time.Now()
		if err := vf.Begin(int64(step), durable); err != nil {
			return p, err
		}
		begin := time.Since(t0)
		t0 = time.Now()
		updates := vf.BulkApply(int64(step), 0, 1, bits, vals, add)
		if updates != n {
			return p, fmt.Errorf("vertexfile probe: %d updates, want %d", updates, n)
		}
		p.BulkApplyNS = float64(time.Since(t0).Nanoseconds()) / float64(n)
		t0 = time.Now()
		if err := vf.Commit(int64(step), true, durable); err != nil {
			return p, err
		}
		ms := (begin + time.Since(t0)).Seconds() * 1e3
		if durable {
			p.CommitMS = ms
		} else {
			p.CommitNoSyncMS = ms
		}
	}
	return p, nil
}

// probeMailbox passes a million items from one producer to one consumer
// through a mailbox of the engine's default capacity.
func probeMailbox() float64 {
	const n = 1 << 20
	mb := actor.NewMailbox[int](64)
	t0 := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			mb.Put(i) //nolint:errcheck // the mailbox is closed only after the last Put
		}
		mb.Close()
	}()
	got := 0
	for {
		if _, ok := mb.Get(); !ok {
			break
		}
		got++
	}
	return float64(got) / time.Since(t0).Seconds()
}

type diskioProbe struct {
	WriteMBPerS, SyncMS, OverheadRatio float64
}

// probeDiskio writes 64 x 1 MiB, syncs and closes through diskio and
// through the os package alone, three times each in alternation, and
// compares medians.
func probeDiskio(dir string) (diskioProbe, error) {
	const chunks = 64
	buf := []byte(strings.Repeat("gpsa-bench\n", (1<<20)/11+1))[:1<<20]
	path := filepath.Join(dir, "probe.dat")
	defer os.Remove(path)

	type file interface {
		Write([]byte) (int, error)
		Sync() error
		Close() error
	}
	pass := func(create func() (file, error)) (write, sync, total float64, err error) {
		os.Remove(path) // both sides create the file anew; neither pays for truncating the other's
		t0 := time.Now()
		f, err := create()
		if err != nil {
			return 0, 0, 0, err
		}
		for i := 0; i < chunks; i++ {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return 0, 0, 0, err
			}
		}
		write = time.Since(t0).Seconds()
		t1 := time.Now()
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, 0, 0, err
		}
		sync = time.Since(t1).Seconds()
		if err := f.Close(); err != nil {
			return 0, 0, 0, err
		}
		return write, sync, time.Since(t0).Seconds(), nil
	}
	var dWrite, dSync, dTotal, rTotal []float64
	for i := 0; i < 3; i++ {
		w, s, t, err := pass(func() (file, error) { return diskio.Create(path) })
		if err != nil {
			return diskioProbe{}, err
		}
		dWrite, dSync, dTotal = append(dWrite, w), append(dSync, s), append(dTotal, t)
		if _, _, t, err = pass(func() (file, error) { return os.Create(path) }); err != nil {
			return diskioProbe{}, err
		}
		rTotal = append(rTotal, t)
	}
	return diskioProbe{
		WriteMBPerS:   chunks / median(dWrite),
		SyncMS:        median(dSync) * 1e3,
		OverheadRatio: median(dTotal) / median(rTotal),
	}, nil
}

// loopbackBytes reads the loopback interface's transmitted byte counter
// from /proc/net/dev; ok is false where it cannot be read.
func loopbackBytes() (n int64, ok bool) {
	b, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, found := strings.Cut(strings.TrimSpace(line), ":")
		if !found || name != "lo" {
			continue
		}
		f := strings.Fields(rest)
		if len(f) < 9 {
			return 0, false
		}
		_, err := fmt.Sscan(f[8], &n) // field 9 of the interface row: bytes transmitted
		return n, err == nil
	}
	return 0, false
}
