package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// jobSample is one HTTP job as its client saw it.
type jobSample struct {
	Root      int64   `json:"root"`
	Code      int     `json:"code"`   // status of the POST
	Status    string  `json:"status"` // terminal job status
	Digest    string  `json:"digest"`
	SubmitMS  float64 `json:"submit_ms"`  // POST sent -> response read
	LatencyMS float64 `json:"latency_ms"` // POST sent -> GET first reports a terminal status
	EngineMS  float64 `json:"engine_ms"`  // JobResult.DurationMS
	Err       string  `json:"err,omitempty"`
}

func (j jobSample) ok() bool {
	return j.Code == http.StatusAccepted && j.Status == serve.StatusCompleted
}

const (
	pollEvery  = 2 * time.Millisecond
	jobTimeout = 30 * time.Second
)

// serveClients is the closed loop's client count: callers that each
// wait for their result before sending the next job.
func serveClients() int { return min(runtime.NumCPU(), 4) }

type serveClient struct {
	base string
	http *http.Client
	rec  *recorder
}

// do submits one BFS job and polls it to a terminal status. With a
// recorder, the job is one root span with the POST and the wait under
// it, and the engine's own reported duration under the wait.
func (c *serveClient) do(root int64) jobSample {
	s := jobSample{Root: root}
	body := fmt.Sprintf(`{"graph":%q,"algo":"bfs","root":%d}`, csrName, root)
	jobSpan := c.rec.start(0, "job")
	defer c.rec.end(jobSpan)

	t0 := time.Now()
	sub := c.rec.start(jobSpan, "serve.submit")
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		c.rec.end(sub)
		s.Err = err.Error()
		return s
	}
	var job serve.Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	c.rec.end(sub)
	s.Code = resp.StatusCode
	s.SubmitMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil || resp.StatusCode != http.StatusAccepted {
		s.Err = fmt.Sprintf("submit: status %d, %v", resp.StatusCode, err)
		return s
	}

	wait := c.rec.start(jobSpan, "serve.wait")
	defer c.rec.end(wait)
	waitStart := time.Now()
	for time.Since(t0) < jobTimeout {
		resp, err := c.http.Get(c.base + "/v1/jobs/" + job.ID)
		if err != nil {
			s.Err = err.Error()
			return s
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			s.Err = err.Error()
			return s
		}
		if job.Status != serve.StatusQueued && job.Status != serve.StatusRunning {
			now := time.Now()
			s.Status = job.Status
			s.LatencyMS = float64(now.Sub(t0).Nanoseconds()) / 1e6
			if job.Result != nil {
				s.Digest = job.Result.ValuesDigest
				s.EngineMS = float64(job.Result.DurationMS)
				eng := time.Duration(job.Result.DurationMS) * time.Millisecond
				// Placed at the end of the wait: the engine ran last,
				// after admission and spin-up. Clamped to the wait, since
				// DurationMS is rounded by the server.
				start := now.Add(-eng)
				if start.Before(waitStart) {
					start = waitStart
				}
				c.rec.add(wait, "core.run", start, now)
			}
			return s
		}
		time.Sleep(pollEvery)
	}
	s.Err = "timed out"
	return s
}

func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(jobTimeout)
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("serve: %s/readyz not 200 after %v", base, jobTimeout)
}

// serveRun is the serve workload in one process: set-up (NewServer +
// Start until /readyz is 200 and one warm-up job has completed, so the
// graph is resident and its digest computed), then a closed loop of
// distinct-root BFS jobs for the given seconds. roots[0] is the warm-up
// job; no root is used twice, so every job misses the result cache.
func serveRun(r *report, rec *recorder, dir string, roots []int64, seconds float64) error {
	jobsDir, err := os.MkdirTemp(dir, "jobs-")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	t0 := time.Now()
	srv, err := serve.NewServer(ctx, serve.Options{Addr: "127.0.0.1:0", GraphDir: graphRoot(dir), JobsDir: jobsDir})
	if err != nil {
		return err
	}
	srv.Start()
	hc := &http.Client{Timeout: jobTimeout}
	defer hc.CloseIdleConnections()
	shutdown := func() error {
		sctx, scancel := context.WithTimeout(context.Background(), jobTimeout)
		defer scancel()
		return srv.Shutdown(sctx)
	}
	base := "http://" + srv.Addr()
	if err := waitReady(hc, base); err != nil {
		shutdown()
		return err
	}
	warm := (&serveClient{base: base, http: hc}).do(roots[0])
	r.SetupS = time.Since(t0).Seconds()
	if !warm.ok() {
		shutdown()
		return fmt.Errorf("serve: warm-up job: status %q, %s", warm.Status, warm.Err)
	}

	if seconds > 0 {
		client := &serveClient{base: base, http: hc, rec: rec}
		var next atomic.Int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		m := startMeter()
		for c := 0; c < serveClients(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(m.t0).Seconds() < seconds {
					i := int(next.Add(1))
					if i >= len(roots) {
						return // out of distinct roots: stop early, never reuse one
					}
					s := client.do(roots[i])
					mu.Lock()
					r.Jobs = append(r.Jobs, s)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		m.stop(r)
	}
	if rec != nil {
		serveExtras(r, hc, base, roots[0])
	}
	return shutdown()
}

// serveExtras measures what only the traced run reports: the latency
// of a result-cache hit (the warm-up job's spec, repeated) and how many
// submissions the server admitted and shed, from its own /metrics.
func serveExtras(r *report, hc *http.Client, base string, warmRoot int64) {
	body := fmt.Sprintf(`{"graph":%q,"algo":"bfs","root":%d}`, csrName, warmRoot)
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		resp, err := hc.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK { // 200 is a cache hit, 202 a new job
			r.CacheHitMS = append(r.CacheHitMS, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(text), "\n") {
		name, val, _ := strings.Cut(line, " ")
		n, _ := strconv.ParseInt(val, 10, 64)
		switch name {
		case metrics.CtrServeAdmitted:
			r.Admitted = n
		case metrics.CtrServeShed:
			r.Shed = n
		}
	}
}
