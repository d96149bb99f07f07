package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/actor"
	"repro/internal/metrics"
)

// Server is the HTTP face of the job tier. It owns a Manager and a
// listener; Start binds the address (so tests can read Addr before any
// request), Serve runs until Shutdown.
type Server struct {
	m    *Manager
	opts Options
	ln   net.Listener
	hs   *http.Server
	sys  *actor.System
}

// NewServer builds the manager and binds the listen address. The ctx
// bounds the server's lifetime the same way it bounds the manager's.
func NewServer(ctx context.Context, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	m, err := NewManager(ctx, opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		drainCtx, cancel := context.WithTimeout(ctx, time.Second)
		m.Drain(drainCtx)
		cancel()
		return nil, fmt.Errorf("serve: listening on %s: %w", opts.Addr, err)
	}
	s := &Server{
		m:    m,
		opts: opts,
		ln:   ln,
		sys:  actor.NewSystemContext(ctx, "serve-http", nil),
	}
	s.hs = &http.Server{Handler: s.routes()}
	return s, nil
}

// Addr returns the bound listen address (useful with Addr ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Manager exposes the job tier (tests submit and inspect through it).
func (s *Server) Manager() *Manager { return s.m }

// Start begins serving requests on the bound listener without blocking.
func (s *Server) Start() {
	s.sys.SpawnFunc("serve-http-listener", func() error {
		if err := s.hs.Serve(s.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	})
}

// Shutdown drains gracefully: admissions stop, in-flight jobs
// checkpoint through the engine's seal path, the journal records every
// non-terminal job, and the HTTP server closes. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.m.Drain(ctx)
	if herr := s.hs.Shutdown(ctx); herr != nil && !errors.Is(herr, context.Canceled) && err == nil {
		err = herr
	}
	if werr := s.sys.Wait(); werr != nil && err == nil {
		err = werr
	}
	return err
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// handleSubmit admits a job (202), answers a cache hit (200), or
// refuses with the documented degradation codes: 400 malformed, 429 +
// Retry-After queue full, 503 + Retry-After breaker quarantine, 503
// draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid job body: " + err.Error()})
		return
	}
	job, err := s.m.Submit(spec)
	if err != nil {
		var shed *shedError
		switch {
		case errors.As(err, &shed):
			secs := int(shed.retryAfter/time.Second) + 1
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			code := http.StatusTooManyRequests
			if errors.Is(err, errBreakerOpen) || errors.Is(err, errDiskDegraded) {
				code = http.StatusServiceUnavailable
			}
			writeJSON(w, code, errorBody{Error: err.Error()})
		case errors.Is(err, errDraining):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		case errors.Is(err, errBadRequest):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
		return
	}
	code := http.StatusAccepted
	if job.Cached {
		code = http.StatusOK
	}
	writeJSON(w, code, job)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Jobs())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 once draining (so load balancers stop
// routing new submissions while in-flight jobs checkpoint) and 503
// while disk-degraded (the server is read-only; route writes elsewhere).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.m.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if s.m.Degraded() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "disk-degraded")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// handleMetrics dumps every counter and gauge as "name value" lines.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, nv := range metrics.Dump() {
		fmt.Fprintf(w, "%s %d\n", nv.Name, nv.Value)
	}
}
