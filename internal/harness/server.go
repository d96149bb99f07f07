package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Server is one running gpsa-serve subprocess.
type Server struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	stderr bytes.Buffer

	waitOnce sync.Once
	waitErr  error
}

// ServerConfig parameterizes StartServer.
type ServerConfig struct {
	Bin      string
	GraphDir string
	JobsDir  string
	Resume   bool     // pass -resume-jobs
	Fault    string   // GPSA_FAULT spec, "" = none
	Extra    []string // additional flags
}

// StartServer launches gpsa-serve on an ephemeral port and waits until
// it reports its listen address on stderr.
func StartServer(cfg ServerConfig) (*Server, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-graphs", cfg.GraphDir,
		"-jobs", cfg.JobsDir,
		"-v",
	}
	if cfg.Resume {
		args = append(args, "-resume-jobs")
	}
	args = append(args, cfg.Extra...)
	cmd := exec.Command(cfg.Bin, args...)
	cmd.Env = append(os.Environ(), "GPSA_FAULT="+cfg.Fault)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &Server{cmd: cmd}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr.WriteString(line + "\n")
			s.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := strings.Fields(line[i+len("listening on "):])[0]
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()

	select {
	case addr := <-addrCh:
		s.addr = addr
	case <-time.After(15 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
		return nil, fmt.Errorf("harness: server never reported its address; stderr:\n%s", s.StderrText())
	}
	return s, nil
}

// StderrText returns everything the server has written to stderr so far.
func (s *Server) StderrText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

// Kill SIGKILLs the server and reaps it.
func (s *Server) Kill() {
	s.cmd.Process.Kill() //nolint:errcheck
	s.wait()             //nolint:errcheck
}

// Terminate sends SIGTERM (the drain signal) and returns the exit code.
func (s *Server) Terminate() (int, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, err
	}
	err := s.wait()
	if err == nil {
		return 0, nil
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), nil
	}
	return -1, err
}

func (s *Server) wait() error {
	s.waitOnce.Do(func() { s.waitErr = s.cmd.Wait() })
	return s.waitErr
}

// Job mirrors the server's job JSON (the fields scenarios assert on).
type Job struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Error    string         `json:"error"`
	Attempts int            `json:"attempts"`
	Cached   bool           `json:"cached"`
	Replayed bool           `json:"replayed"`
	Values   string         `json:"values"`
	Result   map[string]any `json:"result"`
}

// Submit POSTs a job spec and decodes the response.
func (s *Server) Submit(spec map[string]any) (int, Job, http.Header, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, Job{}, nil, err
	}
	resp, err := http.Post("http://"+s.addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, Job{}, nil, err
	}
	defer resp.Body.Close()
	var j Job
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &j) //nolint:errcheck — error bodies aren't jobs
	return resp.StatusCode, j, resp.Header, nil
}

// GetJob fetches one job's state.
func (s *Server) GetJob(id string) (Job, error) {
	resp, err := http.Get("http://" + s.addr + "/v1/jobs/" + id)
	if err != nil {
		return Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Job{}, fmt.Errorf("harness: GET job %s: %d", id, resp.StatusCode)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return Job{}, err
	}
	return j, nil
}

// ListJobs fetches every job the server knows.
func (s *Server) ListJobs() ([]Job, error) {
	resp, err := http.Get("http://" + s.addr + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var jobs []Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		return nil, err
	}
	return jobs, nil
}

// MetricsSnapshot fetches /metrics as a name -> value map.
func (s *Server) MetricsSnapshot() (map[string]int64, error) {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

// GetStatus fetches a bare endpoint's HTTP status (healthz/readyz).
func (s *Server) GetStatus(path string) (int, error) {
	resp, err := http.Get("http://" + s.addr + path)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode, nil
}
