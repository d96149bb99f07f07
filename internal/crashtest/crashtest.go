// Package crashtest is GPSA's kill-torture harness: it runs the real
// cmd/gpsa binary as a subprocess, terminates it with SIGKILL at
// randomized supersteps and commit-protocol phases (via the kill.* fault
// sites carried in GPSA_FAULT, plus wall-clock jittered kills that land
// anywhere at all), restarts it with -resume, and asserts the final
// vertex values are bit-identical to an uninterrupted run.
//
// The package holds only the harness plumbing; the torture scenarios
// live in its tests (make torture).
package crashtest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// runResult captures one subprocess run.
type runResult struct {
	stdout, stderr string
	exitCode       int  // -1 when signaled
	killed         bool // terminated by SIGKILL
}

// runBinary executes the gpsa binary with args. faultSpec, when
// non-empty, is exported as GPSA_FAULT. killAfter, when positive, sends
// the process SIGKILL from outside after that wall-clock delay — the
// jitter kills that land between fault sites. interruptAfter likewise
// sends SIGINT (graceful stop).
func runBinary(bin string, args []string, faultSpec string, killAfter, interruptAfter time.Duration) (runResult, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GPSA_FAULT="+faultSpec)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		return runResult{}, err
	}
	if killAfter > 0 {
		timer := time.AfterFunc(killAfter, func() { cmd.Process.Kill() }) //nolint:errcheck
		defer timer.Stop()
	}
	if interruptAfter > 0 {
		timer := time.AfterFunc(interruptAfter, func() { cmd.Process.Signal(syscall.SIGINT) }) //nolint:errcheck
		defer timer.Stop()
	}
	err := cmd.Wait()
	res := runResult{stdout: stdout.String(), stderr: stderr.String()}
	if err == nil {
		return res, nil
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return res, err
	}
	res.exitCode = ee.ExitCode()
	if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
		res.killed = true
	}
	return res, nil
}
