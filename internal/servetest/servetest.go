// Package servetest is the serving-layer torture harness: it runs the
// real cmd/gpsa-serve binary as a subprocess, floods it with concurrent
// jobs, SIGKILLs it mid-flight, restarts it with -resume-jobs, and
// asserts every job's final value file is bit-identical to an
// undisturbed run — plus overload (429 shedding), SIGTERM draining, and
// deadline-budget scenarios.
//
// The package holds only the harness plumbing; the scenarios live in
// its tests (make torture; the smoke slice runs in make check).
package servetest

// terminalStatus reports whether a job needs no further processing.
func terminalStatus(status string) bool {
	switch status {
	case "completed", "failed", "deadline_exceeded":
		return true
	}
	return false
}
