// Fault tolerance: the paper's §IV-G lightweight recovery. The vertex
// value file keeps one payload-immutable column per superstep, so a
// computation can stop (or crash) and resume from the last committed
// superstep without checkpoint traffic.
//
// The example demonstrates both recovery paths:
//
//  1. Cross-process: run connected components in two halves against a
//     persistent value file and verify the resumed run finishes with
//     exactly the same labels as an uninterrupted one.
//  2. In-process: arm the fault-injection framework so a computing actor
//     panics mid-superstep AND a commit tears its header, and let the
//     supervised engine roll the superstep back and retry — no resume,
//     no operator, identical labels.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	g, err := gen.SocPokec.Scaled(256).Generate(3)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "gpsa-ft-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "g-sym.gpsa")
	if err := graph.WriteFile(path, g.Symmetrize()); err != nil {
		log.Fatal(err)
	}

	// Uninterrupted baseline.
	want, _, err := gpsa.Components(path, gpsa.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Interrupted run: stop after 2 supersteps, leaving a persistent
	// value file behind (simulating a process that died between
	// supersteps; Resume also rolls back a mid-superstep crash).
	values := filepath.Join(dir, "cc.gpvf")
	vals, res, err := gpsa.Run(path, ccProgram{}, gpsa.RunOptions{
		Supersteps: 2,
		ValuesPath: values,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1: ran %d supersteps, then \"crashed\"\n", res.Supersteps)
	if err := vals.Close(); err != nil {
		log.Fatal(err)
	}

	// Resume from the persisted state and run to convergence.
	vals, res, err = gpsa.Resume(path, values, ccProgram{}, gpsa.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer vals.Close()
	fmt.Printf("phase 2: resumed and ran %d more supersteps (converged=%v)\n",
		res.Supersteps, res.Converged)

	mismatches := 0
	for v := int64(0); v < vals.NumVertices(); v++ {
		if gpsa.VertexID(vals.Uint(v)) != want[v] {
			mismatches++
		}
	}
	if mismatches != 0 {
		log.Fatalf("recovered labels differ from the uninterrupted run at %d vertices", mismatches)
	}
	fmt.Printf("recovered run matches the uninterrupted run on all %d vertices\n", vals.NumVertices())

	// Phase 3: automatic in-process recovery. A computing actor dies on
	// its 200th applied message and the third commit tears its header;
	// with StepRetries set, the engine rolls each failed superstep back
	// to its immutable dispatch column and re-executes it.
	plan := fault.NewPlan(0,
		fault.Injection{Site: fault.SiteComputerMsg, After: 200},
		fault.Injection{Site: fault.SiteCommitTorn, After: 3},
	)
	fault.Activate(plan)
	vals2, res, err := gpsa.Run(path, ccProgram{}, gpsa.RunOptions{StepRetries: 3})
	fault.Deactivate()
	if err != nil {
		log.Fatalf("supervised run did not recover: %v", err)
	}
	defer vals2.Close()
	fmt.Printf("phase 3: injected %d computer panic(s) and %d torn commit(s); engine retried %d superstep(s)\n",
		plan.Fired(fault.SiteComputerMsg), plan.Fired(fault.SiteCommitTorn), res.Retries)
	if res.Retries == 0 {
		log.Fatal("expected at least one supervised retry")
	}
	for v := int64(0); v < vals2.NumVertices(); v++ {
		if gpsa.VertexID(vals2.Uint(v)) != want[v] {
			log.Fatalf("supervised run differs from the uninterrupted run at vertex %d", v)
		}
	}
	fmt.Printf("supervised run matches the uninterrupted run on all %d vertices\n", vals2.NumVertices())
}

// ccProgram is the connected-components vertex program, written out
// against the public Program interface to show a custom program.
type ccProgram struct{}

func (ccProgram) Init(v int64) (uint64, bool) { return uint64(v), true }

func (ccProgram) GenMsg(src int64, payload uint64, outDegree uint32, dst gpsa.VertexID, weight float32) (uint64, bool) {
	return payload, true
}

func (ccProgram) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	if msg < cur {
		return msg, true
	}
	return cur, false
}

// CombineMsg folds two label offers for one vertex into the smaller.
func (ccProgram) CombineMsg(a, b uint64) uint64 { return min(a, b) }
