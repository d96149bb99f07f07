package gpsa_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

// sampleGraphFile writes the paper's Fig. 4 example graph to a temp CSR
// file and returns its path.
func sampleGraphFile() string {
	edges := []gpsa.Edge{
		{Src: 0, Dst: 2}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 0},
		{Src: 2, Dst: 1}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 1},
	}
	g, err := gpsa.BuildGraph(edges, 0)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "gpsa-example-*")
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "example.gpsa")
	if err := gpsa.SaveGraph(path, g); err != nil {
		log.Fatal(err)
	}
	return path
}

func ExampleBFS() {
	path := sampleGraphFile()
	defer os.RemoveAll(filepath.Dir(path))

	levels, _, err := gpsa.BFS(path, 0, gpsa.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for v, l := range levels {
		fmt.Printf("vertex %d: level %d\n", v, l)
	}
	// Output:
	// vertex 0: level 0
	// vertex 1: level 2
	// vertex 2: level 1
	// vertex 3: level 1
}

func ExampleComponents() {
	path := sampleGraphFile()
	defer os.RemoveAll(filepath.Dir(path))

	labels, _, err := gpsa.Components(path, gpsa.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(labels)
	// Output:
	// [0 0 0 0]
}

func ExamplePageRank() {
	path := sampleGraphFile()
	defer os.RemoveAll(filepath.Dir(path))

	ranks, res, err := gpsa.PageRank(path, gpsa.RunOptions{Supersteps: 30})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("supersteps: %d\n", res.Supersteps)
	for v, r := range ranks {
		fmt.Printf("vertex %d: %.1f\n", v, r)
	}
	// Output:
	// supersteps: 30
	// vertex 0: 1.2
	// vertex 1: 1.2
	// vertex 2: 0.7
	// vertex 3: 0.9
}

// minLevel is a custom vertex program: the paper's three functions plus
// a message combiner.
type minLevel struct{ root gpsa.VertexID }

func (p minLevel) Init(v int64) (uint64, bool) {
	if v == int64(p.root) {
		return 0, true
	}
	return 1 << 62, false
}

func (p minLevel) GenMsg(src int64, payload uint64, outDegree uint32, dst gpsa.VertexID, weight float32) (uint64, bool) {
	return payload + 1, true
}

func (p minLevel) Compute(dst int64, cur, msg uint64, first bool) (uint64, bool) {
	if msg < cur {
		return msg, true
	}
	return cur, false
}

// CombineMsg folds two level offers for one vertex: Compute keeps the
// smaller, so the smaller one is all it needs to see.
func (p minLevel) CombineMsg(a, b uint64) uint64 { return min(a, b) }

func ExampleRun() {
	path := sampleGraphFile()
	defer os.RemoveAll(filepath.Dir(path))

	vals, res, err := gpsa.Run(path, minLevel{root: 2}, gpsa.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer vals.Close()
	fmt.Printf("converged: %v\n", res.Converged)
	fmt.Printf("vertex 1: %d hops from 2\n", vals.Uint(1))
	// Output:
	// converged: true
	// vertex 1: 1 hops from 2
}
