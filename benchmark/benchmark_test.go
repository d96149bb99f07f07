package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// The measured phases run in children of this binary; when the test
// binary is re-executed as one, it becomes the benchmark.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSmoke runs all five workloads at toy scale, untraced and traced,
// and holds BENCHMARK.json and the program to the same workloads and
// the same metrics, name by name and unit by unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if j := decl.EndToEnd[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
	}
	for i, d := range perLayer {
		if j := decl.PerLayer[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
	}

	home := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res, err := runWorkload(runConfig{W: w, Seed: 7, Seconds: 0.2, Toy: true, Home: home}, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s: got %+v (present=%v), want unit %s", w.Name, traced, d.Name, v, ok, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, d.Name, v.Value)
				}
			}
		}
	}
}

// TestSpanArithmetic checks self time, residual and the nesting rules
// on a hand-built tree:
//
//	job [0,100]
//	  open [0,10]
//	  run  [20,90]
//	    step [20,50]
//	    step [50,80]
func TestSpanArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "job", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "graph.open", StartNS: 0, EndNS: 10},
		{ID: 3, Parent: 1, Name: "core.run", StartNS: 20, EndNS: 90},
		{ID: 4, Parent: 3, Name: "core.step", StartNS: 20, EndNS: 50},
		{ID: 5, Parent: 3, Name: "core.step", StartNS: 50, EndNS: 80},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 10, 3: 10, 4: 30, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := residualShare(spans, 1); got != 0.2 {
		t.Errorf("residual share = %v, want 0.2", got)
	}
	layers := layerSelfMS(spans, 1)
	for layer, wantNS := range map[string]float64{"graph": 10, "core": 70, "residual": 20} {
		if got := layers[layer] * 1e6; math.Abs(got-wantNS) > 1e-9 {
			t.Errorf("layer %s self = %v ns, want %v", layer, got, wantNS)
		}
	}
	total := 0.0
	for _, ms := range layers {
		total += ms
	}
	if math.Abs(total*1e6-100) > 1e-9 {
		t.Errorf("layers sum to %v ns, want the root's 100", total*1e6)
	}

	overlap := append([]span(nil), spans...)
	overlap[4].StartNS = 40 // second step starts inside the first
	if checkNesting(overlap) == nil {
		t.Error("overlapping siblings not reported")
	}
	escape := append([]span(nil), spans...)
	escape[4].EndNS = 95 // step ends after its parent
	if checkNesting(escape) == nil {
		t.Error("child exceeding its parent not reported")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
