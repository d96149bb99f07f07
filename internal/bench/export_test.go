package bench

import (
	"bytes"
	"strings"
	"testing"
)

func sampleFigure() *FigureResult {
	return &FigureResult{
		Scale: 4,
		Cells: []Cell{
			{System: SysGPSA, Algo: AlgoCC, Seconds: 1.5, PerStep: 0.3, Supersteps: 5, CPUPercent: 80, Runs: 3},
			{System: SysXStream, Algo: AlgoCC, Seconds: 3, PerStep: 0.6, Supersteps: 5, CPUPercent: 99, Runs: 3},
		},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleFigure().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "dataset,scale,algo,system") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "GPSA") || !strings.Contains(lines[2], "X-Stream") {
		t.Fatalf("rows missing systems:\n%s", out)
	}
}
