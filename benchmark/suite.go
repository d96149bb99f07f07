package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

type suiteConfig struct {
	Only    string
	Sets    int
	Reps    int
	Seed    int64
	Seconds float64
	Trace   int
	Toy     bool
	Home    string
}

// suite runs every selected workload Reps times per set, each run a
// fresh process with its own seed (Seed, Seed+1, ...), interleaved
// round-robin across workloads so that a noisy minute on a shared host
// costs each workload one sample and not one workload all of them. It
// returns the process's exit code: nonzero when an operation failed or
// two sets of the same code disagree by more than a metric's bound.
func suite(cfg suiteConfig) int {
	var sel []workload
	for _, w := range workloads {
		if cfg.Only == "" || strings.Contains(","+cfg.Only+",", ","+w.Name+",") {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: -only %q selects no workload\n", cfg.Only)
		return 1
	}
	if cfg.Trace == 1 {
		cfg.Sets, cfg.Reps = 1, 1 // the traced run is one repetition per workload
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	// values[set][workload][metric] lists one value per repetition.
	values := make([]map[string]map[string][]float64, cfg.Sets)
	failed := 0
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for rep := 0; rep < cfg.Reps; rep++ {
			for _, w := range sel {
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(cfg.Seed+int64(rep), 10),
					"--seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "--trace", strconv.Itoa(cfg.Trace),
					"-toy="+strconv.FormatBool(cfg.Toy), "-home", cfg.Home)
				cmd.Stderr = os.Stderr
				var stdout bytes.Buffer
				cmd.Stdout = &stdout
				err := cmd.Run()
				if cfg.Trace == 1 {
					os.Stdout.Write(stdout.Bytes())
				}
				var res result
				if err == nil {
					err = json.Unmarshal(lastLine(stdout.Bytes()), &res)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s set %d rep %d: %v\n", w.Name, set+1, rep+1, err)
					failed++
					continue
				}
				failed += res.Failed
				if values[set][w.Name] == nil {
					values[set][w.Name] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], v.Value)
				}
				// Every run made is reported, not only the medians.
				row := fmt.Sprintf("run set=%d rep=%d seed=%d %s failed=%d/%d load1=%s", set+1, rep+1, cfg.Seed+int64(rep), w.Name, res.Failed, res.Attempted, loadAverage())
				for _, name := range sortedKeys(res.Metrics) {
					row += fmt.Sprintf(" %s=%.6g", name, res.Metrics[name].Value)
				}
				fmt.Println(row)
			}
		}
	}
	if cfg.Trace == 1 {
		return exitCode(failed, 0)
	}
	fails := 0
	for _, w := range sel {
		fmt.Printf("\n%s\n", w.Name)
		for _, d := range endToEnd {
			fails += printCell(d, values, w.Name)
		}
	}
	fmt.Printf("\nfailed operations: %d\n", failed)
	return exitCode(failed, fails)
}

func exitCode(failedOps, failedCells int) int {
	if failedOps > 0 || failedCells > 0 {
		return 1
	}
	return 0
}

// printCell prints one metric x workload: per set the median, quartiles
// and n, with the cell "unresolved" when the inter-quartile range
// exceeds the metric's bound; for two sets also the gap between their
// medians in the metric's worse direction and ok / unresolved / FAIL.
func printCell(d metricDef, values []map[string]map[string][]float64, w string) (fails int) {
	var medians []float64
	resolved := true
	line := fmt.Sprintf("  %-11s", d.Name)
	for set := range values {
		xs := values[set][w][d.Name]
		if len(xs) == 0 {
			fmt.Printf("%s no samples: FAIL\n", line)
			return 1
		}
		q1, q3 := quartiles(xs)
		line += fmt.Sprintf("  median %-10.5g q1 %-10.5g q3 %-10.5g n %d spread %.3f", median(xs), q1, q3, len(xs), spread(xs))
		medians = append(medians, median(xs))
		resolved = resolved && spread(xs) <= d.Bound
	}
	status := "ok"
	if len(medians) == 2 {
		gap := (medians[1] - medians[0]) / medians[0]
		if d.Better == "higher" {
			gap = -gap
		}
		line += fmt.Sprintf("  gap %+.3f", gap)
		if gap > d.Bound {
			status, fails = "FAIL", 1
		}
	}
	if !resolved && fails == 0 {
		status = "unresolved"
	}
	fmt.Printf("%s  bound %.2f %s (%s)\n", line, d.Bound, status, d.Unit)
	return fails
}
