package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// ScalabilityPoint is one actor-count measurement.
type ScalabilityPoint struct {
	Actors     int // dispatchers + computers
	Seconds    float64
	Speedup    float64 // vs. the 2-actor baseline
	CPUPercent float64
}

// ScalabilityOptions configures RunScalability.
type ScalabilityOptions struct {
	Dataset    gen.Dataset
	Scale      int64
	Seed       int64
	Supersteps int   // default 5
	Runs       int   // default 3
	Actors     []int // total actor counts to sweep; default {2, 4, 8, 16, 64, 256, 1024, 2048}
	WorkDir    string
}

// RunScalability measures GPSA's PageRank runtime across actor counts —
// the paper's closing claim is "scalable parallelism with thousands of
// actors", so the sweep extends to 2048 actors (1024 dispatchers + 1024
// computing workers) to demonstrate that the engine stays correct and
// does not collapse under massive actor counts, even where added
// parallelism cannot help.
func RunScalability(opts ScalabilityOptions) ([]ScalabilityPoint, error) {
	if opts.Supersteps <= 0 {
		opts.Supersteps = 5
	}
	if opts.Runs <= 0 {
		opts.Runs = 3
	}
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if len(opts.Actors) == 0 {
		opts.Actors = []int{2, 4, 8, 16, 64, 256, 1024, 2048}
	}
	if opts.WorkDir == "" {
		dir, err := os.MkdirTemp("", "gpsa-scal-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.WorkDir = dir
	}
	g, err := opts.Dataset.Scaled(opts.Scale).Generate(opts.Seed)
	if err != nil {
		return nil, err
	}
	csr := filepath.Join(opts.WorkDir, "scal.gpsa")
	if err := graph.WriteFile(csr, g); err != nil {
		return nil, err
	}

	var out []ScalabilityPoint
	var baseline float64
	for _, actors := range opts.Actors {
		if actors < 2 {
			actors = 2
		}
		var secs, cpu float64
		for r := 0; r < opts.Runs; r++ {
			s, c, err := scalabilityRun(csr, actors, opts, r)
			if err != nil {
				return nil, fmt.Errorf("bench: scalability at %d actors: %w", actors, err)
			}
			secs += s
			cpu += c
		}
		secs /= float64(opts.Runs)
		cpu /= float64(opts.Runs)
		if baseline == 0 {
			baseline = secs
		}
		out = append(out, ScalabilityPoint{
			Actors:     actors,
			Seconds:    secs,
			Speedup:    baseline / secs,
			CPUPercent: cpu,
		})
	}
	return out, nil
}

func scalabilityRun(csr string, actors int, opts ScalabilityOptions, r int) (float64, float64, error) {
	vpath := csr + fmt.Sprintf(".values-%d-%d", actors, r)
	_, sample, _, err := runGPSA(algorithms.PageRank{}, csr, vpath, core.Config{
		Dispatchers:   actors / 2,
		Computers:     actors - actors/2,
		MaxSupersteps: opts.Supersteps,
		DisableSync:   true,
	}, 0)
	return sample.Wall.Seconds(), sample.Percent, err
}

// FormatScalability renders the sweep.
func FormatScalability(pts []ScalabilityPoint) string {
	s := fmt.Sprintf("%8s %10s %10s %8s\n", "Actors", "Seconds", "Speedup", "CPU%")
	for _, p := range pts {
		s += fmt.Sprintf("%8d %10.4f %9.2fx %7.1f%%\n", p.Actors, p.Seconds, p.Speedup, p.CPUPercent)
	}
	return s
}
