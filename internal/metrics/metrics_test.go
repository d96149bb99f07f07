package metrics

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestProcessCPUTimeMonotone(t *testing.T) {
	a := ProcessCPUTime()
	burn(20 * time.Millisecond)
	b := ProcessCPUTime()
	if b < a {
		t.Fatalf("CPU time went backwards: %v -> %v", a, b)
	}
	if b == 0 {
		t.Skip("ProcessCPUTime unavailable on this platform")
	}
	if b == a {
		t.Fatal("CPU time did not advance while burning CPU")
	}
}

func TestMeasureCPUDetectsParallelBurn(t *testing.T) {
	if ProcessCPUTime() == 0 {
		t.Skip("ProcessCPUTime unavailable")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	measure := func() CPUSample {
		return MeasureCPU(func() {
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					burn(60 * time.Millisecond)
				}()
			}
			wg.Wait()
		})
	}
	s := measure()
	if s.Wall <= 0 || s.CPU <= 0 {
		t.Fatalf("sample = %+v", s)
	}
	// With `workers` busy goroutines, average busy cores should clearly
	// exceed one (allowing heavy scheduler noise). Another test binary of
	// `go test ./...` can hold a core for a second or so on a 2-CPU host,
	// so the measurement is repeated for up to 3 s before failing.
	for deadline := time.Now().Add(3 * time.Second); workers >= 2 && s.Cores < 1.2 && time.Now().Before(deadline); {
		s = measure()
	}
	if workers >= 2 && s.Cores < 1.2 {
		t.Fatalf("measured %.2f busy cores with %d burners", s.Cores, workers)
	}
	if s.Percent < 0 || s.Percent > 110*float64(s.MaxCores) {
		t.Fatalf("nonsense percent %g", s.Percent)
	}
}

func TestSamplerWindowsAreIndependent(t *testing.T) {
	if ProcessCPUTime() == 0 {
		t.Skip("ProcessCPUTime unavailable")
	}
	s := StartCPUSampler()
	burn(30 * time.Millisecond)
	first := s.Sample()
	// Idle window: CPU consumption should drop well below the burn window.
	time.Sleep(30 * time.Millisecond)
	second := s.Sample()
	if first.CPU == 0 {
		t.Fatal("burn window recorded no CPU")
	}
	if second.CPU > first.CPU {
		t.Fatalf("idle window consumed more CPU (%v) than burn window (%v)", second.CPU, first.CPU)
	}
}

// burn spins for roughly d of CPU time on one core.
func burn(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i
		}
	}
	_ = x
}
