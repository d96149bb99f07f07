package actor

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestSystemWaitCollectsActors(t *testing.T) {
	s := NewSystem("test", nil)
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		s.SpawnFunc("", func() error {
			n.Add(1)
			return nil
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if n.Load() != 10 {
		t.Fatalf("ran %d actors, want 10", n.Load())
	}
	if s.Live() != 0 {
		t.Fatalf("Live = %d after Wait, want 0", s.Live())
	}
}

func TestSystemReportsActorError(t *testing.T) {
	s := NewSystem("test", nil)
	boom := errors.New("boom")
	ref := s.SpawnFunc("worker", func() error { return boom })
	<-ref.Done()
	if !errors.Is(ref.Err(), boom) {
		t.Fatalf("ref.Err() = %v, want boom", ref.Err())
	}
	err := s.Wait()
	if err == nil || !strings.Contains(err.Error(), "worker") {
		t.Fatalf("Wait = %v, want failure naming worker", err)
	}
}

func TestSystemIsolatesPanics(t *testing.T) {
	s := NewSystem("test", nil)
	healthy := s.SpawnFunc("healthy", func() error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	s.SpawnFunc("crasher", func() error { panic("kaboom") })
	err := s.Wait()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Wait = %v, want panic failure", err)
	}
	if healthy.Err() != nil {
		t.Fatalf("healthy actor reported error %v", healthy.Err())
	}
	fs := s.Failures()
	if len(fs) != 1 || fs[0].Name != "crasher" || len(fs[0].Stack) == 0 {
		t.Fatalf("Failures = %+v, want one crasher failure with stack", fs)
	}
}

func TestSystemErrorsAreNotRestarted(t *testing.T) {
	// An error return is terminal: the actor runs once and its failure
	// is recorded.
	s := NewSystem("test", nil)
	var attempts atomic.Int32
	s.SpawnFunc("erroring", func() error {
		attempts.Add(1)
		return errors.New("done")
	})
	if err := s.Wait(); err == nil {
		t.Fatal("Wait succeeded, want error")
	}
	if attempts.Load() != 1 {
		t.Fatalf("attempts = %d, want 1", attempts.Load())
	}
}

func TestSystemNameCollisionsGetUniqueRefs(t *testing.T) {
	s := NewSystem("test", nil)
	block := make(chan struct{})
	a := s.SpawnFunc("dup", func() error { <-block; return nil })
	b := s.SpawnFunc("dup", func() error { <-block; return nil })
	if a.Name() == b.Name() {
		t.Fatalf("two live actors share name %q", a.Name())
	}
	if s.Live() != 2 {
		t.Fatalf("Live = %d, want 2", s.Live())
	}
	close(block)
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemWaitFirstFailureIsNameOrdered(t *testing.T) {
	// "zz" fails first in wall-clock time, but Wait must surface the
	// name-ordered first failure ("aa") so which error a caller sees does
	// not depend on goroutine scheduling.
	s := NewSystem("test", nil)
	zz := s.SpawnFunc("zz", func() error { return errors.New("late alphabet, early crash") })
	<-zz.Done()
	s.SpawnFunc("aa", func() error { return errors.New("early alphabet") })
	err := s.Wait()
	if err == nil || !strings.Contains(err.Error(), `"aa"`) {
		t.Fatalf("Wait = %v, want the aa failure", err)
	}
	if fs := s.Failures(); len(fs) != 2 || fs[0].Name != "aa" || fs[1].Name != "zz" {
		t.Fatalf("Failures = %+v, want name-ordered [aa zz]", fs)
	}
}

func TestSystemInjectedExecutePanicIsReported(t *testing.T) {
	// The actor.execute.panic site kills the actor before its Execute
	// runs; the failure must still be recorded and reach onFailure, or a
	// supervisor waiting on the actor would wait forever.
	fault.Activate(fault.NewPlan(0, fault.Injection{Site: fault.SiteActorExecute}))
	defer fault.Deactivate()
	var heard []Failure
	s := NewSystem("test", func(f Failure) { heard = append(heard, f) })
	var runs atomic.Int32
	s.SpawnFunc("victim", func() error {
		runs.Add(1)
		return nil
	})
	if err := s.Wait(); err == nil {
		t.Fatal("Wait succeeded for an actor killed before Execute")
	}
	if runs.Load() != 0 {
		t.Fatalf("actor body ran %d times, want 0", runs.Load())
	}
	if len(heard) != 1 || heard[0].Name != "victim" || len(heard[0].Stack) == 0 {
		t.Fatalf("onFailure heard %+v, want one victim panic", heard)
	}
}

func TestSystemReportsEveryFailure(t *testing.T) {
	// onFailure hears an error return and a panic alike, once each, and a
	// clean exit not at all.
	var mu sync.Mutex
	heard := map[string]error{}
	s := NewSystem("test", func(f Failure) {
		mu.Lock()
		heard[f.Name] = f
		mu.Unlock()
	})
	boom := errors.New("boom")
	s.SpawnFunc("errs", func() error { return boom })
	s.SpawnFunc("panics", func() error { panic("kaboom") })
	s.SpawnFunc("clean", func() error { return nil })
	if err := s.Wait(); err == nil {
		t.Fatal("Wait succeeded, want the failures")
	}
	if len(heard) != 2 || !errors.Is(heard["errs"], boom) || !strings.Contains(heard["panics"].Error(), "kaboom") {
		t.Fatalf("onFailure heard %v, want errs (boom) and panics (kaboom)", heard)
	}
}

func TestActorsCommunicateViaMailboxes(t *testing.T) {
	// A miniature dispatcher/computer pair: the shape the GPSA engine uses.
	s := NewSystem("pipe", nil)
	data := NewMailbox[int](4)
	result := NewMailbox[int](1)

	s.SpawnFunc("dispatcher", func() error {
		for i := 1; i <= 100; i++ {
			if err := data.Put(i); err != nil {
				return err
			}
		}
		data.Close()
		return nil
	})
	s.SpawnFunc("computer", func() error {
		sum := 0
		for {
			v, ok := data.Get()
			if !ok {
				break
			}
			sum += v
		}
		return result.Put(sum)
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	got, ok := result.Get()
	if !ok || got != 5050 {
		t.Fatalf("result = (%d, %v), want (5050, true)", got, ok)
	}
}
