package actor

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/fault"
)

// Actor is a unit of concurrent execution. Execute typically loops reading
// a mailbox until a termination message arrives, then returns. A non-nil
// error (or a panic, which the system converts to an error) marks the
// actor as failed.
type Actor interface {
	Execute() error
}

// Func adapts an ordinary function to the Actor interface.
type Func func() error

// Execute calls f.
func (f Func) Execute() error { return f() }

// Failure describes an actor that terminated with an error or panic.
type Failure struct {
	Name  string
	Err   error
	Stack []byte // non-nil when the failure was a panic
}

func (f Failure) Error() string {
	return fmt.Sprintf("actor %q failed: %v", f.Name, f.Err)
}

func (f Failure) Unwrap() error { return f.Err }

// Ref is a handle to a spawned actor.
type Ref struct {
	name string
	done chan struct{}

	mu  sync.Mutex
	err error
}

// Name returns the actor's registered name.
func (r *Ref) Name() string { return r.name }

// Done returns a channel closed when the actor has terminated.
func (r *Ref) Done() <-chan struct{} { return r.done }

// Err returns the actor's terminal error, or nil. It must only be trusted
// after Done is closed.
func (r *Ref) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// System owns a set of actors and supervises their execution. It is the
// analogue of a Kilim scheduler instance: spawning is cheap, actors run
// concurrently, and the owner can wait for collective termination and
// inspect failures.
type System struct {
	name      string
	ctx       context.Context
	onFailure func(Failure)

	wg sync.WaitGroup

	mu       sync.Mutex
	refs     map[string]*Ref
	failures []Failure
	seq      int
}

// NewSystem creates an actor system. The name is used in diagnostics
// only. onFailure, when non-nil, hears every failure as it is recorded,
// on the failed actor's goroutine: the one way a supervisor learns that
// an actor died, whether Execute returned an error, panicked, or never
// ran. The system restarts nothing; what a failure costs is the
// supervisor's decision.
func NewSystem(name string, onFailure func(Failure)) *System {
	//lint:ctxblock documented convenience wrapper; cancellable callers use NewSystemContext
	return NewSystemContext(context.Background(), name, onFailure)
}

// NewSystemContext creates an actor system bound to ctx, which actors
// read through Context. The context does not preempt running actors — Go
// cannot forcibly stop a goroutine, and GPSA's workers observe
// cancellation through their mailboxes.
func NewSystemContext(ctx context.Context, name string, onFailure func(Failure)) *System {
	if ctx == nil {
		ctx = context.Background() //lint:ctxblock defensive default for nil ctx; callers who want cancellation pass one
	}
	return &System{name: name, ctx: ctx, onFailure: onFailure, refs: make(map[string]*Ref)}
}

// Context returns the context the system was created with.
func (s *System) Context() context.Context { return s.ctx }

// Spawn starts a concurrently executing actor. If name is empty a unique
// one is generated; if it collides with a live actor's name a suffix is
// appended. Spawn never blocks on the actor itself.
func (s *System) Spawn(name string, a Actor) *Ref {
	s.mu.Lock()
	s.seq++
	if name == "" {
		name = fmt.Sprintf("%s-actor-%d", s.name, s.seq)
	}
	if _, exists := s.refs[name]; exists {
		name = fmt.Sprintf("%s#%d", name, s.seq)
	}
	ref := &Ref{name: name, done: make(chan struct{})}
	s.refs[name] = ref
	s.mu.Unlock()

	s.wg.Add(1)
	go s.run(ref, a)
	return ref
}

// SpawnFunc is shorthand for Spawn(name, Func(fn)).
func (s *System) SpawnFunc(name string, fn func() error) *Ref {
	return s.Spawn(name, Func(fn))
}

func (s *System) run(ref *Ref, a Actor) {
	defer s.wg.Done()
	defer close(ref.done)
	err, stack := execute(a)
	if err == nil {
		return
	}
	ref.mu.Lock()
	ref.err = err
	ref.mu.Unlock()
	f := Failure{Name: ref.name, Err: err, Stack: stack}
	s.mu.Lock()
	s.failures = append(s.failures, f)
	s.mu.Unlock()
	if s.onFailure != nil {
		s.onFailure(f)
	}
}

// execute runs the actor, converting panics — its own, or the injected
// one that kills it before Execute starts — into errors.
func execute(a Actor) (err error, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
			stack = debug.Stack()
		}
	}()
	fault.Panic(fault.SiteActorExecute)
	return a.Execute(), nil
}

// Wait blocks until every actor spawned so far (and any they spawn while
// waiting) has terminated, then returns the name-ordered first failure,
// if any — the same ordering as Failures, so which failure surfaces does
// not depend on goroutine scheduling.
func (s *System) Wait() error {
	//lint:ctxblock the wait is release-bounded by actor termination; workers observe cancellation through their closed mailboxes
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.failures) == 0 {
		return nil
	}
	first := s.failures[0]
	for _, f := range s.failures[1:] {
		if f.Name < first.Name {
			first = f
		}
	}
	return first
}

// Failures returns all recorded failures, ordered by actor name for
// determinism.
func (s *System) Failures() []Failure {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Failure, len(s.failures))
	copy(out, s.failures)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Live returns the number of actors that have been spawned and not yet
// terminated.
func (s *System) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.refs {
		select {
		case <-r.done:
		default:
			n++
		}
	}
	return n
}
