package fault

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func TestDisabledIsNoop(t *testing.T) {
	Deactivate()
	if Enabled() {
		t.Fatal("Enabled() = true with no plan")
	}
	if f := Hit(SiteComputerMsg); f != nil {
		t.Fatalf("Hit fired with no plan: %v", f)
	}
	if err := Error(SiteMmapSync); err != nil {
		t.Fatalf("Error fired with no plan: %v", err)
	}
	Panic(SiteActorExecute)       // must not panic
	PanicN(SiteDispatcherMsg, 64) // nor this
	Stall(SiteConnStall)          // must not sleep
}

func TestAfterAndCount(t *testing.T) {
	plan := NewPlan(0, Injection{Site: "x", After: 3, Count: 2})
	Activate(plan)
	defer Deactivate()

	var fired []int
	for i := 1; i <= 6; i++ {
		if Hit("x") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired on hits %v, want [3 4]", fired)
	}
	if plan.Hits("x") != 6 || plan.Fired("x") != 2 {
		t.Fatalf("Hits=%d Fired=%d, want 6/2", plan.Hits("x"), plan.Fired("x"))
	}
}

func TestDefaultsFireOnceOnFirstHit(t *testing.T) {
	plan := NewPlan(0, Injection{Site: "y"})
	Activate(plan)
	defer Deactivate()
	if Hit("y") == nil {
		t.Fatal("first hit did not fire")
	}
	if Hit("y") != nil {
		t.Fatal("second hit fired; default Count is 1")
	}
}

func TestNegativeCountFiresForever(t *testing.T) {
	plan := NewPlan(0, Injection{Site: "z", After: 2, Count: -1})
	Activate(plan)
	defer Deactivate()
	n := 0
	for i := 0; i < 10; i++ {
		if Hit("z") != nil {
			n++
		}
	}
	if n != 9 {
		t.Fatalf("fired %d times over 10 hits with After=2 Count=-1, want 9", n)
	}
}

func TestInjectedErrorMatchesSentinel(t *testing.T) {
	Activate(NewPlan(0, Injection{Site: "e"}))
	defer Deactivate()
	err := Error("e")
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("Error = %v, want errors.Is(err, ErrInjected)", err)
	}
}

func TestCustomErrorAndDelay(t *testing.T) {
	boom := errors.New("boom")
	Activate(NewPlan(0, Injection{Site: "c", Err: boom, Delay: time.Millisecond}))
	defer Deactivate()
	f := Hit("c")
	if f == nil || f.Err != boom || f.Delay != time.Millisecond {
		t.Fatalf("Firing = %+v, want Err=boom Delay=1ms", f)
	}
}

func TestPanicValue(t *testing.T) {
	Activate(NewPlan(0, Injection{Site: "p"}))
	defer Deactivate()
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok || pv.Site != "p" {
			t.Fatalf("recovered %v, want PanicValue{Site: p}", r)
		}
	}()
	Panic("p")
	t.Fatal("Panic did not panic")
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		plan := NewPlan(seed, Injection{Site: "r", Count: -1, Prob: 0.5})
		Activate(plan)
		defer Deactivate()
		out := make([]bool, 32)
		for i := range out {
			out[i] = Hit("r") != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("Prob=0.5 fired %d/%d times; expected a mix", fired, len(a))
	}
}

// PanicN(site, n) is n Panic calls that stop at the first panic: twin
// plans with one seed, one consulted through PanicN per span and one
// through a loop of Panic, panic in the same spans at the same hit
// ordinal and end with the same Hits and Fired.
func TestPanicNMatchesPanic(t *testing.T) {
	const site = "s"
	defer Deactivate()
	// span makes n hits through PanicN or n Panic calls and returns the
	// hit ordinal that panicked, 0 if none did.
	span := func(p *Plan, n int, each bool) (at int64) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(PanicValue); !ok {
					panic(r)
				}
				at = p.Hits(site)
			}
		}()
		if !each {
			PanicN(site, n)
			return 0
		}
		for range n {
			Panic(site)
		}
		return 0
	}
	for _, c := range []struct {
		name  string
		in    Injection
		spans []int
	}{
		{"after inside one span", Injection{After: 3}, []int{5, 5}},
		{"after straddling two spans", Injection{After: 4}, []int{3, 3, 3}},
		{"count 2", Injection{After: 2, Count: 2}, []int{3, 3, 3}},
		{"count -1", Injection{After: 2, Count: -1}, []int{1, 3, 3, 0, 2}},
		{"prob 0.5", Injection{Count: -1, Prob: 0.5}, []int{4, 4, 4, 4, 4, 4, 4, 4}},
	} {
		c.in.Site = site
		var at [2][]int64
		var plans [2]*Plan
		for i, each := range []bool{false, true} {
			plans[i] = NewPlan(7, c.in)
			Activate(plans[i])
			for _, n := range c.spans {
				at[i] = append(at[i], span(plans[i], n, each))
			}
			Deactivate()
		}
		if !slices.Equal(at[0], at[1]) {
			t.Errorf("%s: PanicN panicked at hits %v, Panic at %v", c.name, at[0], at[1])
		}
		if h, f := plans[0].Hits(site), plans[0].Fired(site); h != plans[1].Hits(site) || f != plans[1].Fired(site) || f == 0 {
			t.Errorf("%s: PanicN left Hits %d Fired %d, Panic %d and %d; want equal, some fired",
				c.name, h, f, plans[1].Hits(site), plans[1].Fired(site))
		}
	}
}
