package faults

import (
	"errors"
	"testing"
	"time"
)

// TestDisabledIsNoop: with no schedule armed, injection points never fire.
func TestDisabledIsNoop(t *testing.T) {
	Disable()
	if Active() {
		t.Fatal("Active() true with no schedule")
	}
	for i := 0; i < 100; i++ {
		if err := Inject(PointEngineScan); err != nil {
			t.Fatalf("disabled Inject returned %v", err)
		}
	}
}

// TestErrorInjection: error kind fires deterministically, honoring After and
// MaxFires, and wraps ErrInjected.
func TestErrorInjection(t *testing.T) {
	s := NewSchedule(1, Injection{Point: "p", Kind: KindError, After: 2, MaxFires: 1})
	Enable(s)
	defer Disable()

	for i := 0; i < 2; i++ {
		if err := Inject("p"); err != nil {
			t.Fatalf("hit %d fired before After: %v", i, err)
		}
	}
	err := Inject("p")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("third hit should fire with ErrInjected, got %v", err)
	}
	if err := Inject("p"); err != nil {
		t.Fatalf("MaxFires=1 exceeded: %v", err)
	}
	if ev := s.Events(); len(ev) != 1 || ev[0].Point != "p" {
		t.Fatalf("event log wrong: %+v", s.Events())
	}
}

// TestCustomError: an injection's Err is surfaced through errors.Is.
func TestCustomError(t *testing.T) {
	custom := errors.New("boom")
	Enable(NewSchedule(1, Injection{Point: "p", Kind: KindError, Err: custom}))
	defer Disable()
	if err := Inject("p"); !errors.Is(err, custom) {
		t.Fatalf("want custom error, got %v", err)
	}
}

// TestPanicInjection: panic kind panics with a recognizable message.
func TestPanicInjection(t *testing.T) {
	Enable(NewSchedule(1, Injection{Point: "p", Kind: KindPanic}))
	defer Disable()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected injected panic")
		}
	}()
	_ = Inject("p")
}

// TestHookInjection: hook kind runs the callback and returns nil.
func TestHookInjection(t *testing.T) {
	fired := false
	Enable(NewSchedule(1, Injection{Point: "p", Kind: KindHook, OnTrigger: func() { fired = true }}))
	defer Disable()
	if err := Inject("p"); err != nil {
		t.Fatalf("hook returned error %v", err)
	}
	if !fired {
		t.Fatal("hook did not run")
	}
}

// TestLatencyInjection: latency kind sleeps and returns nil.
func TestLatencyInjection(t *testing.T) {
	Enable(NewSchedule(1, Injection{Point: "p", Kind: KindLatency, Latency: 5 * time.Millisecond}))
	defer Disable()
	start := time.Now()
	if err := Inject("p"); err != nil {
		t.Fatalf("latency returned error %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("latency injection did not sleep")
	}
}

// TestTriggered: boolean corruption points report firing without an error.
func TestTriggered(t *testing.T) {
	Enable(NewSchedule(1, Injection{Point: "p", Kind: KindError, MaxFires: 1}))
	defer Disable()
	if !Triggered("p") {
		t.Fatal("armed point should trigger")
	}
	if Triggered("p") {
		t.Fatal("exhausted point should not trigger")
	}
}

// TestProbabilisticDeterminism: the same seed yields the same firing pattern.
func TestProbabilisticDeterminism(t *testing.T) {
	pattern := func(seed int64) []bool {
		Enable(NewSchedule(seed, Injection{Point: "p", Kind: KindError, Prob: 0.5}))
		defer Disable()
		out := make([]bool, 50)
		for i := range out {
			out[i] = Inject("p") != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("firing pattern diverged at hit %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 50-hit patterns (suspicious)")
	}
}

// TestRandomScheduleDeterminism: RandomSchedule is a pure function of seed.
func TestRandomScheduleDeterminism(t *testing.T) {
	a, b := RandomSchedule(7), RandomSchedule(7)
	if len(a.arms) != len(b.arms) {
		t.Fatalf("schedules differ: %d vs %d armed points", len(a.arms), len(b.arms))
	}
	for p, arms := range a.arms {
		other := b.arms[p]
		if len(arms) != len(other) {
			t.Fatalf("point %s armed differently", p)
		}
		for i := range arms {
			if arms[i].Kind != other[i].Kind || arms[i].Prob != other[i].Prob {
				t.Fatalf("point %s injection %d differs", p, i)
			}
		}
	}
}
