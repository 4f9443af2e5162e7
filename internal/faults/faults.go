// Package faults is a deterministic fault-injection harness. Production code
// declares named injection points (Inject / Triggered calls); tests arm them
// with a seeded Schedule describing which points fire, how often, and what
// they do — return an error, add latency, panic, or run a hook. With no
// schedule armed every injection point is a single atomic load, so the
// instrumentation can stay compiled into hot paths permanently.
//
// Schedules are fully deterministic: the same seed and the same sequence of
// Inject calls produce the same firing pattern, which is what makes the chaos
// tests (randomized fault schedules over Train/Query) reproducible.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is what an armed injection does when it fires.
type Kind uint8

const (
	// KindError makes Inject return the injection's error.
	KindError Kind = iota
	// KindLatency makes Inject sleep for the injection's latency.
	KindLatency
	// KindPanic makes Inject panic.
	KindPanic
	// KindHook makes Inject call the injection's OnTrigger function.
	KindHook
)

// String names the kind for logs and test output.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	case KindHook:
		return "hook"
	default:
		return "unknown"
	}
}

// ErrInjected is the base error returned by KindError injections that do not
// carry their own error; callers match it with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Injection arms one injection point.
type Injection struct {
	// Point is the injection-point name this arms (exact match).
	Point string
	// Kind selects the behavior when the injection fires.
	Kind Kind
	// Prob is the per-hit firing probability; values <= 0 or >= 1 mean
	// "always fire".
	Prob float64
	// After skips the first After hits of the point before arming.
	After int
	// MaxFires bounds how many times the injection fires (0 = unlimited).
	MaxFires int
	// Err overrides the returned error for KindError (default ErrInjected).
	Err error
	// Latency is the sleep duration for KindLatency.
	Latency time.Duration
	// OnTrigger is called when a KindHook injection fires.
	OnTrigger func()
}

// armed is an Injection plus its per-schedule firing state.
type armed struct {
	Injection
	hits  int
	fires int
}

// Schedule is a set of armed injections sharing one seeded random source.
type Schedule struct {
	mu   sync.Mutex
	rng  *rand.Rand
	arms map[string][]*armed
	log  []Event
}

// Event records one firing, for post-run assertions and debugging.
type Event struct {
	Point string
	Kind  Kind
	Hit   int // 1-based hit index at the point when it fired
}

// NewSchedule builds a deterministic schedule from seed and injections.
func NewSchedule(seed int64, injections ...Injection) *Schedule {
	s := &Schedule{
		rng:  rand.New(rand.NewSource(seed)),
		arms: make(map[string][]*armed),
	}
	for _, in := range injections {
		s.arms[in.Point] = append(s.arms[in.Point], &armed{Injection: in})
	}
	return s
}

// active is the armed schedule; nil means every injection point is a no-op.
var active atomic.Pointer[Schedule]

// Enable arms s process-wide. Passing nil disables injection.
func Enable(s *Schedule) {
	active.Store(s)
}

// Disable disarms fault injection.
func Disable() { active.Store(nil) }

// Active reports whether a schedule is armed. Hot paths may use it to skip
// building injection-point names.
func Active() bool { return active.Load() != nil }

// Inject is the injection point: production code calls it with a stable
// point name and propagates a non-nil error. With no schedule armed it costs
// one atomic load. KindLatency sleeps and returns nil; KindPanic panics;
// KindHook runs the hook and returns nil.
func Inject(point string) error {
	s := active.Load()
	if s == nil {
		return nil
	}
	return s.hit(point)
}

// Triggered is Inject for boolean corruption points: it reports whether an
// error-kind injection fired, swallowing the error itself. Production code
// uses it where the fault is "corrupt this value" rather than "fail".
func Triggered(point string) bool {
	return Inject(point) != nil
}

// hit advances the point's state and applies the first firing injection.
func (s *Schedule) hit(point string) error {
	s.mu.Lock()
	arms := s.arms[point]
	if len(arms) == 0 {
		s.mu.Unlock()
		return nil
	}
	var fire *armed
	for _, a := range arms {
		a.hits++
		if fire != nil {
			continue
		}
		if a.hits <= a.After {
			continue
		}
		if a.MaxFires > 0 && a.fires >= a.MaxFires {
			continue
		}
		if a.Prob > 0 && a.Prob < 1 && s.rng.Float64() >= a.Prob {
			continue
		}
		a.fires++
		fire = a
	}
	if fire == nil {
		s.mu.Unlock()
		return nil
	}
	s.log = append(s.log, Event{Point: point, Kind: fire.Kind, Hit: fire.hits})
	inj := fire.Injection
	s.mu.Unlock() // release before sleeping, panicking or calling hooks

	switch inj.Kind {
	case KindLatency:
		if inj.Latency > 0 {
			time.Sleep(inj.Latency)
		}
		return nil
	case KindPanic:
		panic(fmt.Sprintf("faults: injected panic at %s", point))
	case KindHook:
		if inj.OnTrigger != nil {
			inj.OnTrigger()
		}
		return nil
	default:
		if inj.Err != nil {
			return fmt.Errorf("faults: %s: %w", point, inj.Err)
		}
		return fmt.Errorf("faults: %s: %w", point, ErrInjected)
	}
}

// Events returns a copy of the firing log.
func (s *Schedule) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.log...)
}

// Canonical injection-point names wired into the system. Chaos tests draw
// from this list; keeping it here documents the available surface.
const (
	PointEngineScan    = "engine/scan"
	PointEngineJoin    = "engine/join"
	PointEngineProject = "engine/project"
	PointPreRelax      = "core/preprocess/relax"
	PointPreEmbed      = "core/preprocess/embed"
	PointPreSelect     = "core/preprocess/select"
	PointPreExecute    = "core/preprocess/execute"
	PointPreSubsample  = "core/preprocess/subsample"
	PointRLUpdate      = "rl/update"
	// Retrain-controller stages (internal/retrain): each fires before the
	// stage runs, so an armed fault fails the retrain attempt while the
	// incumbent system keeps serving untouched.
	PointRetrainClone    = "retrain/clone"
	PointRetrainTrain    = "retrain/train"
	PointRetrainValidate = "retrain/validate"
	PointRetrainSwap     = "retrain/swap"
	// Durability kill points (internal/wal, core.SaveFile): each sits at a
	// write/fsync/rename boundary so the crash matrix can simulate process
	// death exactly where durability guarantees are made. KindError at one of
	// these models "the process died here"; KindPanic models it literally.
	PointWALAppend      = "wal/append"
	PointWALSync        = "wal/fsync"
	PointWALRotate      = "wal/rotate"
	PointWALCheckpoint  = "wal/checkpoint"
	PointSnapshotRename = "core/snapshot/rename"
)

// Points lists every canonical injection point, sorted.
func Points() []string {
	ps := []string{
		PointEngineScan,
		PointEngineJoin,
		PointEngineProject,
		PointPreRelax,
		PointPreEmbed,
		PointPreSelect,
		PointPreExecute,
		PointPreSubsample,
		PointRLUpdate,
		PointRetrainClone,
		PointRetrainTrain,
		PointRetrainValidate,
		PointRetrainSwap,
		PointWALAppend,
		PointWALSync,
		PointWALRotate,
		PointWALCheckpoint,
		PointSnapshotRename,
	}
	sort.Strings(ps)
	return ps
}

// RandomSchedule builds a seed-derived schedule arming a random subset of the
// canonical points with random kinds (error, latency, or panic) and
// probabilities. It is the generator behind the chaos tests: the same seed
// always yields the same schedule.
func RandomSchedule(seed int64) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	var injections []Injection
	for _, point := range Points() {
		if rng.Float64() < 0.55 {
			continue // leave this point clean
		}
		in := Injection{
			Point:    point,
			Prob:     0.2 + 0.6*rng.Float64(),
			After:    rng.Intn(3),
			MaxFires: 1 + rng.Intn(3),
		}
		switch r := rng.Float64(); {
		case r < 0.5:
			in.Kind = KindError
		case r < 0.8:
			in.Kind = KindLatency
			in.Latency = time.Duration(rng.Intn(3)) * time.Millisecond
		default:
			in.Kind = KindPanic
		}
		injections = append(injections, in)
	}
	return NewSchedule(seed, injections...)
}
