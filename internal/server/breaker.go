package server

import (
	"math/rand"
	"sync"
	"time"
)

// breakerState is the circuit breaker's state machine position.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

// String names the state for logs and the /stats endpoint.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// breaker protects the full-database fallback rung of the degradation ladder.
// When the expensive path fails (deadline or fault) breakerTrips times in a
// row, the breaker opens: queries route around the full database
// and are answered from the approximation set tagged Degraded, instead of
// stacking doomed work on a sick backend. An error of the statement itself
// says nothing about the backend and does not count. After a jittered cooldown the
// breaker goes half-open and lets exactly one probe through; a successful
// probe closes it, a failed probe reopens it with doubled (capped) cooldown.
//
// All methods are safe for concurrent use.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // current open duration (doubles on probe failure)
	baseCool  time.Duration
	maxCool   time.Duration
	failures  int       // consecutive full-DB failures while closed
	until     time.Time // earliest probe time while open
	probing   bool      // a half-open probe is in flight
	rng       *rand.Rand
	now       func() time.Time // injectable clock for tests
}

// The breaker opens after breakerTrips consecutive full-database failures
// and first probes breakerCooldown later. The cooldown doubles per failed
// probe, capped at breakerMaxCooldownFactor initial cooldowns.
const (
	breakerTrips             = 5
	breakerCooldown          = 500 * time.Millisecond
	breakerMaxCooldownFactor = 16
)

func newBreaker(threshold int, cooldown time.Duration, seed int64) *breaker {
	return &breaker{
		state:     breakerClosed,
		threshold: threshold,
		cooldown:  cooldown,
		baseCool:  cooldown,
		maxCool:   breakerMaxCooldownFactor * cooldown,
		rng:       rand.New(rand.NewSource(seed)),
		now:       time.Now,
	}
}

// acquire decides how the next query treats the full-database rung. skipFull
// reports that the rung must be routed around (breaker open, or half-open
// with the probe slot taken); probe reports that this query IS the half-open
// probe and must report its outcome via record with probe=true.
func (b *breaker) acquire() (skipFull, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return false, false
	case breakerOpen:
		if b.now().Before(b.until) {
			return true, false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return false, true
	default: // half-open
		if b.probing {
			return true, false
		}
		b.probing = true
		return false, true
	}
}

// record reports one query's full-database outcome. attempted is false when
// the rung never ran (the approximation set answered first); failed is true
// when the rung tripped a guard or fault. A probe that never attempted the
// full database returns its slot so the next request can probe instead.
func (b *breaker) record(probe, attempted, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if !attempted {
		return
	}
	switch {
	case failed && b.state == breakerHalfOpen && probe:
		// The probe failed: the backend is still sick. Reopen for longer.
		b.cooldown = minDuration(2*b.cooldown, b.maxCool)
		b.open()
	case failed && b.state == breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.cooldown = b.baseCool
			b.open()
		}
	case !failed && b.state == breakerHalfOpen && probe:
		b.failures = 0
		b.state = breakerClosed
	case !failed && b.state == breakerClosed:
		b.failures = 0
	}
	// Failures or successes of straggler queries admitted before the state
	// changed fall through: they carry no information about the current rung.
}

// open transitions to open with a jittered cooldown (±20%), so probes from a
// fleet of servers against one backend do not synchronize.
func (b *breaker) open() {
	jitter := 0.8 + 0.4*b.rng.Float64()
	b.until = b.now().Add(time.Duration(float64(b.cooldown) * jitter))
	b.failures = 0
	b.state = breakerOpen
}

// currentState returns the state for /stats and tests.
func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
