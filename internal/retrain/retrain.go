// Package retrain closes the continuous-learning loop of ASQP-RL: it turns
// the interest-drift signal (Section 4.4, the paper's drift_finetune story)
// into a supervised background retraining pipeline with a validated,
// zero-downtime hot-swap and automatic rollback.
//
// The controller never touches the incumbent system. It sleeps until the
// serving layer reports that a query tipped the drift detector over its
// threshold (Wake), an operator forces a run (/retrainz?force=1), or a
// failure backoff expires; then it:
//
//  1. clones the incumbent through the CRC-framed snapshot path — the clone
//     shares only the immutable database, so serving is never blocked and
//     never shares mutable state with training;
//  2. fine-tunes the clone on the drifted statements under the existing PPO
//     divergence watchdog, bounded by a hard per-attempt deadline;
//  3. runs the validation gate: the candidate must score no worse than the
//     incumbent (within ValidateMargin) on BOTH the drifted statements and a
//     held-back slice of the incumbent's training workload — a candidate
//     that learned the new interest by forgetting the old one is rejected;
//  4. persists the candidate via the atomic SaveFile path, then publishes it
//     with one atomic pointer swap (the serving layer's SetSystem);
//  5. retains the incumbent for a rollback window with one trigger: the
//     shadow auditor keeps its evidence per publish generation, and once the
//     candidate's own worst-shape p95 error exceeds the incumbent's, read
//     just before the swap, by rollbackRegression, the window republishes
//     the retained incumbent — byte-identical, it was never mutated.
//
// Failed attempts (clone/train/validate/swap faults, divergence, deadline,
// gate rejection) discard the candidate and back off with doubling delays
// under a capped attempt budget; the incumbent keeps serving throughout.
// Every stage carries a fault-injection point (faults.PointRetrain*) so chaos
// tests can prove the invariant "the incumbent is never mutated by a retrain
// attempt" under injected failure at any stage.
package retrain

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/faults"
	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/workload"
)

// Config tunes the controller. The zero value (plus Enabled) is usable: New
// fills every unset field but ValidateMargin from DefaultConfig, and a zero
// margin gates at "no worse than the incumbent".
type Config struct {
	// Enabled turns the controller on. Serving layers construct it only when
	// set, so a disabled deployment pays nothing.
	Enabled bool
	// Timeout is the hard wall-clock deadline for one retrain attempt:
	// clone + fine-tune + validate. A deadline overrun discards the
	// candidate — a half-trained set never reaches the gate.
	Timeout time.Duration
	// ValidateMargin is how much worse (in workload score, Equation 1) the
	// candidate may be than the incumbent and still pass the gate, on both
	// the drifted and the held-back workload. Zero means "no worse than the
	// incumbent"; negative values demand the candidate beat the incumbent by
	// that much.
	ValidateMargin float64
	// RollbackWindow is how long the swapped-out incumbent is retained after
	// a successful swap, watching for a quality regression. It is polled
	// every tenth of the window, at least every rollbackCheckFloor.
	RollbackWindow time.Duration
	// Backoff is the initial delay after a failed attempt, doubling up to
	// maxBackoffFactor×Backoff.
	Backoff time.Duration
	// SnapshotPath, when set, receives the candidate via the atomic SaveFile
	// path *before* the swap (and the incumbent again after a rollback), so
	// a crash at any point recovers to a consistent approximation set.
	SnapshotPath string
	// Seed drives holdback sampling.
	Seed int64
}

// DefaultConfig returns the value every unset Config field takes — the one
// place the controller's defaults are written (asqp-serve registers its
// -retrain-* flags over it).
func DefaultConfig() Config {
	return Config{
		Timeout:        5 * time.Minute,
		ValidateMargin: 0.05,
		RollbackWindow: 30 * time.Second,
		Backoff:        5 * time.Second,
		Seed:           1,
	}
}

// The controller's fixed policy. A quarter of the incumbent's training
// workload (at least one query) is held back as the catastrophic-forgetting
// probe. A drift batch gets maxAttempts attempts before it is discarded. The
// failure backoff doubles up to maxBackoffFactor times Config.Backoff. The
// rollback window is polled every tenth of its length, never more often than
// rollbackCheckFloor.
const (
	holdbackFraction   = 0.25
	maxAttempts        = 3
	maxBackoffFactor   = 16
	rollbackCheckFloor = 10 * time.Millisecond
)

func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.Timeout <= 0 {
		c.Timeout = d.Timeout
	}
	if c.RollbackWindow <= 0 {
		c.RollbackWindow = d.RollbackWindow
	}
	if c.Backoff <= 0 {
		c.Backoff = d.Backoff
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// rollbackCheck is the polling cadence inside the rollback window.
func (c Config) rollbackCheck() time.Duration {
	return max(c.RollbackWindow/10, rollbackCheckFloor)
}

// maxBackoff caps the doubling failure backoff.
func (c Config) maxBackoff() time.Duration {
	return maxBackoffFactor * c.Backoff
}

// Event is one retrain lifecycle transition, emitted through Hooks.Journal so
// a durability layer (the WAL) can persist the controller's progress. Names:
// "started" (batch picked up; Queries set), "validated" (gate passed; Attempt
// set), "swapped" (candidate published; Persisted reports whether the
// snapshot on disk already captures it), "rolled_back" (incumbent
// republished), "failed" (one attempt failed; Attempt set), "gave_up"
// (attempt budget exhausted, batch discarded).
type Event struct {
	Name string
	// Queries is the drifted-batch size ("started").
	Queries int
	// Attempt is the per-batch attempt number ("validated"/"failed").
	Attempt int
	// Persisted reports whether SnapshotPath captured the published system
	// ("swapped"/"rolled_back") — the journal consumer checkpoints its log
	// only when true, because only then is the event's state on disk.
	Persisted bool
}

// QualityProbe reports the live generation's worst per-shape p95 relative
// error from the shadow auditor, the number of audits backing it, and
// whether any evidence exists (audit.Auditor.WorstShapeP95). With ok false
// (auditing disabled, or no verdict yet) the rollback window has no signal
// and expires without action.
type QualityProbe func() (worstShapeP95 float64, audits int64, ok bool)

// Hooks connect the controller to the serving layer without importing it.
type Hooks struct {
	// Incumbent returns the live system (nil while none is loaded). The
	// controller only ever reads it and clones it — never mutates it.
	Incumbent func() *core.System
	// Publish atomically replaces the live system (the serving layer's
	// SetSystem). Called once per swap and once per rollback.
	Publish func(*core.System)
	// Quality is the rollback signal (optional; nil means no rollback
	// monitoring — the window still runs so tests and operators see the
	// state, but nothing can trigger). Its evidence must be the live
	// generation's own, retired at every Publish: read just before the swap
	// it is the incumbent's baseline, read in the window the candidate's.
	Quality QualityProbe
	// Journal receives lifecycle events for durable logging (optional). It is
	// called synchronously from the controller goroutine; implementations
	// that need durability (WAL append + fsync) should still be quick, and
	// must never call back into the controller.
	Journal func(Event)
}

// GateScores records one validation-gate evaluation for /retrainz.
type GateScores struct {
	IncumbentDrift    float64 `json:"incumbent_drift"`
	CandidateDrift    float64 `json:"candidate_drift"`
	IncumbentHoldback float64 `json:"incumbent_holdback"`
	CandidateHoldback float64 `json:"candidate_holdback"`
	HoldbackQueries   int     `json:"holdback_queries"`
	Margin            float64 `json:"margin"`
	Passed            bool    `json:"passed"`
}

// Status is the controller's point-in-time view, served on /retrainz and
// embedded in /stats. All counters are lifetime totals.
type Status struct {
	Enabled bool `json:"enabled"`
	// State is the controller state machine position: "idle", "training",
	// "validating", "rollback-window", or "backoff".
	State             string      `json:"state"`
	Attempts          int64       `json:"attempts"`
	Swaps             int64       `json:"swaps"`
	Rollbacks         int64       `json:"rollbacks"`
	Failures          int64       `json:"failures"`
	ValidationRejects int64       `json:"validation_rejects"`
	PendingDrifted    int         `json:"pending_drifted"`
	AttemptsThisBatch int         `json:"attempts_this_batch"`
	BackoffUntil      *time.Time  `json:"backoff_until,omitempty"`
	LastOutcome       string      `json:"last_outcome,omitempty"`
	LastError         string      `json:"last_error,omitempty"`
	LastSwapAt        *time.Time  `json:"last_swap_at,omitempty"`
	LastGate          *GateScores `json:"last_gate,omitempty"`
	BaselineP95       float64     `json:"baseline_p95,omitempty"`
}

// Controller is the background retraining loop. Create with New, Start it,
// and Close it during drain. A nil *Controller is a valid disabled
// controller: Status reports Enabled false, Force errors, Close no-ops.
type Controller struct {
	cfg   Config
	hooks Hooks

	ctx    context.Context // canceled at Close so in-flight training stops
	cancel context.CancelFunc
	force  chan struct{}
	wake   chan struct{}
	stopWg sync.WaitGroup

	mu      sync.Mutex
	st      Status
	pending workload.Workload // drifted batch being retrained, nil when idle
	backoff time.Duration
	until   time.Time // backoff deadline; zero when not backing off
}

// ErrDisabled is returned by Force on a nil (disabled) controller.
var ErrDisabled = errors.New("retrain: disabled")

// New builds a controller. Incumbent and Publish hooks are required; New
// panics without them (a controller that cannot read or publish systems is a
// programming error, not a runtime condition). The loop does not run until
// Start.
func New(cfg Config, hooks Hooks) *Controller {
	if hooks.Incumbent == nil || hooks.Publish == nil {
		panic("retrain: New requires Incumbent and Publish hooks")
	}
	cfg = cfg.normalize()
	c := &Controller{
		cfg:     cfg,
		hooks:   hooks,
		force:   make(chan struct{}, 1),
		wake:    make(chan struct{}, 1),
		backoff: cfg.Backoff,
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.st = Status{Enabled: true, State: "idle"}
	return c
}

// Start launches the background loop. Idempotent-unsafe: call once.
func (c *Controller) Start() {
	if c == nil {
		return
	}
	c.stopWg.Add(1)
	go c.loop()
}

// Close stops the loop and cancels any in-flight retrain attempt (fine-tuning
// stops between RL iterations; a candidate mid-flight is discarded). If the
// controller is inside a rollback window, the swapped-in candidate stays
// published — Close never un-publishes. Nil-safe and idempotent.
func (c *Controller) Close() {
	if c == nil {
		return
	}
	c.cancel()
	c.stopWg.Wait()
}

// Force requests an immediate retrain attempt, bypassing the drift-count
// threshold (any accumulated drifted statement qualifies) and any backoff
// delay. Nil-safe: a disabled controller returns ErrDisabled.
func (c *Controller) Force() error {
	if c == nil {
		return ErrDisabled
	}
	if c.ctx.Err() != nil {
		return errors.New("retrain: controller closed")
	}
	signal(c.force)
	return nil
}

// Wake asks the loop to look at the drift detector now: the serving layer
// calls it when a query's result reports DriftTriggered, and recovery when
// the restored batch already meets the threshold. It never blocks; wakes that
// arrive during an attempt or a backoff coalesce into one look once the loop
// is free. Nil-safe: a disabled controller ignores it.
func (c *Controller) Wake() {
	if c != nil {
		signal(c.wake)
	}
}

// signal queues one wake on ch unless one is already queued.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Status returns a snapshot of the controller state. Nil-safe: a disabled
// controller reports Enabled false.
func (c *Controller) Status() Status {
	if c == nil {
		return Status{State: "disabled"}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.PendingDrifted = len(c.pending)
	if !c.until.IsZero() && time.Now().Before(c.until) {
		u := c.until
		st.BackoffUntil = &u
		st.State = "backoff"
	}
	return st
}

// loop is the controller goroutine: sleep until a Wake (a drift trigger, a
// recovery, the end of a backoff) or a Force, pick up drift, and run attempts.
func (c *Controller) loop() {
	defer c.stopWg.Done()
	for {
		forced := false
		select {
		case <-c.ctx.Done():
			return
		case <-c.wake:
		case <-c.force:
			forced = true
		}
		c.runOnce(forced)
	}
}

// runOnce performs at most one retrain attempt: honor backoff (unless
// forced), pick up a drifted batch if none is pending, and attempt it.
func (c *Controller) runOnce(forced bool) {
	c.mu.Lock()
	backingOff := !c.until.IsZero() && time.Now().Before(c.until)
	if forced {
		c.until = time.Time{} // operator override clears the backoff
		backingOff = false
	}
	c.mu.Unlock()
	if backingOff {
		return
	}

	inc := c.hooks.Incumbent()
	if inc == nil {
		return
	}
	c.mu.Lock()
	pending := c.pending
	c.mu.Unlock()
	if pending == nil {
		d := inc.Drift()
		if d == nil {
			return
		}
		min := d.Count
		if forced {
			min = 1 // operator force: any drift evidence qualifies
		}
		drifted := d.Take(min)
		if drifted == nil {
			if forced {
				c.setOutcome("no_drift", "forced retrain skipped: no drifted queries accumulated")
			}
			return
		}
		pending = weightedDriftBatch(drifted, recencyDecay)
		c.mu.Lock()
		c.pending = pending
		c.st.AttemptsThisBatch = 0
		c.mu.Unlock()
		c.journal(Event{Name: "started", Queries: len(drifted)})
		obs.Logger().Info("retrain triggered",
			"drifted_queries", len(drifted), "distinct", len(pending), "forced", forced)
	}
	c.attempt(inc, pending)
}

// attempt runs one full retrain attempt against the incumbent. Any panic —
// including injected ones — is recovered into a failed attempt; the
// incumbent is untouched on every failure path because nothing here ever
// writes to it.
func (c *Controller) attempt(inc *core.System, drifted workload.Workload) {
	c.mu.Lock()
	c.st.Attempts++
	c.st.AttemptsThisBatch++
	c.st.State = "training"
	c.st.LastError = ""
	seed := c.cfg.Seed + c.st.Attempts
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.Timeout)
	defer cancel()
	ctx, span := obs.StartSpan(ctx, "retrain/attempt")
	defer span.End()
	span.Annotate("drifted_queries", len(drifted))

	failed := func(stage string, err error) {
		span.Event("stage_failed", "stage", stage)
		span.MarkError(err.Error())
		c.fail(stage, err)
	}
	defer func() {
		if r := recover(); r != nil {
			failed("panic", fmt.Errorf("retrain: attempt panic recovered: %v", r))
		}
	}()

	// Stage 1: clone. The snapshot path deep-copies everything mutable; the
	// incumbent is read-only input from here on.
	_, cloneSpan := obs.StartSpan(ctx, "retrain/clone")
	if err := faults.Inject(faults.PointRetrainClone); err != nil {
		cloneSpan.End()
		failed("clone", err)
		return
	}
	cand, err := inc.Clone()
	cloneSpan.End()
	if err != nil {
		failed("clone", err)
		return
	}

	// Baselines are scored on the candidate BEFORE fine-tuning: its set is
	// identical to the incumbent's, so these are the incumbent's scores
	// without running anything against the incumbent's own caches.
	holdback := holdbackSlice(cand.TrainingWorkload(), holdbackFraction, seed)
	incDrift, err := cand.ScoreOn(drifted)
	if err != nil {
		failed("baseline", err)
		return
	}
	incHold, err := cand.ScoreOn(holdback)
	if err != nil {
		failed("baseline", err)
		return
	}

	// Stage 2: fine-tune the clone under the attempt deadline. The PPO
	// divergence watchdog inside rl.TrainContext handles NaN/KL blowups with
	// checkpoint rollback; a deadline overrun discards the candidate rather
	// than gating a half-trained set.
	trainCtx, trainSpan := obs.StartSpan(ctx, "retrain/train")
	if err := faults.Inject(faults.PointRetrainTrain); err != nil {
		trainSpan.End()
		failed("train", err)
		return
	}
	err = cand.FineTuneContext(trainCtx, drifted, 0) // core's default budget
	trainSpan.End()
	if err != nil {
		failed("train", err)
		return
	}
	if ctx.Err() != nil {
		failed("train", fmt.Errorf("retrain: attempt deadline exceeded: %w", ctx.Err()))
		return
	}

	// Stage 3: validation gate.
	c.setState("validating")
	_, valSpan := obs.StartSpan(ctx, "retrain/validate")
	if err := faults.Inject(faults.PointRetrainValidate); err != nil {
		valSpan.End()
		failed("validate", err)
		return
	}
	candDrift, err := cand.ScoreOn(drifted)
	if err != nil {
		valSpan.End()
		failed("validate", err)
		return
	}
	candHold, err := cand.ScoreOn(holdback)
	valSpan.End()
	if err != nil {
		failed("validate", err)
		return
	}
	gate := GateScores{
		IncumbentDrift:    incDrift,
		CandidateDrift:    candDrift,
		IncumbentHoldback: incHold,
		CandidateHoldback: candHold,
		HoldbackQueries:   len(holdback),
		Margin:            c.cfg.ValidateMargin,
		Passed: candDrift >= incDrift-c.cfg.ValidateMargin &&
			candHold >= incHold-c.cfg.ValidateMargin,
	}
	c.mu.Lock()
	g := gate
	c.st.LastGate = &g
	c.mu.Unlock()
	span.Annotate("gate_passed", gate.Passed)
	if gate.Passed {
		c.mu.Lock()
		attemptNo := c.st.AttemptsThisBatch
		c.mu.Unlock()
		c.journal(Event{Name: "validated", Attempt: attemptNo})
	}
	if !gate.Passed {
		c.mu.Lock()
		c.st.ValidationRejects++
		c.mu.Unlock()
		failed("validate", fmt.Errorf(
			"retrain: validation gate rejected candidate: drift %.4f vs %.4f, holdback %.4f vs %.4f (margin %.4f)",
			candDrift, incDrift, candHold, incHold, c.cfg.ValidateMargin))
		return
	}

	// Stage 4: persist the candidate before it goes live, so a crash between
	// here and the swap recovers to a consistent (new) set.
	if c.cfg.SnapshotPath != "" {
		if err := cand.SaveFile(c.cfg.SnapshotPath); err != nil {
			failed("persist", err)
			return
		}
		span.Event("persisted", "path", c.cfg.SnapshotPath)
	}

	// Stage 5: swap. One atomic pointer publish; in-flight queries finish on
	// the incumbent they loaded, new ones land on the candidate.
	if err := faults.Inject(faults.PointRetrainSwap); err != nil {
		failed("swap", err)
		return
	}
	baseP95 := 0.0 // no verdict on the incumbent: any candidate error is new
	if c.hooks.Quality != nil {
		if p95, _, ok := c.hooks.Quality(); ok {
			baseP95 = p95
		}
	}
	c.hooks.Publish(cand)
	now := time.Now()
	c.mu.Lock()
	c.st.Swaps++
	c.st.LastSwapAt = &now
	c.st.State = "rollback-window"
	c.st.LastOutcome = "swapped"
	c.st.BaselineP95 = baseP95
	c.mu.Unlock()
	c.journal(Event{Name: "swapped", Persisted: c.cfg.SnapshotPath != ""})
	span.Event("swapped", "baseline_p95", baseP95)
	obs.Logger().Info("retrain swapped in candidate",
		"drift_score", candDrift, "holdback_score", candHold,
		"baseline_p95", baseP95, "rollback_window", c.cfg.RollbackWindow)

	// Stage 6: rollback window. The incumbent stays retained (and unmutated)
	// until the window expires clean; a quality regression republishes it.
	if c.watchRollback(inc, baseP95) {
		span.Event("rolled_back")
		return
	}
	// Committed: forget the incumbent, reset the failure budget.
	c.mu.Lock()
	c.pending = nil
	c.st.AttemptsThisBatch = 0
	c.st.State = "idle"
	c.backoff = c.cfg.Backoff
	c.until = time.Time{}
	c.mu.Unlock()
	span.Event("committed")
}

// rollbackRegression is the rise of the candidate's worst-shape p95 audit
// error over the incumbent's (absolute error) at which the window rolls back.
const rollbackRegression = 0.10

// watchRollback holds the swapped-out incumbent for the rollback window,
// polling Hooks.Quality, which now reads the candidate's audits only. It rolls
// back once their worst-shape p95 exceeds base, the incumbent's, by
// rollbackRegression, and returns true when it did.
func (c *Controller) watchRollback(inc *core.System, base float64) bool {
	deadline := time.Now().Add(c.cfg.RollbackWindow)
	for {
		select {
		case <-c.ctx.Done():
			return false // closing: leave the candidate published
		case <-time.After(c.cfg.rollbackCheck()):
		}
		if c.hooks.Quality != nil {
			if p95, _, ok := c.hooks.Quality(); ok && p95 > base+rollbackRegression {
				c.rollbackReason(inc, fmt.Sprintf(
					"quality regression: candidate worst-shape p95 %.4f > incumbent %.4f + %.4f",
					p95, base, rollbackRegression))
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// rollbackReason republishes the retained incumbent — byte-identical to what
// served before the swap, since no retrain path ever mutates it — and
// re-persists it so the on-disk snapshot matches what is live again. The
// failed batch is discarded and the controller backs off before retraining.
func (c *Controller) rollbackReason(inc *core.System, reason string) {
	c.hooks.Publish(inc)
	if c.cfg.SnapshotPath != "" {
		if err := inc.SaveFile(c.cfg.SnapshotPath); err != nil {
			obs.Logger().Error("rollback snapshot re-persist failed",
				"path", c.cfg.SnapshotPath, "err", err)
		}
	}
	c.mu.Lock()
	c.st.Rollbacks++
	c.st.LastOutcome = "rolled_back"
	c.st.LastError = reason
	c.pending = nil
	c.st.AttemptsThisBatch = 0
	c.st.State = "idle"
	c.armBackoffLocked()
	c.mu.Unlock()
	c.journal(Event{Name: "rolled_back", Persisted: c.cfg.SnapshotPath != ""})
	obs.Logger().Warn("retrain rolled back to incumbent", "reason", reason)
}

// fail records a failed attempt: the candidate is discarded (nothing to do —
// it was never published), the backoff doubles, and an exhausted attempt
// budget discards the drift batch entirely.
func (c *Controller) fail(stage string, err error) {
	obs.Logger().Warn("retrain attempt failed", "stage", stage, "err", err)
	c.mu.Lock()
	c.st.Failures++
	c.st.LastOutcome = "failed_" + stage
	c.st.LastError = err.Error()
	c.st.State = "idle"
	attemptNo := c.st.AttemptsThisBatch
	gaveUp := attemptNo >= maxAttempts
	if gaveUp {
		c.pending = nil
		c.st.AttemptsThisBatch = 0
		c.st.LastOutcome = "gave_up"
		c.backoff = c.cfg.Backoff
		c.until = time.Time{}
	} else {
		c.armBackoffLocked()
	}
	c.mu.Unlock()
	if gaveUp {
		c.journal(Event{Name: "gave_up", Attempt: attemptNo})
		obs.Logger().Warn("retrain attempt budget exhausted; discarding drift batch",
			"max_attempts", maxAttempts)
		return
	}
	c.journal(Event{Name: "failed", Attempt: attemptNo})
}

// journal emits ev through the optional Journal hook. Nil-safe.
func (c *Controller) journal(ev Event) {
	if c.hooks.Journal != nil {
		c.hooks.Journal(ev)
	}
}

// Restore re-arms the failure backoff after crash recovery: the WAL replay
// tells the controller how many attempts the pre-crash batch had already
// burned, and Restore resumes the doubled backoff where it left off, so a
// crash-looping deployment cannot turn retraining into a hot loop. The drift
// batch itself is restored separately (replay re-observes the drifted
// statements into the detector; the loop looks at them when the backoff
// expires).
func (c *Controller) Restore(attemptsThisBatch int) {
	if c == nil || attemptsThisBatch <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backoff = c.cfg.Backoff
	for i := 1; i < attemptsThisBatch; i++ {
		c.backoff = min(2*c.backoff, c.cfg.maxBackoff())
	}
	c.st.LastOutcome = "recovered"
	c.armBackoffLocked()
}

// armBackoffLocked starts (and doubles) the failure backoff and wakes the
// loop when it ends. Caller holds mu.
func (c *Controller) armBackoffLocked() {
	c.until = time.Now().Add(c.backoff)
	time.AfterFunc(c.backoff, c.Wake)
	c.backoff = min(2*c.backoff, c.cfg.maxBackoff())
}

func (c *Controller) setState(s string) {
	c.mu.Lock()
	c.st.State = s
	c.mu.Unlock()
}

func (c *Controller) setOutcome(outcome, msg string) {
	c.mu.Lock()
	c.st.LastOutcome = outcome
	c.st.LastError = msg
	c.mu.Unlock()
}

// recencyDecay is the decay the controller weights a drifted batch with: the
// newest observation gets weight 1, the one before it 0.9, then 0.9², …
const recencyDecay = 0.9

// weightedDriftBatch turns the raw drift observations (in observation order,
// oldest first) into a weighted fine-tune workload: each occurrence of a
// canonical statement contributes decay^(age) weight, where age counts
// observations back from the newest. Frequency and recency therefore compound
// — a statement that drifted repeatedly and recently dominates the batch —
// instead of the old uniform treatment where one stale outlier pulled as hard
// as the workload's new center of mass. The result is deduplicated, ordered
// by weight descending (ties broken by canonical SQL for determinism), and
// normalized.
func weightedDriftBatch(stmts []*sqlparse.Select, decay float64) workload.Workload {
	if len(stmts) == 0 {
		return nil
	}
	weights := make(map[string]float64, len(stmts))
	repr := make(map[string]*sqlparse.Select, len(stmts))
	n := len(stmts)
	for i, s := range stmts {
		sql := s.String()
		weights[sql] += math.Pow(decay, float64(n-1-i))
		if _, ok := repr[sql]; !ok {
			repr[sql] = s
		}
	}
	w := make(workload.Workload, 0, len(weights))
	for sql, wt := range weights {
		w = append(w, workload.Query{SQL: sql, Stmt: repr[sql], Weight: wt})
	}
	sort.Slice(w, func(i, j int) bool {
		if w[i].Weight != w[j].Weight {
			return w[i].Weight > w[j].Weight
		}
		return w[i].SQL < w[j].SQL
	})
	w.Normalize()
	return w
}

// holdbackSlice deterministically samples a fraction of the training workload
// (at least one query) as the catastrophic-forgetting probe. The sample is a
// function of seed, so one attempt's gate is reproducible, while successive
// attempts rotate through different slices.
func holdbackSlice(w workload.Workload, frac float64, seed int64) workload.Workload {
	if len(w) == 0 {
		return nil
	}
	n := int(frac * float64(len(w)))
	if n < 1 {
		n = 1
	}
	if n > len(w) {
		n = len(w)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(w))[:n]
	return w.Subset(idx)
}
