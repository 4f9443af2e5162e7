package retrain

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asqprl/internal/audit"
	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/faults"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

var (
	fixtureOnce sync.Once
	fixtureSys  *core.System
	fixtureErr  error
)

// fixture trains one small system and caches it; every test clones it so the
// shared fixture is never mutated (the same isolation the controller itself
// guarantees for the incumbent).
func fixture(t *testing.T) *core.System {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.K = 150
		cfg.F = 25
		cfg.NumRepresentatives = 8
		cfg.ActionSpaceSize = 64
		cfg.MaxTrackedPerQuery = 60
		cfg.Episodes = 24
		cfg.RL.Workers = 4
		cfg.Seed = 1
		fixtureSys, fixtureErr = core.Train(datagen.IMDB(0.02, 7), workload.IMDB(18, 11), cfg)
	})
	if fixtureErr != nil {
		t.Fatalf("training shared fixture: %v", fixtureErr)
	}
	sys, err := fixtureSys.Clone()
	if err != nil {
		t.Fatalf("cloning fixture: %v", err)
	}
	return sys
}

// host is a fake serving layer: an incumbent slot plus a publish log, and
// for newAuditedHost a shadow auditor with the live generation.
type host struct {
	mu        sync.Mutex
	sys       *core.System
	publishes []*core.System
	gen       int64

	qmu     sync.Mutex
	quality func() (float64, int64, bool)

	aud  *audit.Auditor
	hold atomic.Bool
}

func newHost(sys *core.System) *host { return &host{sys: sys} }

func (h *host) incumbent() *core.System {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sys
}

func (h *host) publish(sys *core.System) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sys = sys
	h.publishes = append(h.publishes, sys)
	h.gen++
	h.aud.SetGeneration(h.gen)
}

func (h *host) publishCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.publishes)
}

func (h *host) setQuality(f func() (float64, int64, bool)) {
	h.qmu.Lock()
	h.quality = f
	h.qmu.Unlock()
}

func (h *host) probe() (float64, int64, bool) {
	h.qmu.Lock()
	f := h.quality
	h.qmu.Unlock()
	if f == nil {
		return 0, 0, false
	}
	return f()
}

func (h *host) hooks() Hooks {
	return Hooks{Incumbent: h.incumbent, Publish: h.publish, Quality: h.probe}
}

// testCfg is a controller config tuned for fast deterministic tests: only
// Force starts an attempt (nothing calls Wake, and a failure backs off for an
// hour), and the rollback window is short.
func testCfg() Config {
	return Config{
		Enabled:        true,
		Timeout:        2 * time.Minute,
		ValidateMargin: 2, // scores live in [0,1]: the gate always passes
		RollbackWindow: 300 * time.Millisecond,
		Backoff:        time.Hour,
		Seed:           1,
	}
}

// primeDrift pushes n maximally-deviating statements into the system's drift
// detector.
func primeDrift(t *testing.T, sys *core.System, n int) {
	t.Helper()
	sqls := []string{
		"SELECT * FROM name WHERE birth_year > 1950",
		"SELECT * FROM name WHERE birth_year < 1900",
		"SELECT * FROM name WHERE birth_year > 1980",
	}
	for i := 0; i < n; i++ {
		stmt, err := sqlparse.Parse(sqls[i%len(sqls)])
		if err != nil {
			t.Fatal(err)
		}
		sys.Drift().ObserveDetail(stmt, 0) // deviation 1.0: always counts as drifted
	}
}

// waitStatus polls the controller until cond is true or the deadline passes.
func waitStatus(t *testing.T, c *Controller, timeout time.Duration, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := c.Status()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached before deadline; last status: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mustBytes(t *testing.T, sys *core.System) []byte {
	t.Helper()
	b, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNilControllerIsDisabled(t *testing.T) {
	var c *Controller
	if st := c.Status(); st.Enabled || st.State != "disabled" {
		t.Fatalf("nil controller status = %+v", st)
	}
	if err := c.Force(); err != ErrDisabled {
		t.Fatalf("nil Force err = %v, want ErrDisabled", err)
	}
	c.Wake()  // must not panic
	c.Close() // must not panic
}

// TestWakeTakesBatchAtThreshold: with no Force, a Wake below the drift
// threshold takes nothing, and a Wake once the detector holds Count
// statements starts an attempt on them.
func TestWakeTakesBatchAtThreshold(t *testing.T) {
	inc := fixture(t)
	count := inc.Drift().Count
	primeDrift(t, inc, count-1)

	c := New(testCfg(), newHost(inc).hooks())
	c.Start()
	defer c.Close()
	c.Wake()
	time.Sleep(100 * time.Millisecond)
	if st := c.Status(); st.Attempts != 0 || inc.Drift().DriftedCount() != count-1 {
		t.Fatalf("a wake below the threshold took the batch: %+v, detector holds %d", st, inc.Drift().DriftedCount())
	}

	primeDrift(t, inc, 1)
	c.Wake()
	waitStatus(t, c, 10*time.Second, func(st Status) bool { return st.Attempts == 1 })
}

// TestBackoffExpiryRetries: after a failed attempt the loop wakes on its own
// when the backoff expires and retries the pending batch, so one Wake spends
// the whole attempt budget without a Force.
func TestBackoffExpiryRetries(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, inc.Drift().Count)
	faults.Enable(faults.NewSchedule(1, faults.Injection{Point: faults.PointRetrainClone, Kind: faults.KindError}))
	t.Cleanup(faults.Disable)

	cfg := testCfg()
	cfg.Backoff = 20 * time.Millisecond
	c := New(cfg, newHost(inc).hooks())
	c.Start()
	defer c.Close()
	c.Wake()
	st := waitStatus(t, c, 10*time.Second, func(st Status) bool { return st.LastOutcome == "gave_up" })
	if st.Failures != maxAttempts {
		t.Fatalf("failures = %d, want %d", st.Failures, maxAttempts)
	}
}

// TestForcedRetrainSwaps drives the happy path end to end: forced retrain on
// accumulated drift fine-tunes a clone, passes the gate, swaps it in, and
// commits after a clean rollback window — with the original incumbent
// never mutated (byte-identical snapshot before vs. after).
func TestForcedRetrainSwaps(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, 3)
	incBefore := mustBytes(t, inc)

	h := newHost(inc)
	c := New(testCfg(), h.hooks())
	c.Start()
	defer c.Close()
	if err := c.Force(); err != nil {
		t.Fatal(err)
	}

	st := waitStatus(t, c, 2*time.Minute, func(st Status) bool {
		return st.Swaps == 1 && st.State == "idle"
	})
	if st.LastOutcome != "swapped" {
		t.Fatalf("last outcome %q, want swapped", st.LastOutcome)
	}
	if st.LastGate == nil || !st.LastGate.Passed {
		t.Fatalf("gate not recorded as passed: %+v", st.LastGate)
	}
	if h.publishCount() != 1 {
		t.Fatalf("publishes = %d, want 1", h.publishCount())
	}
	if h.incumbent() == inc {
		t.Fatal("swap did not replace the incumbent")
	}
	// The candidate actually learned: its fine-tune counter advanced and the
	// drifted statements joined its training workload.
	cand := h.incumbent()
	if cand.Stats().FineTunes != inc.Stats().FineTunes+1 {
		t.Fatalf("candidate FineTunes = %d, incumbent %d", cand.Stats().FineTunes, inc.Stats().FineTunes)
	}
	if len(cand.TrainingWorkload()) <= len(inc.TrainingWorkload()) {
		t.Fatal("candidate training workload did not grow")
	}
	// The incumbent was never mutated by the attempt.
	if !bytes.Equal(incBefore, mustBytes(t, inc)) {
		t.Fatal("incumbent bytes changed across a successful retrain")
	}
	if inc.Drift().DriftedCount() != 0 {
		t.Fatal("drifted batch should have been consumed")
	}
}

// TestValidationRejectKeepsIncumbent arms an impossible gate (margin -2:
// the candidate must beat the incumbent by 2 on scores that live in [0,1])
// and proves a rejected candidate is discarded without any publish and
// without touching the incumbent.
func TestValidationRejectKeepsIncumbent(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, 3)
	incBefore := mustBytes(t, inc)

	cfg := testCfg()
	cfg.ValidateMargin = -2
	h := newHost(inc)
	c := New(cfg, h.hooks())
	c.Start()
	defer c.Close()

	var st Status
	for i := int64(1); i <= maxAttempts; i++ {
		if err := c.Force(); err != nil {
			t.Fatal(err)
		}
		st = waitStatus(t, c, 2*time.Minute, func(st Status) bool {
			return st.ValidationRejects == i
		})
	}
	if st.Swaps != 0 {
		t.Fatalf("swaps = %d, want 0", st.Swaps)
	}
	if st.LastGate == nil || st.LastGate.Passed {
		t.Fatalf("gate should have failed: %+v", st.LastGate)
	}
	if h.publishCount() != 0 {
		t.Fatalf("rejected candidate was published %d times", h.publishCount())
	}
	if h.incumbent() != inc {
		t.Fatal("incumbent pointer changed")
	}
	if !bytes.Equal(incBefore, mustBytes(t, inc)) {
		t.Fatal("incumbent bytes changed across a rejected retrain")
	}
	// The batch is discarded after its last allowed reject.
	waitStatus(t, c, 5*time.Second, func(st Status) bool {
		return st.LastOutcome == "gave_up" && st.PendingDrifted == 0
	})
}

// TestValidateMarginZeroMeansNoWorse runs the gate at margin 0: the gate
// records margin 0 (it is not replaced by the default) and passes exactly
// when the candidate is no worse than the incumbent on both workloads.
func TestValidateMarginZeroMeansNoWorse(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, 3)

	cfg := testCfg()
	cfg.ValidateMargin = 0
	h := newHost(inc)
	c := New(cfg, h.hooks())
	c.Start()
	defer c.Close()
	if err := c.Force(); err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, c, 2*time.Minute, func(st Status) bool { return st.LastGate != nil })
	g := st.LastGate
	if g.Margin != 0 {
		t.Fatalf("last_gate.margin = %v, want 0", g.Margin)
	}
	noWorse := g.CandidateDrift >= g.IncumbentDrift && g.CandidateHoldback >= g.IncumbentHoldback
	if g.Passed != noWorse {
		t.Fatalf("gate passed=%v at margin 0, want %v: %+v", g.Passed, noWorse, g)
	}
}

// TestRollbackRestoresIncumbentByteIdentical swaps a candidate in, then
// reports a quality regression; the controller must republish the retained
// incumbent, byte-identical to its pre-swap snapshot, and discard the batch.
func TestRollbackRestoresIncumbentByteIdentical(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, 3)
	incBefore := mustBytes(t, inc)

	h := newHost(inc)
	// Pre-swap baseline: healthy (p95 0.05 over 10 audits). After the swap
	// the probe reports fresh evidence with a much worse p95 — a regression
	// beyond the 0.10 default.
	h.setQuality(func() (float64, int64, bool) { return 0.05, 10, true })

	cfg := testCfg()
	cfg.RollbackWindow = 2 * time.Second
	c := New(cfg, h.hooks())
	c.Start()
	defer c.Close()
	if err := c.Force(); err != nil {
		t.Fatal(err)
	}

	waitStatus(t, c, 2*time.Minute, func(st Status) bool { return st.Swaps == 1 })
	h.setQuality(func() (float64, int64, bool) { return 0.5, 20, true })

	st := waitStatus(t, c, 10*time.Second, func(st Status) bool { return st.Rollbacks == 1 })
	if st.LastOutcome != "rolled_back" {
		t.Fatalf("last outcome %q, want rolled_back", st.LastOutcome)
	}
	if h.incumbent() != inc {
		t.Fatal("rollback did not restore the incumbent pointer")
	}
	if h.publishCount() != 2 {
		t.Fatalf("publishes = %d, want 2 (swap + rollback)", h.publishCount())
	}
	if !bytes.Equal(incBefore, mustBytes(t, inc)) {
		t.Fatal("restored incumbent is not byte-identical to its pre-swap state")
	}
	if st.PendingDrifted != 0 {
		t.Fatalf("rolled-back batch still pending: %d", st.PendingDrifted)
	}
}

// TestFaultsFailAttemptAndBackOff injects a deterministic error at every
// retrain stage in turn (clone, train, validate, swap) plus a panic, and
// proves each failure leaves the incumbent untouched and unpublished while
// the backoff arms and the attempt budget eventually discards the batch.
func TestFaultsFailAttemptAndBackOff(t *testing.T) {
	points := []struct {
		point string
		kind  faults.Kind
	}{
		{faults.PointRetrainClone, faults.KindError},
		{faults.PointRetrainTrain, faults.KindError},
		{faults.PointRetrainValidate, faults.KindError},
		{faults.PointRetrainSwap, faults.KindError},
		{faults.PointRetrainTrain, faults.KindPanic},
	}
	for _, tc := range points {
		t.Run(tc.point+"/"+tc.kind.String(), func(t *testing.T) {
			inc := fixture(t)
			primeDrift(t, inc, 3)
			incBefore := mustBytes(t, inc)

			sched := faults.NewSchedule(1, faults.Injection{Point: tc.point, Kind: tc.kind})
			faults.Enable(sched)
			t.Cleanup(faults.Disable)

			h := newHost(inc)
			c := New(testCfg(), h.hooks())
			c.Start()
			defer c.Close()
			if err := c.Force(); err != nil {
				t.Fatal(err)
			}

			st := waitStatus(t, c, 2*time.Minute, func(st Status) bool {
				return st.Failures == 1
			})
			if st.Swaps != 0 {
				t.Fatalf("swaps = %d, want 0", st.Swaps)
			}
			if h.publishCount() != 0 {
				t.Fatalf("failed attempt published %d systems", h.publishCount())
			}
			if h.incumbent() != inc {
				t.Fatal("incumbent pointer changed under fault")
			}
			if !bytes.Equal(incBefore, mustBytes(t, inc)) {
				t.Fatalf("incumbent bytes changed across a failed attempt at %s", tc.point)
			}
			// The batch is retained for the next attempt (budget not yet
			// exhausted) and the backoff is armed.
			if st.PendingDrifted == 0 {
				t.Fatal("drift batch dropped before the attempt budget was exhausted")
			}
		})
	}
}

// TestAttemptBudgetExhaustionDiscardsBatch forces repeated failures until
// maxAttempts is hit and checks the batch is dropped with outcome gave_up.
func TestAttemptBudgetExhaustionDiscardsBatch(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, 3)

	sched := faults.NewSchedule(1, faults.Injection{Point: faults.PointRetrainClone, Kind: faults.KindError})
	faults.Enable(sched)
	t.Cleanup(faults.Disable)

	h := newHost(inc)
	c := New(testCfg(), h.hooks())
	c.Start()
	defer c.Close()

	for i := 0; i < maxAttempts; i++ {
		want := int64(i + 1)
		if err := c.Force(); err != nil {
			t.Fatal(err)
		}
		waitStatus(t, c, 30*time.Second, func(st Status) bool { return st.Failures == want })
	}
	st := waitStatus(t, c, 5*time.Second, func(st Status) bool {
		return st.LastOutcome == "gave_up"
	})
	if st.PendingDrifted != 0 {
		t.Fatalf("batch still pending after budget exhaustion: %d", st.PendingDrifted)
	}
	if st.AttemptsThisBatch != 0 {
		t.Fatalf("attempt counter not reset: %d", st.AttemptsThisBatch)
	}
}

// TestSnapshotPersistedBeforeSwap sets SnapshotPath and checks the candidate
// snapshot is on disk, loadable, and identical to the published system.
func TestSnapshotPersistedBeforeSwap(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, 3)

	cfg := testCfg()
	cfg.SnapshotPath = t.TempDir() + "/candidate.asqp"
	h := newHost(inc)
	c := New(cfg, h.hooks())
	c.Start()
	defer c.Close()
	if err := c.Force(); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, 2*time.Minute, func(st Status) bool {
		return st.Swaps == 1 && st.State == "idle"
	})

	loaded, err := core.LoadFile(inc.DB(), cfg.SnapshotPath)
	if err != nil {
		t.Fatalf("persisted candidate does not load: %v", err)
	}
	pub := h.incumbent()
	if loaded.Set().Size() != pub.Set().Size() {
		t.Fatalf("persisted set size %d != published %d", loaded.Set().Size(), pub.Set().Size())
	}
	for _, id := range pub.Set().IDs() {
		if !loaded.Set().Contains(id) {
			t.Fatalf("persisted snapshot missing %v", id)
		}
	}
	if loaded.Stats().FineTunes != pub.Stats().FineTunes {
		t.Fatalf("persisted FineTunes %d != published %d", loaded.Stats().FineTunes, pub.Stats().FineTunes)
	}
}

// TestForceWithoutDrift reports a clean no_drift outcome instead of spinning.
func TestForceWithoutDrift(t *testing.T) {
	inc := fixture(t)
	h := newHost(inc)
	c := New(testCfg(), h.hooks())
	c.Start()
	defer c.Close()
	if err := c.Force(); err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, c, 10*time.Second, func(st Status) bool {
		return st.LastOutcome == "no_drift"
	})
	if st.Attempts != 0 {
		t.Fatalf("no-drift force should not count an attempt, got %d", st.Attempts)
	}
	if h.publishCount() != 0 {
		t.Fatalf("no-drift force published %d systems", h.publishCount())
	}
}

// TestWeightedDriftBatch pins the frequency×recency weighting of the
// fine-tune batch: repeats compound, newer observations outweigh older ones,
// ties order deterministically, and the result is normalized.
func TestWeightedDriftBatch(t *testing.T) {
	parse := func(sql string) *sqlparse.Select {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt
	}
	a := "SELECT * FROM name WHERE birth_year > 1950"
	b := "SELECT * FROM name WHERE birth_year < 1900"
	c := "SELECT * FROM name WHERE birth_year > 1980"
	// Observation order, oldest first: a a b c c. With decay d and n=5 the
	// positional weights are d⁴ d³ d² d 1, so
	//   a = d⁴+d³, b = d², c = d+1.
	stmts := []*sqlparse.Select{parse(a), parse(a), parse(b), parse(c), parse(c)}
	const d = 0.5
	got := weightedDriftBatch(stmts, d)
	if len(got) != 3 {
		t.Fatalf("batch has %d entries, want 3 (deduplicated): %+v", len(got), got)
	}
	wantOrder := []string{c, b, a} // 1.5 > 0.25 > 0.1875
	for i, sql := range wantOrder {
		if got[i].SQL != sql {
			t.Fatalf("batch[%d] = %q, want %q (full: %+v)", i, got[i].SQL, sql, got)
		}
	}
	raw := []float64{d + 1, d * d, math.Pow(d, 4) + math.Pow(d, 3)}
	total := raw[0] + raw[1] + raw[2]
	for i := range wantOrder {
		if diff := math.Abs(got[i].Weight - raw[i]/total); diff > 1e-12 {
			t.Errorf("batch[%d] weight = %v, want %v", i, got[i].Weight, raw[i]/total)
		}
	}
	// Determinism: same input, same output, including tie-breaks.
	again := weightedDriftBatch(stmts, d)
	for i := range got {
		if got[i].SQL != again[i].SQL || got[i].Weight != again[i].Weight {
			t.Fatalf("weightedDriftBatch not deterministic at %d", i)
		}
	}
	// A recency-dominant run: one old statement repeated, one brand-new one.
	// Uniform weighting would put the repeated statement first; decay flips it.
	stmts = []*sqlparse.Select{parse(a), parse(a), parse(a), parse(b)}
	got = weightedDriftBatch(stmts, 0.3)
	if got[0].SQL != b {
		t.Fatalf("recency did not outweigh stale frequency: first = %q", got[0].SQL)
	}
}

// TestRestoreRearmsBackoff checks crash recovery of in-flight retrain
// attempts: Restore(n) re-arms the failure backoff as if those n attempts had
// just failed, so a crash-looping process cannot reset the backoff clock and
// turn retraining into a hot loop.
func TestRestoreRearmsBackoff(t *testing.T) {
	cfg := testCfg()
	cfg.Backoff = 50 * time.Millisecond
	sys := fixture(t)
	h := newHost(sys)
	c := New(cfg, h.hooks())

	c.Restore(2)
	st := c.Status()
	if st.LastOutcome != "recovered" {
		t.Fatalf("LastOutcome = %q, want recovered", st.LastOutcome)
	}
	c.mu.Lock()
	until, backoff := c.until, c.backoff
	c.mu.Unlock()
	if remaining := time.Until(until); remaining <= 0 {
		t.Fatal("Restore did not arm a backoff window")
	} else if remaining > cfg.maxBackoff() {
		t.Fatalf("backoff window %v exceeds the cap %v", remaining, cfg.maxBackoff())
	}
	// Two prior attempts: armed with Backoff×2=100ms, next doubling 200ms.
	if backoff != 200*time.Millisecond {
		t.Fatalf("next backoff = %v, want 200ms", backoff)
	}

	// Restore with no attempts is a no-op.
	c2 := New(cfg, h.hooks())
	c2.Restore(0)
	c2.mu.Lock()
	armed := !c2.until.IsZero()
	c2.mu.Unlock()
	if armed {
		t.Fatal("Restore(0) armed a backoff")
	}
}

// auditFrame is the frame size the audited hosts judge answers against, and
// auditSQL a statement with more than auditFrame true rows, so an answer of
// r rows audits to relative error 1 − r/auditFrame.
const (
	auditFrame = 50
	auditSQL   = "SELECT * FROM title"
)

// newAuditedHost is a host whose rollback evidence comes from a real shadow
// auditor over the incumbent's database. Like the serving layer, it starts at
// generation 1 and retires the auditor's tables at every publish; hold parks
// the audit worker at its capacity gate.
func newAuditedHost(t *testing.T, sys *core.System) *host {
	t.Helper()
	h := newHost(sys)
	h.aud = audit.New(
		func() (*table.Database, int) { return sys.DB(), auditFrame },
		func() bool { return !h.hold.Load() },
		audit.Config{SampleRate: 1},
	)
	t.Cleanup(h.aud.Close)
	h.gen = 1
	h.aud.SetGeneration(h.gen)
	h.setQuality(h.aud.WorstShapeP95)
	return h
}

// offer hands the auditor n answers to auditSQL of the given row count,
// served by generation gen under the statement's plan shape, as the serving
// layer hands over an inexact answer.
func (h *host) offer(t *testing.T, gen int64, rows, n int) {
	t.Helper()
	stmt, err := sqlparse.Parse(auditSQL)
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := engine.PlannedContext(context.Background(), h.incumbent().DB(), stmt, engine.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	sv := audit.Served{SQL: stmt.String(), Shape: plan.Shape(), Source: "approximation", Generation: gen}
	for i := 0; i < n; i++ {
		for !h.aud.Consider(stmt, sv, rows, nil) { // queue full: let it drain
			time.Sleep(time.Millisecond)
		}
	}
}

// judged waits until the auditor has completed n audits in all.
func (h *host) judged(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for h.aud.Stats().Completed < n {
		if time.Now().After(deadline) {
			t.Fatalf("audits did not complete: %+v, want %d completed", h.aud.Stats(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// generation returns the host's live publish generation.
func (h *host) generation() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gen
}

// swapAudited forces a retrain on an audited host and waits for the swap.
func swapAudited(t *testing.T, h *host, window time.Duration) *Controller {
	t.Helper()
	cfg := testCfg()
	cfg.RollbackWindow = window
	c := New(cfg, h.hooks())
	c.Start()
	t.Cleanup(c.Close)
	if err := c.Force(); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, 2*time.Minute, func(st Status) bool { return st.Swaps == 1 })
	if g := h.generation(); g != 2 {
		t.Fatalf("generation after the swap = %d, want 2", g)
	}
	return c
}

// TestRollbackIgnoresDilutingHistory: a long healthy history of one shape in
// the incumbent's generation (500 audits at error 0.02) cannot hide the
// candidate's regression on it (20 audits at 0.5): the window judges the
// candidate's own audits and rolls back. A lifetime histogram would hide it —
// with 20 of 520 audits bad its p95 stays at 0.02.
func TestRollbackIgnoresDilutingHistory(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, 3)
	h := newAuditedHost(t, inc)
	h.offer(t, 1, 49, 500) // error 1 − 49/50 = 0.02
	h.judged(t, 500)

	c := swapAudited(t, h, 3*time.Second)
	if st := c.Status(); math.Abs(st.BaselineP95-0.02) > 0.01 {
		t.Fatalf("baseline p95 = %v, want the incumbent's ≈ 0.02", st.BaselineP95)
	}
	h.offer(t, 2, 25, 20) // error 0.5
	st := waitStatus(t, c, 10*time.Second, func(st Status) bool { return st.Rollbacks == 1 })
	if st.LastOutcome != "rolled_back" || !strings.Contains(st.LastError, "quality regression") {
		t.Fatalf("outcome %q, err %q", st.LastOutcome, st.LastError)
	}
	if h.incumbent() != inc {
		t.Fatal("rollback did not restore the incumbent pointer")
	}
}

// TestRollbackSparesPreSwapBurn: an incumbent already burning (audits at
// error 0.5) sets a high baseline, and a candidate whose audits match it is
// no regression: the window expires without a rollback.
func TestRollbackSparesPreSwapBurn(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, 3)
	h := newAuditedHost(t, inc)
	h.offer(t, 1, 25, 40)
	h.judged(t, 40)

	c := swapAudited(t, h, 2*time.Second)
	h.offer(t, 2, 25, 20)
	h.judged(t, 60)
	if p95, _, ok := h.aud.WorstShapeP95(); !ok || math.Abs(p95-0.5) > 0.05 {
		t.Fatalf("candidate evidence = (%v, %v), want its own p95 ≈ 0.5", p95, ok)
	}
	if st := c.Status(); st.State != "rollback-window" {
		t.Fatalf("the candidate's audits landed after the window (state %q)", st.State)
	}
	st := waitStatus(t, c, 10*time.Second, func(st Status) bool { return st.State == "idle" })
	if st.Rollbacks != 0 || h.incumbent() == inc {
		t.Fatalf("rolled back a candidate no worse than the incumbent: %+v", st)
	}
}

// TestRollbackIgnoresLateVerdicts: verdicts on answers the incumbent served
// (error 0.9) that complete only after the swap are not the candidate's
// evidence, so they cannot roll it back.
func TestRollbackIgnoresLateVerdicts(t *testing.T) {
	inc := fixture(t)
	primeDrift(t, inc, 3)
	h := newAuditedHost(t, inc)
	h.hold.Store(true)
	h.offer(t, 1, 5, 3) // error 0.9, parked behind the gate

	// The parked worker polls the gate at most a second apart; the window
	// leaves room for that after the release.
	c := swapAudited(t, h, 4*time.Second)
	h.hold.Store(false)
	h.judged(t, 3)
	if st := c.Status(); st.State != "rollback-window" {
		t.Fatalf("the late verdicts landed after the window (state %q)", st.State)
	}
	if p95, n, ok := h.aud.WorstShapeP95(); ok {
		t.Fatalf("the retired generation's verdicts reached the candidate's evidence: p95 %v over %d", p95, n)
	}
	st := waitStatus(t, c, 10*time.Second, func(st Status) bool { return st.State == "idle" })
	if st.Rollbacks != 0 || h.incumbent() == inc {
		t.Fatalf("rolled back on the retired generation's verdicts: %+v", st)
	}
}
