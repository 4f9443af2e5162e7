package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"asqprl/internal/engine"
	"asqprl/internal/faults"
	"asqprl/internal/obs"
	"asqprl/internal/rl"
)

// countGoroutines samples the goroutine count after a settle period so
// finished-but-not-yet-reaped goroutines do not count as leaks.
func countGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m <= n {
			return m
		}
		n = m
	}
	return n
}

// TestPreprocessCancellationPerStage cancels the context at the entry of each
// named preprocessing stage (via a hook fault armed at the stage's injection
// point) and asserts PreprocessContext returns promptly with context.Canceled
// and leaks no goroutines.
func TestPreprocessCancellationPerStage(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()

	stages := []struct {
		name  string
		point string
	}{
		{"relax", faults.PointPreRelax},
		{"embed", faults.PointPreEmbed},
		{"select", faults.PointPreSelect},
		{"execute", faults.PointPreExecute},
		{"subsample", faults.PointPreSubsample},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			before := countGoroutines()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			faults.Enable(faults.NewSchedule(1, faults.Injection{
				Point:     st.point,
				Kind:      faults.KindHook,
				OnTrigger: cancel,
			}))
			defer faults.Disable()

			start := time.Now()
			pre, err := PreprocessContext(ctx, db, w, cfg)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("stage %s: expected cancellation error, got %d reps", st.name, len(pre.Reps))
			}
			if !errors.Is(err, context.Canceled) && !errors.Is(err, engine.ErrCanceled) {
				t.Fatalf("stage %s: want context.Canceled, got %v", st.name, err)
			}
			if !strings.Contains(err.Error(), st.name) && st.point != faults.PointPreExecute {
				// the execute stage may surface through a representative's
				// engine error rather than the stage-entry check
				t.Errorf("stage %s: error %q does not name the stage", st.name, err)
			}
			if elapsed > 5*time.Second {
				t.Errorf("stage %s: cancellation took %v, not prompt", st.name, elapsed)
			}
			if after := countGoroutines(); after > before+2 {
				t.Errorf("stage %s: goroutines grew %d -> %d (leak)", st.name, before, after)
			}
		})
	}
}

// TestTrainContextCanceledMidRL cancels training after the first RL iteration
// and asserts Train still returns a usable (if weaker) system with the
// interruption recorded in its stats.
func TestTrainContextCanceledMidRL(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()
	cfg.Episodes = 200 // enough that cancellation lands mid-training
	cfg.EarlyStopPatience = 0

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A hook fault at the rl/update point fires once early in training and
	// cancels the context; the next iteration boundary must observe it.
	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:     faults.PointRLUpdate,
		Kind:      faults.KindHook,
		After:     1,
		MaxFires:  1,
		OnTrigger: cancel,
	}))
	defer faults.Disable()

	sys, err := TrainContext(ctx, db, w, cfg)
	faults.Disable()
	if err != nil {
		t.Fatalf("canceled training should still yield a system, got %v", err)
	}
	if !sys.Stats().RL.Canceled {
		t.Error("Stats().RL.Canceled not set after mid-training cancellation")
	}
	if sys.Stats().RL.Iterations >= 200 {
		t.Errorf("training ran %d iterations despite cancellation", sys.Stats().RL.Iterations)
	}
	if sys.Set().Size() == 0 {
		t.Fatal("partial system has an empty approximation set")
	}
	// The partial system must answer queries.
	res, err := sys.Query(w[0].SQL)
	if err != nil {
		t.Fatalf("partial system query: %v", err)
	}
	if res.Table == nil {
		t.Fatal("partial system returned nil table")
	}
}

// TestQueryDeadline: a query whose 1ms deadline has expired returns
// engine.ErrDeadline — the ladder must not retry or degrade past a deadline.
func TestQueryDeadline(t *testing.T) {
	sys := trainedSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // guarantee expiry regardless of machine speed
	_, err := sys.QueryContext(ctx,
		"SELECT * FROM title t JOIN cast_info c ON t.id = c.title_id", QueryOptions{})
	if !errors.Is(err, engine.ErrDeadline) {
		t.Fatalf("want engine.ErrDeadline, got %v", err)
	}
}

// TestQueryMaxRowsDegrades: tripping the output-row budget on the full
// database serves the partial rows tagged Degraded, never silently.
func TestQueryMaxRowsDegrades(t *testing.T) {
	sys := trainedSystem(t)
	// An out-of-distribution query routes to the full database.
	sql := "SELECT * FROM name WHERE birth_year > 1800"
	res, err := sys.QueryContext(context.Background(), sql, QueryOptions{MaxRows: 3})
	if err != nil {
		t.Fatalf("row-budget trip should degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("row-budget-limited result not tagged Degraded")
	}
	if res.DegradedReason != "rows" {
		t.Errorf("DegradedReason = %q, want rows", res.DegradedReason)
	}
	if res.Table.NumRows() != 3 {
		t.Errorf("partial result has %d rows, want 3", res.Table.NumRows())
	}
}

// TestQuerySetRowsWhenFullSkipped: with the full database off-limits
// (SkipFull, the breaker open), a row-budget trip on the approximation set
// serves the set's partial rows, tagged Degraded with reason "breaker".
func TestQuerySetRowsWhenFullSkipped(t *testing.T) {
	sys := trainedSystem(t)
	sql := "SELECT * FROM title WHERE rating > 7" // from the training workload
	if pred, _ := sys.Estimator().Estimate(mustParseCore(t, sql)); pred < EstimatorThreshold {
		t.Skip("query unexpectedly routed to the full database")
	}
	res, err := sys.QueryContext(context.Background(), sql, QueryOptions{MaxRows: 2, SkipFull: true})
	if err != nil {
		t.Fatalf("row-budget trip with the full database skipped should degrade, not fail: %v", err)
	}
	if !res.Degraded || res.DegradedReason != "breaker" || !res.FromApproximation || res.FullAttempted {
		t.Fatalf("degraded=%v reason=%q approx=%v full attempted=%v, want a breaker-degraded set answer",
			res.Degraded, res.DegradedReason, res.FromApproximation, res.FullAttempted)
	}
	if res.Table.NumRows() != 2 {
		t.Errorf("partial result has %d rows, want 2", res.Table.NumRows())
	}
}

// TestQueryFaultFallsBackToApprox: when the full-database run fails with an
// injected fault, the ladder serves the approximation set's answer tagged
// Degraded, entering each rung once: one full-database span, one
// approximation span, no second attempt.
func TestQueryFaultFallsBackToApprox(t *testing.T) {
	sys := trainedSystem(t)
	sql := "SELECT * FROM name WHERE birth_year > 1800" // routes to full DB
	pred, _ := sys.Estimator().Estimate(mustParseCore(t, sql))
	if pred >= EstimatorThreshold {
		t.Skip("query unexpectedly routed to the approximation set")
	}
	keepEveryTrace(t)
	// Fail the one full-database scan (single table); the approximation
	// set's scan after it runs clean.
	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:    faults.PointEngineScan,
		Kind:     faults.KindError,
		MaxFires: 1,
	}))
	defer faults.Disable()
	res, err := sys.QueryContext(context.Background(), sql, QueryOptions{})
	if err != nil {
		t.Fatalf("expected degraded approx answer, got error %v", err)
	}
	if !res.Degraded || !res.FromApproximation {
		t.Fatalf("want Degraded approx answer, got degraded=%v approx=%v", res.Degraded, res.FromApproximation)
	}
	if res.DegradedReason != "fault" || res.FullFailure != "fault" {
		t.Errorf("DegradedReason = %q, FullFailure = %q, want fault", res.DegradedReason, res.FullFailure)
	}

	traces := obs.KeptTraces()
	if len(traces) != 1 || traces[0].Root.Name != "core/query" {
		t.Fatalf("want one core/query trace, got %d", len(traces))
	}
	rungs := map[string]int{}
	for _, c := range traces[0].Root.Children {
		rungs[c.Name]++
	}
	if rungs[rungFull] != 1 || rungs[rungApprox] != 1 || len(rungs) != 2 {
		t.Errorf("rung spans = %v, want one %s and one %s", rungs, rungFull, rungApprox)
	}
	var events []string
	for _, ev := range traces[0].Root.Events {
		events = append(events, ev.Name)
	}
	if got := strings.Join(events, " "); got != "guard_trip degraded" {
		t.Errorf("ladder events = %q, want \"guard_trip degraded\"", got)
	}

	// QueryAggregate takes the same fallback, and the set's substitute is
	// scaled like any set answer.
	agg := "SELECT COUNT(*) FROM name WHERE birth_year > 1800"
	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:    faults.PointEngineScan,
		Kind:     faults.KindError,
		MaxFires: 1,
	}))
	got, err := sys.QueryAggregate(agg)
	faults.Disable()
	if err != nil {
		t.Fatalf("QueryAggregate: expected the set's scaled answer, got error %v", err)
	}
	if !got.FromApproximation {
		t.Fatal("QueryAggregate: want the approximation set's answer")
	}
	setRes, err := engine.ExecuteWith(sys.SetDB(), mustParseCore(t, agg), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	factor := float64(sys.DB().Table("name").NumRows()) / float64(sys.SetDB().Table("name").NumRows())
	if want := setRes.Table.GroupValues(false)[""] * factor; factor <= 1 || got.ScaleFactor != factor || got.Values[""] != want {
		t.Errorf("QueryAggregate = %v (scale %v), want %v (scale %v)", got.Values[""], got.ScaleFactor, want, factor)
	}
}

// TestQueryStatementErrorEndsLadder: a statement that cannot bind fails the
// same way on every rung, so the first rung that meets it returns it as an
// engine.ErrStatement, tagged "statement", with nothing degraded.
func TestQueryStatementErrorEndsLadder(t *testing.T) {
	sys := trainedSystem(t)
	for _, sql := range []string{
		"SELECT nosuch FROM name WHERE birth_year > 1800",
		"SELECT nosuch FROM title WHERE rating > 7",
	} {
		stmt := mustParseCore(t, sql)
		pred, _ := sys.Estimator().Estimate(stmt)
		res, err := sys.QueryStmtContext(context.Background(), stmt, QueryOptions{})
		if !errors.Is(err, engine.ErrStatement) || !strings.Contains(err.Error(), `column "nosuch" not found`) {
			t.Fatalf("%s: err = %v, want the engine's bind error", sql, err)
		}
		if res.Degraded {
			t.Errorf("%s: degraded (%s)", sql, res.DegradedReason)
		}
		if full := pred < EstimatorThreshold; res.FullAttempted != full || (full && res.FullFailure != "statement") {
			t.Errorf("%s: routed full=%v, FullAttempted=%v FullFailure=%q", sql, full, res.FullAttempted, res.FullFailure)
		}
	}
}

// TestQueryPanicRecovered: an injected panic in the engine surfaces as an
// error (or a degraded answer), never as a crash — through QueryAggregate as
// well, which answers through the same ladder.
func TestQueryPanicRecovered(t *testing.T) {
	sys := trainedSystem(t)
	for _, tc := range []struct {
		name string
		run  func() (degraded bool, err error)
	}{
		{"Query", func() (bool, error) {
			res, err := sys.QueryContext(context.Background(),
				"SELECT * FROM name WHERE birth_year > 1800", QueryOptions{})
			return res.Degraded, err
		}},
		{"QueryAggregate", func() (bool, error) { // no degraded answer: every scan panics
			_, err := sys.QueryAggregate("SELECT COUNT(*) FROM name WHERE birth_year > 1800")
			return false, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults.Enable(faults.NewSchedule(1, faults.Injection{
				Point: faults.PointEngineScan,
				Kind:  faults.KindPanic,
			}))
			defer faults.Disable()
			if degraded, err := tc.run(); err == nil && !degraded {
				t.Fatal("persistent panics should yield an error or a degraded result")
			}
		})
	}
}

// TestFitEstimatorErrorPropagates: a training statement that cannot be scored
// on the new set fails BuildSet; the estimator is never fitted on zeros that
// stand for "failed".
func TestFitEstimatorErrorPropagates(t *testing.T) {
	sys, err := trainedSystem(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Unarmed: preprocesses the clone and fills the reference cache, so the
	// armed call below reaches the engine only to count on the set.
	if _, err := sys.BuildSet(0); err != nil {
		t.Fatal(err)
	}
	est := sys.Estimator()
	faults.Enable(faults.NewSchedule(1, faults.Injection{Point: faults.PointEngineScan, Kind: faults.KindError}))
	defer faults.Disable()
	if _, err := sys.BuildSet(0); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("BuildSet with every scan failing: err = %v, want the injected fault", err)
	}
	if sys.Estimator() != est {
		t.Error("a failed fit replaced the estimator")
	}
}

// TestTrainRecoversFromInjectedNaN arms the rl/update corruption point so one
// PPO update poisons the actor with NaN, and asserts the divergence watchdog
// rolled back (visible in TrainStats.History) on the non-finite parameters —
// the update's first epoch runs on the collection-time forward pass, so its
// losses stay finite — halved the learning rate, and that the final system
// still beats the random baseline.
func TestTrainRecoversFromInjectedNaN(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()

	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:    faults.PointRLUpdate,
		Kind:     faults.KindError,
		After:    2, // let two clean updates land first
		MaxFires: 1,
	}))
	defer faults.Disable()

	sys, err := Train(db, w, cfg)
	faults.Disable()
	if err != nil {
		t.Fatal(err)
	}
	stats := sys.Stats().RL
	if stats.Recoveries < 1 {
		t.Fatalf("watchdog recorded %d recoveries, want >= 1", stats.Recoveries)
	}
	found := false
	for _, it := range stats.History {
		if it.Recovered {
			found = true
			if it.RecoveryReason != "non-finite actor parameters" {
				t.Errorf("recovered iteration names %q, want the non-finite actor parameters", it.RecoveryReason)
			}
			break
		}
	}
	if !found {
		t.Fatal("no History entry marked Recovered")
	}
	if lr := stats.History[len(stats.History)-1].LR; lr >= cfg.RL.LR && cfg.RL.LR > 0 {
		t.Errorf("learning rate %v not reduced from %v after recovery", lr, cfg.RL.LR)
	}

	// The recovered agent must still beat the random baseline (Equation 1).
	asqp, err := sys.ScoreOn(w)
	if err != nil {
		t.Fatal(err)
	}
	random := randomBaseline(t, db, w, sys.Set().Size(), sys.Config().F, 3)
	t.Logf("recovered score: asqp=%.3f random=%.3f (recoveries=%d)", asqp, random, stats.Recoveries)
	if asqp <= random {
		t.Errorf("recovered ASQP score %.3f should beat random %.3f", asqp, random)
	}
}

// TestAgentCancellationBetweenIterations asserts rl.TrainContext honors a
// pre-armed cancellation promptly, returning partial stats with Canceled set.
func TestAgentCancellationBetweenIterations(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()
	pre, err := Preprocess(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stateDim, actions := envShape(cfg)
	agent, err := rl.NewAgent(cfg.RL, stateDim, actions)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := NewEnvironment(pre, cfg, 0)
	stats := agent.TrainContext(ctx, env, 1000, nil)
	if !stats.Canceled {
		t.Error("pre-canceled TrainContext did not set Canceled")
	}
	if stats.Iterations != 0 {
		t.Errorf("pre-canceled TrainContext ran %d iterations", stats.Iterations)
	}
}
