package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"asqprl/internal/engine"
	"asqprl/internal/faults"
)

// chaosSeeds is how many randomized fault schedules the chaos test sweeps.
// Each seed deterministically arms a different subset of injection points
// with errors, latency, or panics (see faults.RandomSchedule).
const chaosSeeds = 50

// acceptableChaosError reports whether err is a typed, expected failure mode
// under fault injection: an injected fault, a recovered panic, a guard trip,
// or a pipeline-level consequence of one (e.g. preprocessing losing all its
// candidates to injected executor errors).
func acceptableChaosError(err error) bool {
	if errors.Is(err, faults.ErrInjected) ||
		errors.Is(err, engine.ErrDeadline) ||
		errors.Is(err, engine.ErrRowBudget) ||
		errors.Is(err, engine.ErrCanceled) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "panic recovered") ||
		strings.Contains(msg, "core: executing representative") ||
		strings.Contains(msg, "core: executing relaxed representative") ||
		strings.Contains(msg, "no candidate actions")
}

// TestChaosTrainAndQuery runs training and querying under chaosSeeds
// randomized fault schedules. Whatever the schedule does — inject errors,
// latency, panics, at any combination of points — every outcome must be one
// of: clean success, a result explicitly tagged Degraded, or a typed error.
// Never a panic (the test binary would crash), never a hang (the per-seed
// deadline), and never a silently-wrong answer (full-database non-degraded
// results are checked against fault-free ground truth).
func TestChaosTrainAndQuery(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()
	defer faults.Disable()

	// Probe queries and their fault-free ground truth. The first routes to
	// the full database (out of distribution); the rest come from the
	// training workload.
	probes := []string{
		"SELECT * FROM name WHERE birth_year > 1800",
		w[0].SQL,
		w[1].SQL,
	}
	truth := make([]int, len(probes))
	for i, sql := range probes {
		res, err := engine.Execute(db, mustParseCore(t, sql))
		if err != nil {
			t.Fatalf("ground truth for %q: %v", sql, err)
		}
		truth[i] = res.Table.NumRows()
	}

	var trained, degraded, erred int
	for seed := int64(1); seed <= chaosSeeds; seed++ {
		sched := faults.RandomSchedule(seed)
		faults.Enable(sched)

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		sys, err := TrainContext(ctx, db, w, cfg)
		cancel()
		if err != nil {
			if !acceptableChaosError(err) {
				t.Fatalf("seed %d: train failed with untyped error: %v", seed, err)
			}
			erred++
			faults.Disable()
			continue
		}
		trained++
		if sys.Set().Size() == 0 {
			t.Fatalf("seed %d: train succeeded with an empty set", seed)
		}

		for i, sql := range probes {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			res, err := sys.QueryContext(ctx, sql, QueryOptions{})
			cancel()
			if err != nil {
				if !acceptableChaosError(err) {
					t.Fatalf("seed %d: query %d failed with untyped error: %v", seed, i, err)
				}
				erred++
				continue
			}
			if res.Table == nil {
				t.Fatalf("seed %d: query %d returned nil table without error", seed, i)
			}
			if res.Degraded {
				if res.DegradedReason == "" {
					t.Fatalf("seed %d: query %d degraded without a reason", seed, i)
				}
				degraded++
				continue
			}
			// Non-degraded full-database answers must be exactly right even
			// under injection — a silently-wrong result is the one forbidden
			// outcome.
			if !res.FromApproximation && res.Table.NumRows() != truth[i] {
				t.Fatalf("seed %d: query %d silently wrong: %d rows, want %d",
					seed, i, res.Table.NumRows(), truth[i])
			}
		}
		faults.Disable()
	}
	t.Logf("chaos sweep: %d/%d trains succeeded, %d degraded results, %d typed errors",
		trained, chaosSeeds, degraded, erred)
	if trained == 0 {
		t.Error("no schedule allowed training to succeed — injection rates are miscalibrated")
	}
}

// TestChaosDeterminism: the same seed yields the same firing pattern, which
// is what makes a chaos failure reproducible from its log line.
func TestChaosDeterminism(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()

	run := func(seed int64) ([]faults.Event, bool) {
		sched := faults.RandomSchedule(seed)
		faults.Enable(sched)
		defer faults.Disable()
		_, err := Train(db, w, cfg)
		return sched.Events(), err == nil
	}
	for _, seed := range []int64{3, 17} {
		ev1, ok1 := run(seed)
		ev2, ok2 := run(seed)
		if ok1 != ok2 || len(ev1) != len(ev2) {
			t.Fatalf("seed %d not deterministic: %v/%d vs %v/%d", seed, ok1, len(ev1), ok2, len(ev2))
		}
		for i := range ev1 {
			if ev1[i] != ev2[i] {
				t.Fatalf("seed %d event %d differs: %+v vs %+v", seed, i, ev1[i], ev2[i])
			}
		}
	}
}
