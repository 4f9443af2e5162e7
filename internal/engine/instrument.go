package engine

import (
	"time"

	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
)

// queryTimer collects per-phase wall-clock timings for one query execution
// and flushes them into the default obs registry. A nil *queryTimer is a
// no-op, which is what startQueryTimer returns when observability is
// disabled — the only cost on the hot path is then one atomic load and a few
// nil-receiver calls.
type queryTimer struct {
	start  time.Time
	mark   time.Time
	phases []phaseTime
}

type phaseTime struct {
	name string
	d    time.Duration
}

// Join-index build metrics: a join step records them when its lookup is the
// one that built a column's index (once per column per columnar view).
const (
	metricJoinIndexBuilds       = "engine/join/index_builds"
	metricJoinIndexBuildSeconds = "engine/join/index_build/seconds"
)

// recordWorkers publishes the effective operator parallelism of the query
// being executed. Only called when observability is enabled (timer active).
func recordWorkers(n int) {
	obs.Default().Gauge("engine/parallel_workers").Set(float64(n))
}

func startQueryTimer() *queryTimer {
	if !obs.Enabled() {
		return nil
	}
	now := time.Now()
	return &queryTimer{start: now, mark: now}
}

// phase closes the current phase under the given name.
func (t *queryTimer) phase(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.phases = append(t.phases, phaseTime{name, now.Sub(t.mark)})
	t.mark = now
}

// finish records query count, overall and per-plan-shape latency,
// per-operator execution counts, and per-phase latency. b and preds may be
// nil when binding failed before a plan existed.
func (t *queryTimer) finish(b *binder, preds []predClass, stmt *sqlparse.Select, err error) {
	if t == nil {
		return
	}
	reg := obs.Default()
	reg.Counter("engine/queries").Inc()
	if err != nil {
		reg.Counter("engine/errors").Inc()
	}
	total := time.Since(t.start)
	reg.Histogram("engine/query/seconds").ObserveDuration(total)
	if b != nil {
		shape := planShape(b, preds, stmt)
		reg.Histogram("engine/query/seconds/" + shape).ObserveDuration(total)
		counts := planOpCounts(b, preds)
		reg.Counter("engine/op/scan").Add(int64(len(b.tables)))
		reg.Counter("engine/op/hash_join").Add(int64(counts.hashJoins))
		reg.Counter("engine/op/cross_join").Add(int64(counts.crossJoins))
		reg.Counter("engine/op/residual_filter").Add(int64(counts.residuals))
		if stmt.HasAggregates() {
			reg.Counter("engine/op/aggregate").Inc()
		}
		if stmt.Distinct {
			reg.Counter("engine/op/distinct").Inc()
		}
		if len(stmt.OrderBy) > 0 {
			reg.Counter("engine/op/sort").Inc()
		}
	}
	for _, p := range t.phases {
		reg.Histogram("engine/phase/" + p.name + "/seconds").Observe(p.d.Seconds())
	}
}
