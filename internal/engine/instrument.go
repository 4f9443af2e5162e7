package engine

import (
	"sync"
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
	name string // the phase's histogram, one of the phase* constants
	d    time.Duration
}

// The phases a query's wall clock is split into, by their histograms' names.
const (
	phasePlan      = "engine/phase/plan/seconds"
	phaseJoin      = "engine/phase/join/seconds"
	phaseAggregate = "engine/phase/aggregate/seconds"
	phaseProject   = "engine/phase/project/seconds"
	phaseFinish    = "engine/phase/finish/seconds"
)

// Join-index build metrics: the scan phase or a join step records them when its
// lookup is the one that built a column's index (once per column per columnar
// view). Scan metrics: relations read through a partner's keys, and rows read.
const (
	metricJoinIndexBuilds       = "engine/join/index_builds"
	metricJoinIndexBuildSeconds = "engine/join/index_build/seconds"
	metricScanSideways          = "engine/scan/sideways"
	metricScanRowsRead          = "engine/scan/rows_read"
)

func startQueryTimer() *queryTimer {
	if !obs.Enabled() {
		return nil
	}
	now := time.Now()
	return &queryTimer{start: now, mark: now}
}

// phase closes the current phase under the given phase* name.
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
		shape := shapeOf(b, preds, stmt)
		reg.Histogram(shapeHistName(shape)).ObserveDuration(total)
		reg.Counter("engine/op/scan").Add(int64(shape.scans))
		reg.Counter("engine/op/hash_join").Add(int64(shape.hashJoins))
		reg.Counter("engine/op/cross_join").Add(int64(shape.crossJoins))
		reg.Counter("engine/op/residual_filter").Add(int64(shape.residuals))
		if shape.agg {
			reg.Counter("engine/op/aggregate").Inc()
		}
		if shape.distinct {
			reg.Counter("engine/op/distinct").Inc()
		}
		if shape.sort {
			reg.Counter("engine/op/sort").Inc()
		}
	}
	for _, p := range t.phases {
		reg.Histogram(p.name).Observe(p.d.Seconds())
	}
}

// shapeHistNames memoizes, per shapeKey, the name of the shape's latency
// histogram: a request looks it up instead of rendering and concatenating it.
var shapeHistNames sync.Map

func shapeHistName(k shapeKey) string {
	name, ok := shapeHistNames.Load(k)
	if !ok {
		name, _ = shapeHistNames.LoadOrStore(k, "engine/query/seconds/"+k.String())
	}
	return name.(string)
}
