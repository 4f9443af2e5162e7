package audit

import (
	"sort"
	"time"

	"asqprl/internal/obs"
)

// MetricRelativeError names the pooled relative-error histogram: every
// completed audit observes into it. The serving layer's quality SLO reads it
// by this name; the trace behind a verdict is the "audit" event run amends
// onto the request's kept trace.
const MetricRelativeError = "audit/relative_error"

var relativeError = obs.Default().Histogram(MetricRelativeError)

// maxShapes bounds the per-shape stats map, which evicts oldest-first.
const maxShapes = 256

// shapeStats aggregates audit verdicts for one query shape. A shape is the
// answering execution's plan shape (engine.Plan.Shape) — coarse
// enough that repeated exploratory variations of one query pattern pool
// their error evidence, fine enough that a sick join pattern does not hide
// behind healthy point lookups.
type shapeStats struct {
	hist *obs.Histogram

	// worst offender for this shape, updated under Auditor.mu.
	worstErr   float64
	worstTrace string
	worstSQL   string
	lastSQL    string
	lastAt     time.Time
	degraded   int64
}

// record folds one audit verdict into its shape's aggregation, unless the
// audited answer came from a generation SetGeneration has retired. The shape
// map is bounded with FIFO eviction; evictions only forget history, never
// block.
func (a *Auditor) record(j job, relErr float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if j.served.Generation != a.gen {
		return
	}
	shape := j.served.Shape
	st := a.shapes[shape]
	if st == nil {
		if len(a.order) >= maxShapes {
			oldest := a.order[0]
			a.order = a.order[1:]
			delete(a.shapes, oldest)
		}
		st = &shapeStats{hist: obs.NewHistogram()}
		a.shapes[shape] = st
		a.order = append(a.order, shape)
	}
	st.hist.Observe(relErr)
	st.lastSQL = j.served.SQL
	st.lastAt = time.Now()
	if j.served.Degraded {
		st.degraded++
	}
	if relErr >= st.worstErr && (relErr > st.worstErr || st.worstTrace == "") {
		st.worstErr = relErr
		st.worstTrace = j.served.TraceID.String()
		st.worstSQL = j.served.SQL
	}
}

// SetGeneration retires the per-shape tables — the shape histograms and
// their worst offenders — and folds only verdicts on
// answers served by generation gen from here on. The serving layer calls it
// on every publish, rollback included. Nil-safe.
func (a *Auditor) SetGeneration(gen int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gen = gen
	a.shapes = map[string]*shapeStats{}
	a.order = nil
}

// ObservedError returns the p95 relative error the live generation's audits
// measured for answers of the given plan shape (Served.Shape), and whether
// any such evidence exists. It backs the optional observed_error field on
// /query responses: "answers shaped like yours have measured error ≤ X 95%
// of the time" — for every statement of an audited shape, audited itself or
// not. Nil-safe; a disabled auditor, and the empty shape, have no evidence.
func (a *Auditor) ObservedError(shape string) (float64, bool) {
	if a == nil || shape == "" {
		return 0, false
	}
	a.mu.Lock()
	st := a.shapes[shape]
	a.mu.Unlock()
	if st == nil || st.hist.Count() == 0 {
		return 0, false
	}
	return st.hist.Quantile(0.95), true
}

// WorstShapeP95 returns the worst per-shape p95 relative error of the live
// generation's audits, plus the number of audits backing the figure. ok is
// false when auditing is disabled or the live generation has no verdict yet —
// callers (the retrain controller's rollback window) then have no quality
// signal and must not act on the zeros. The per-shape p95 is the right
// rollback signal: a retrained set that regresses one query pattern shows up
// in that shape's histogram immediately, where a pooled global quantile would
// dilute it under healthy traffic.
func (a *Auditor) WorstShapeP95() (p95 float64, audits int64, ok bool) {
	if a == nil {
		return 0, 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, st := range a.shapes {
		p95 = max(p95, st.hist.Quantile(0.95))
		audits += st.hist.Count()
	}
	return p95, audits, len(a.shapes) > 0
}

// Summary is the compact audit rollup embedded as the "quality" block of
// /stats.
type Summary struct {
	Enabled    bool    `json:"enabled"`
	SampleRate float64 `json:"sample_rate"`
	Eligible   int64   `json:"eligible"`
	Sampled    int64   `json:"sampled"`
	Completed  int64   `json:"completed"`
	Failed     int64   `json:"failed"`
	Dropped    int64   `json:"dropped"`
	Deferred   int64   `json:"deferred"`
	// Coverage is completed / eligible — the fraction of eligible answers
	// whose error has actually been measured.
	Coverage float64 `json:"coverage"`
	// ErrorP50/P95/Max summarize relative error across ALL completed audits
	// (with metric recording off, ErrorMax is the live generation's).
	ErrorP50 float64 `json:"error_p50"`
	ErrorP95 float64 `json:"error_p95"`
	ErrorMax float64 `json:"error_max"`
	// Shapes counts the query shapes the live generation's audits cover.
	Shapes int `json:"shapes"`
}

// Stats returns the audit rollup. Nil-safe: a disabled auditor reports
// Enabled false and zeros.
func (a *Auditor) Stats() Summary {
	if a == nil {
		return Summary{}
	}
	s := Summary{
		Enabled:    true,
		SampleRate: a.cfg.SampleRate,
		Eligible:   a.eligible.Load(),
		Sampled:    a.sampled.Load(),
		Completed:  a.completed.Load(),
		Failed:     a.failed.Load(),
		Dropped:    a.dropped.Load(),
		Deferred:   a.deferrals.Load(),
	}
	if s.Eligible > 0 {
		s.Coverage = float64(s.Completed) / float64(s.Eligible)
	}
	// Global quantiles come from the pooled registry histogram when
	// observability is on; the per-shape max is tracked either way.
	a.mu.Lock()
	s.Shapes = len(a.shapes)
	for _, st := range a.shapes {
		if m := st.hist.Max(); m > s.ErrorMax {
			s.ErrorMax = m
		}
	}
	a.mu.Unlock()
	if obs.Enabled() && relativeError.Count() > 0 {
		s.ErrorP50 = relativeError.Quantile(0.50)
		s.ErrorP95 = relativeError.Quantile(0.95)
		s.ErrorMax = relativeError.Max()
	}
	return s
}

// ShapeReport is one query shape's observed-error profile in /qualityz,
// including its worst offender with the trace ID to jump to in /tracez.
type ShapeReport struct {
	Shape      string    `json:"shape"`
	Count      int64     `json:"count"`
	Degraded   int64     `json:"degraded"`
	P50        float64   `json:"p50"`
	P95        float64   `json:"p95"`
	Max        float64   `json:"max"`
	WorstErr   float64   `json:"worst_error"`
	WorstTrace string    `json:"worst_trace_id,omitempty"`
	WorstSQL   string    `json:"worst_sql,omitempty"`
	LastSQL    string    `json:"last_sql,omitempty"`
	LastAt     time.Time `json:"last_at"`
}

// DriftStatus is the drift-detector view composed into QualityPage by the
// serving layer (the auditor itself does not depend on core).
type DriftStatus struct {
	Enabled bool `json:"enabled"`
	// Drifted is the number of deviating queries accumulated since the last
	// fine-tune; Threshold is the count that triggers fine-tuning.
	Drifted   int  `json:"drifted"`
	Threshold int  `json:"threshold"`
	Triggered bool `json:"triggered"`
}

// QualityPage is the full /qualityz payload: the audit rollup, every shape
// the live generation's audits cover, sorted worst-p95 first (so the top of
// the list IS the worst-offenders list), and the drift status.
type QualityPage struct {
	Audit  Summary       `json:"audit"`
	Shapes []ShapeReport `json:"shapes,omitempty"`
	Drift  *DriftStatus  `json:"drift,omitempty"`
}

// Page renders the /qualityz payload. drift may be nil (no system loaded or
// drift observation off). Nil-safe: a disabled auditor renders an empty page
// with Audit.Enabled false, so the endpoint is always mounted.
func (a *Auditor) Page(drift *DriftStatus) QualityPage {
	p := QualityPage{Audit: a.Stats(), Drift: drift}
	if a == nil {
		return p
	}
	a.mu.Lock()
	for shape, st := range a.shapes {
		p.Shapes = append(p.Shapes, ShapeReport{
			Shape:      shape,
			Count:      st.hist.Count(),
			Degraded:   st.degraded,
			P50:        st.hist.Quantile(0.50),
			P95:        st.hist.Quantile(0.95),
			Max:        st.hist.Max(),
			WorstErr:   st.worstErr,
			WorstTrace: st.worstTrace,
			WorstSQL:   st.worstSQL,
			LastSQL:    st.lastSQL,
			LastAt:     st.lastAt,
		})
	}
	a.mu.Unlock()
	sort.Slice(p.Shapes, func(i, j int) bool {
		if p.Shapes[i].P95 != p.Shapes[j].P95 {
			return p.Shapes[i].P95 > p.Shapes[j].P95
		}
		return p.Shapes[i].Shape < p.Shapes[j].Shape
	})
	return p
}
