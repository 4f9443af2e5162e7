// Package slo evaluates declarative service-level objectives as multi-window
// burn rates over the windowed telemetry in internal/obs.
//
// Every SLO is reduced to one ratio SLI — the fraction of "good" events over
// a trailing window:
//
//   - availability: good = request answered without degradation or error
//     (counter deltas: bad counters over a total counter);
//   - latency: good = request latency ≤ the target threshold (histogram
//     bucket interpolation, so a p99 target becomes "≥ 99% of requests under
//     the target");
//   - quality: good = audited relative error ≤ the target threshold (same
//     mechanism over the audit error histogram).
//
// The error budget is 1 − objective. The burn rate over a window is
// (observed error rate) / budget: burn 1 means the budget exactly lasts the
// SLO period; burn 14.4 exhausts a 30-day budget in 2 days. Following the
// multi-window practice from the SRE literature, an SLO enters fast_burn
// when both a short confirmation window and a longer fast window exceed the
// fast threshold (14.4), and slow_burn when both slow windows exceed the slow
// threshold (6). Downward transitions are hysteretic: the state only relaxes
// after the condition has stayed clear for the fast-short window, so a burn
// that flaps around the threshold does not flap the state (or re-trigger the
// flight recorder).
//
// The windows are constants — 1m and 5m fast, 30m and 6h slow, read from an
// obs.TimeSeries sampling every obs.SampleInterval on its own clock — so the
// objectives are the only settings: a Def carries its objective and
// threshold, and nothing else about the evaluation is configured.
package slo

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"asqprl/internal/obs"
)

// Kind classifies what an SLO protects.
type Kind string

const (
	Availability Kind = "availability"
	Latency      Kind = "latency"
	Quality      Kind = "quality"
)

// States, ordered by severity.
const (
	StateNoData   = "no_data"
	StateOK       = "ok"
	StateSlowBurn = "slow_burn"
	StateFastBurn = "fast_burn"
)

// stateLevel orders states for hysteresis (higher = worse).
func stateLevel(s string) int {
	switch s {
	case StateFastBurn:
		return 2
	case StateSlowBurn:
		return 1
	default:
		return 0
	}
}

// Def declares one SLO.
type Def struct {
	// Name identifies the SLO in /sloz, /stats, metrics, and bundles.
	Name string
	// Kind is availability, latency, or quality.
	Kind Kind
	// Objective is the target good-event ratio in (0, 1), e.g. 0.99 for a
	// p99 latency target or 0.95 for an error-p95 quality target.
	Objective float64
	// Threshold is the per-event good/bad cut: seconds for latency,
	// relative error for quality. Unused for availability.
	Threshold float64
	// Metric is the histogram the SLI reads (latency, quality).
	Metric string
	// TotalCounter / BadCounters define the availability ratio.
	TotalCounter string
	BadCounters  []string
}

// The four burn-rate evaluation windows. The sampler keeps a fine ring of
// 10m40s and a coarse one of 6.4h at obs.SampleInterval, so each window is
// read over the time it names once the process has been up that long; before
// then it reads from process start.
const (
	FastShort = time.Minute      // fast-burn confirmation window
	FastLong  = 5 * time.Minute  // fast-burn window
	SlowShort = 30 * time.Minute // slow-burn confirmation window
	SlowLong  = 6 * time.Hour    // slow-burn window
)

// WindowsView is the JSON rendering of a window set.
type WindowsView struct {
	FastShort string `json:"fast_short"`
	FastLong  string `json:"fast_long"`
	SlowShort string `json:"slow_short"`
	SlowLong  string `json:"slow_long"`
}

// windowsView is the window set as /sloz renders it.
var windowsView = WindowsView{
	FastShort: FastShort.String(),
	FastLong:  FastLong.String(),
	SlowShort: SlowShort.String(),
	SlowLong:  SlowLong.String(),
}

// The burn-rate thresholds of the multi-window rule. A state relaxes only
// after its burn condition has stayed clear for the fast-short window.
const (
	fastBurn = 14.4
	slowBurn = 6
)

// WindowBurn is one window's contribution to a status.
type WindowBurn struct {
	Window    string  `json:"window"`
	ErrorRate float64 `json:"error_rate"`
	Burn      float64 `json:"burn"`
	Events    int64   `json:"events"`
}

// Status is the evaluated state of one SLO.
type Status struct {
	Name            string       `json:"name"`
	Kind            string       `json:"kind"`
	Objective       float64      `json:"objective"`
	Threshold       float64      `json:"threshold,omitempty"`
	State           string       `json:"state"`
	Since           time.Time    `json:"since"`
	Burns           []WindowBurn `json:"burns"`
	BudgetConsumed  float64      `json:"budget_consumed"`
	ExemplarTraceID string       `json:"exemplar_trace_id,omitempty"`
	WorstShapeP95   float64      `json:"worst_shape_p95,omitempty"`
	AuditsCompleted int64        `json:"audits_completed,omitempty"`
}

// Page is the /sloz payload.
type Page struct {
	Enabled     bool        `json:"enabled"`
	Windows     WindowsView `json:"windows"`
	FastBurn    float64     `json:"fast_burn_threshold"`
	SlowBurn    float64     `json:"slow_burn_threshold"`
	SLOs        []Status    `json:"slos,omitempty"`
	FastBurning []string    `json:"fast_burning,omitempty"`
	EvaluatedAt time.Time   `json:"evaluated_at"`
}

// Transition describes one state change, delivered to OnTransition.
type Transition struct {
	SLO      Status
	From, To string
}

// sloState is the engine's per-SLO mutable state.
type sloState struct {
	def   Def
	state string
	since time.Time
	// lastAtOrAbove[level] is the last evaluation time at which the raw
	// (hysteresis-free) level was ≥ level; downward transitions wait until
	// the fast-short window has passed since then.
	lastAtOrAbove [3]time.Time
	last          Status
}

// Engine evaluates a fixed set of SLOs against a TimeSeries, on the
// sampler's clock.
type Engine struct {
	ts         *obs.TimeSeries
	worstShape func() (p95 float64, completed int64, ok bool)

	mu       sync.Mutex
	states   []*sloState
	lastEval time.Time
	onTrans  func(Transition)
}

// New builds an engine over ts. Defs with out-of-range objectives are
// rejected. worstShape, when non-nil, annotates the quality SLO status with
// the worst-audited plan shape (from the shadow auditor). A latency or
// quality status names the exemplar trace behind a threshold violation from
// the histogram in ts's registry. A nil *Engine is a valid no-op (Page
// reports disabled).
func New(ts *obs.TimeSeries, defs []Def, worstShape func() (p95 float64, completed int64, ok bool)) (*Engine, error) {
	e := &Engine{ts: ts, worstShape: worstShape}
	for _, d := range defs {
		if d.Objective <= 0 || d.Objective >= 1 {
			return nil, fmt.Errorf("slo %q: objective %v outside (0,1)", d.Name, d.Objective)
		}
		switch d.Kind {
		case Availability:
			if d.TotalCounter == "" || len(d.BadCounters) == 0 {
				return nil, fmt.Errorf("slo %q: availability needs total and bad counters", d.Name)
			}
		case Latency, Quality:
			if d.Metric == "" || d.Threshold <= 0 {
				return nil, fmt.Errorf("slo %q: %s needs a metric and a positive threshold", d.Name, d.Kind)
			}
		default:
			return nil, fmt.Errorf("slo %q: unknown kind %q", d.Name, d.Kind)
		}
		e.states = append(e.states, &sloState{def: d, state: StateNoData})
	}
	return e, nil
}

// OnTransition registers fn to receive state changes (called synchronously
// from Evaluate, outside the engine lock). The flight recorder hooks here.
func (e *Engine) OnTransition(fn func(Transition)) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.onTrans = fn
	e.mu.Unlock()
}

// windowSLI evaluates one SLO's error rate over one window.
func (e *Engine) windowSLI(def Def, window time.Duration) (errRate float64, events int64, ok bool) {
	switch def.Kind {
	case Availability:
		total, _, tok := e.ts.CounterWindow(def.TotalCounter, window)
		if !tok || total == 0 {
			return 0, 0, tok
		}
		var bad int64
		for _, name := range def.BadCounters {
			d, _, _ := e.ts.CounterWindow(name, window)
			bad += d
		}
		if bad > total {
			bad = total
		}
		return float64(bad) / float64(total), total, true
	default: // Latency, Quality
		hw, _, hok := e.ts.HistogramWindow(def.Metric, window)
		if !hok || hw.Count == 0 {
			return 0, 0, hok
		}
		return 1 - hw.FractionBelow(def.Threshold), hw.Count, true
	}
}

// Evaluate re-computes every SLO's burn rates and state at the current
// clock, returning the statuses. Transitions fire the OnTransition hook.
func (e *Engine) Evaluate() []Status {
	if e == nil {
		return nil
	}
	now := e.ts.Now()
	specs := []struct {
		label string
		dur   time.Duration
	}{
		{"fast_short", FastShort},
		{"fast_long", FastLong},
		{"slow_short", SlowShort},
		{"slow_long", SlowLong},
	}

	e.mu.Lock()
	var trans []Transition
	out := make([]Status, 0, len(e.states))
	for _, st := range e.states {
		def := st.def
		budget := 1 - def.Objective
		burns := make([]WindowBurn, 0, len(specs))
		rawBurn := make(map[string]float64, len(specs))
		rawEvents := make(map[string]int64, len(specs))
		anyData := false
		for _, sp := range specs {
			errRate, events, ok := e.windowSLI(def, sp.dur)
			burn := 0.0
			if ok && events > 0 {
				burn = errRate / budget
				anyData = true
			}
			rawBurn[sp.label] = burn
			rawEvents[sp.label] = events
			burns = append(burns, WindowBurn{
				Window:    sp.dur.String(),
				ErrorRate: errRate,
				Burn:      burn,
				Events:    events,
			})
		}

		// Raw level from the multi-window rule: both windows of a pair must
		// have evidence and exceed the threshold.
		rawLevel := 0
		if rawEvents["slow_short"] > 0 && rawEvents["slow_long"] > 0 &&
			rawBurn["slow_short"] >= slowBurn && rawBurn["slow_long"] >= slowBurn {
			rawLevel = 1
		}
		if rawEvents["fast_short"] > 0 && rawEvents["fast_long"] > 0 &&
			rawBurn["fast_short"] >= fastBurn && rawBurn["fast_long"] >= fastBurn {
			rawLevel = 2
		}
		for l := 0; l <= rawLevel; l++ {
			st.lastAtOrAbove[l] = now
		}

		prev := st.state
		next := prev
		switch {
		case !anyData && stateLevel(prev) == 0:
			next = StateNoData
		case rawLevel > stateLevel(prev):
			next = levelState(rawLevel)
		case rawLevel < stateLevel(prev):
			// Hysteresis: relax one level at a time, only after the level
			// has stayed clear for the fast-short window.
			cur := stateLevel(prev)
			if now.Sub(st.lastAtOrAbove[cur]) >= FastShort {
				next = levelState(cur - 1)
				if next == StateOK && !anyData {
					next = StateNoData
				}
			}
		case prev == StateNoData && anyData:
			next = StateOK
		}
		if next != prev {
			st.since = now
			st.state = next
		}
		if st.since.IsZero() {
			st.since = now
		}

		status := Status{
			Name:      def.Name,
			Kind:      string(def.Kind),
			Objective: def.Objective,
			Threshold: def.Threshold,
			State:     st.state,
			Since:     st.since,
			Burns:     burns,
			// With the budget defined over the slow-long period, the
			// fraction consumed equals that window's burn rate, capped at 1.
			BudgetConsumed: clamp01(rawBurn["slow_long"]),
		}
		if reg := e.ts.Registry(); def.Kind != Availability && reg != nil {
			if ex, ok := reg.Histogram(def.Metric).ExemplarAbove(def.Threshold); ok {
				status.ExemplarTraceID = ex.TraceID
			}
		}
		if def.Kind == Quality && e.worstShape != nil {
			if p95, completed, ok := e.worstShape(); ok {
				status.WorstShapeP95 = p95
				status.AuditsCompleted = completed
			}
		}
		st.last = status
		out = append(out, status)
		if st.state != prev {
			trans = append(trans, Transition{SLO: status, From: prev, To: st.state})
		}
	}
	e.lastEval = now
	cb := e.onTrans
	e.mu.Unlock()

	if cb != nil {
		for _, tr := range trans {
			cb(tr)
		}
	}
	return out
}

func levelState(l int) string {
	switch l {
	case 2:
		return StateFastBurn
	case 1:
		return StateSlowBurn
	default:
		return StateOK
	}
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Page renders the last evaluation (evaluating once if none has happened
// yet). Safe on a nil engine: reports disabled.
func (e *Engine) Page() Page {
	if e == nil {
		return Page{Enabled: false}
	}
	e.mu.Lock()
	evaluated := !e.lastEval.IsZero()
	e.mu.Unlock()
	if !evaluated {
		e.Evaluate()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p := Page{
		Enabled:     true,
		Windows:     windowsView,
		FastBurn:    fastBurn,
		SlowBurn:    slowBurn,
		EvaluatedAt: e.lastEval,
	}
	for _, st := range e.states {
		p.SLOs = append(p.SLOs, st.last)
		if st.state == StateFastBurn {
			p.FastBurning = append(p.FastBurning, st.def.Name)
		}
	}
	sort.Strings(p.FastBurning)
	return p
}

// WriteHuman renders the page as a plaintext table for /sloz?view=human.
func (p Page) WriteHuman(b *strings.Builder) {
	if !p.Enabled {
		b.WriteString("SLOs: disabled (no objectives configured)\n")
		return
	}
	fmt.Fprintf(b, "SLOs  evaluated %s  windows %s/%s/%s/%s  fast>=%.1f slow>=%.1f\n\n",
		p.EvaluatedAt.Format(time.RFC3339),
		p.Windows.FastShort, p.Windows.FastLong, p.Windows.SlowShort, p.Windows.SlowLong,
		p.FastBurn, p.SlowBurn)
	for _, s := range p.SLOs {
		marker := " "
		switch s.State {
		case StateFastBurn:
			marker = "!"
		case StateSlowBurn:
			marker = "~"
		}
		fmt.Fprintf(b, "%s %-12s %-13s obj=%.4g", marker, s.Name, s.Kind, s.Objective)
		if s.Threshold > 0 {
			fmt.Fprintf(b, " thr=%.4g", s.Threshold)
		}
		fmt.Fprintf(b, "  state=%s since %s  budget=%.1f%%\n",
			s.State, s.Since.Format(time.RFC3339), 100*s.BudgetConsumed)
		for _, wb := range s.Burns {
			fmt.Fprintf(b, "    %-8s err=%.4f burn=%8.2f events=%d\n",
				wb.Window, wb.ErrorRate, wb.Burn, wb.Events)
		}
		if s.ExemplarTraceID != "" {
			fmt.Fprintf(b, "    exemplar trace %s\n", s.ExemplarTraceID)
		}
		if s.WorstShapeP95 > 0 {
			fmt.Fprintf(b, "    worst shape p95 %.4f over %d audits\n", s.WorstShapeP95, s.AuditsCompleted)
		}
	}
}
