package slo

import (
	"strings"
	"testing"
	"time"

	"asqprl/internal/obs"
)

// harness bundles a registry, a manually advanced clock, a time series, and
// an engine so tests drive window math deterministically.
type harness struct {
	reg *obs.Registry
	ts  *obs.TimeSeries
	eng *Engine
	now time.Time
}

func newHarness(t *testing.T, defs []Def, worstShape func() (float64, int64, bool)) *harness {
	t.Helper()
	h := &harness{
		reg: obs.NewRegistry(),
		now: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC),
	}
	h.ts = obs.NewTimeSeries(h.reg, func() time.Time { return h.now })
	eng, err := New(h.ts, defs, worstShape)
	if err != nil {
		t.Fatal(err)
	}
	h.eng = eng
	return h
}

// tick advances one sample interval (5s), samples, and evaluates, returning
// the statuses. The fast windows are 12 and 60 ticks long.
func (h *harness) tick() []Status {
	h.now = h.now.Add(obs.SampleInterval)
	h.ts.SampleNow()
	return h.eng.Evaluate()
}

func availDef() Def {
	return Def{
		Name:         "availability",
		Kind:         Availability,
		Objective:    0.9, // budget 0.1
		TotalCounter: "req/total",
		BadCounters:  []string{"req/degraded", "req/errors"},
	}
}

func latencyDef() Def {
	return Def{
		Name:      "latency",
		Kind:      Latency,
		Objective: 0.99,
		Threshold: 0.1, // 100ms
		Metric:    "req/seconds",
	}
}

func one(t *testing.T, sts []Status, name string) Status {
	t.Helper()
	for _, s := range sts {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no status named %q in %+v", name, sts)
	return Status{}
}

func TestAvailabilityBurnMath(t *testing.T) {
	h := newHarness(t, []Def{availDef()}, nil)
	total := h.reg.Counter("req/total")
	bad := h.reg.Counter("req/degraded")

	// Before any events: no data.
	st := one(t, h.tick(), "availability")
	if st.State != StateNoData {
		t.Fatalf("state = %s, want no_data", st.State)
	}

	// Healthy traffic: 100 req/s, all good → error rate 0, burn 0, state ok.
	for i := 0; i < 15; i++ {
		total.Add(100)
		st = one(t, h.tick(), "availability")
	}
	if st.State != StateOK {
		t.Fatalf("state = %s, want ok", st.State)
	}
	for _, wb := range st.Burns {
		if wb.Burn != 0 {
			t.Fatalf("healthy burn = %+v, want 0", wb)
		}
	}

	// Full outage: every request degraded. Error rate 1, budget 0.1 →
	// burn 10 < 14.4 default? Use the window math: with FastBurn default
	// 14.4 a budget of 0.1 can never fast-burn on errRate ≤ 1 (max burn
	// 10), so this harness uses the default engine but asserts exact burn
	// values, then a slow burn.
	for i := 0; i < 40; i++ {
		total.Add(100)
		bad.Add(100)
		st = one(t, h.tick(), "availability")
	}
	// fast_short window (1m) is now all-bad: errRate 1, burn 10.
	fs := st.Burns[0]
	if fs.ErrorRate < 0.99 || fs.Burn < 9.9 || fs.Burn > 10.1 {
		t.Fatalf("outage fast_short = %+v, want errRate~1 burn~10", fs)
	}
	// The slow windows (30m, 6h) reach back to the first sample: 4000 bad of
	// 5500, burn 7.3 ≥ slow threshold 6 on both → slow_burn.
	if st.State != StateSlowBurn {
		t.Fatalf("state = %s, want slow_burn (burn 7.3 vs slow threshold 6)", st.State)
	}
}

func TestLatencyFastBurnAndHysteresis(t *testing.T) {
	h := newHarness(t, []Def{latencyDef()}, nil)
	hist := h.reg.Histogram("req/seconds")

	// Healthy: all requests at 1ms, well under the 100ms threshold.
	var st Status
	for i := 0; i < 15; i++ {
		for j := 0; j < 50; j++ {
			hist.Observe(0.001)
		}
		st = one(t, h.tick(), "latency")
	}
	if st.State != StateOK {
		t.Fatalf("state = %s, want ok", st.State)
	}

	// Outage: every request at 1s. Error rate 1, budget 0.01 → burn 100,
	// over the fast threshold once both fast windows (1m, 5m) carry enough
	// of it; the 5m one still reads from the first sample.
	transitioned := -1
	for i := 0; i < 20; i++ {
		for j := 0; j < 50; j++ {
			hist.Observe(1.0)
		}
		st = one(t, h.tick(), "latency")
		if st.State == StateFastBurn {
			transitioned = i
			break
		}
	}
	if transitioned < 0 {
		t.Fatalf("never entered fast_burn; final %+v", st)
	}
	// The fast_long window (5m) must actually exceed the threshold at the
	// transition — it still holds healthy samples early on, so the
	// transition cannot be instant.
	if transitioned < 1 {
		t.Fatalf("fast_burn after %d ticks — window math ignored the long window", transitioned+1)
	}
	fl := st.Burns[1]
	if fl.Burn < 14.4 {
		t.Fatalf("fast_long burn at transition = %v, want >= 14.4", fl.Burn)
	}
	if st.ExemplarTraceID != "" {
		t.Fatalf("exemplar = %q, want none (untraced observations)", st.ExemplarTraceID)
	}

	// Recovery: traffic healthy again. The state must hold through the
	// hold-down (FastShort = 1m, 12 ticks) and then step down one level at
	// a time rather than snapping to ok.
	sawFast, sawIntermediate := 0, false
	for i := 0; i < 300 && st.State != StateOK; i++ {
		for j := 0; j < 50; j++ {
			hist.Observe(0.001)
		}
		st = one(t, h.tick(), "latency")
		if st.State == StateFastBurn {
			sawFast++
		}
		if st.State == StateSlowBurn {
			sawIntermediate = true
		}
	}
	if st.State != StateOK {
		t.Fatalf("never recovered to ok; stuck at %+v", st)
	}
	if sawFast < 3 {
		t.Fatalf("fast_burn held for %d post-recovery ticks, want >= 3 (hysteresis)", sawFast)
	}
	if !sawIntermediate {
		t.Fatal("state snapped fast_burn → ok without passing slow_burn")
	}
}

func TestQualitySLOWorstShapeAnnotation(t *testing.T) {
	def := Def{
		Name:      "quality",
		Kind:      Quality,
		Objective: 0.95,
		Threshold: 0.1,
		Metric:    "audit/relative_error",
	}
	h := newHarness(t, []Def{def}, func() (float64, int64, bool) { return 0.42, 17, true })
	hist := h.reg.Histogram("audit/relative_error")
	for i := 0; i < 3; i++ {
		hist.Observe(0.01)
		h.tick()
	}
	st := one(t, h.eng.Evaluate(), "quality")
	if st.WorstShapeP95 != 0.42 || st.AuditsCompleted != 17 {
		t.Fatalf("worst shape annotation = %+v", st)
	}
}

func TestExemplarTraceIDSurfaced(t *testing.T) {
	h := newHarness(t, []Def{latencyDef()}, nil)
	hist := h.reg.Histogram("req/seconds")
	tid := obs.TraceID{0xab, 0xcd, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	hist.ObserveExemplar(1.5, tid) // above the 100ms threshold
	h.tick()
	st := one(t, h.eng.Evaluate(), "latency")
	if st.ExemplarTraceID != tid.String() {
		t.Fatalf("exemplar trace = %q, want %q", st.ExemplarTraceID, tid.String())
	}
}

func TestTransitionCallback(t *testing.T) {
	h := newHarness(t, []Def{latencyDef()}, nil)
	hist := h.reg.Histogram("req/seconds")
	var got []Transition
	h.eng.OnTransition(func(tr Transition) { got = append(got, tr) })
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			hist.Observe(1.0)
		}
		h.tick()
	}
	if len(got) == 0 {
		t.Fatal("no transitions delivered")
	}
	last := got[len(got)-1]
	if last.To != StateFastBurn {
		t.Fatalf("last transition = %+v, want → fast_burn", last)
	}
	// Staying in fast_burn must not re-fire.
	n := len(got)
	for i := 0; i < 5; i++ {
		for j := 0; j < 20; j++ {
			hist.Observe(1.0)
		}
		h.tick()
	}
	if len(got) != n {
		t.Fatalf("transitions re-fired while steady: %d → %d", n, len(got))
	}
}

func TestPageAndHumanView(t *testing.T) {
	h := newHarness(t, []Def{availDef(), latencyDef()}, nil)
	h.reg.Counter("req/total").Add(5)
	h.tick()
	p := h.eng.Page()
	if !p.Enabled || len(p.SLOs) != 2 {
		t.Fatalf("page = %+v", p)
	}
	if p.Windows.FastShort != "1m0s" || p.Windows.SlowLong != "6h0m0s" {
		t.Fatalf("windows view = %+v", p.Windows)
	}
	var b strings.Builder
	p.WriteHuman(&b)
	text := b.String()
	for _, want := range []string{"availability", "latency", "budget="} {
		if !strings.Contains(text, want) {
			t.Fatalf("human view missing %q:\n%s", want, text)
		}
	}

	var nilEng *Engine
	np := nilEng.Page()
	if np.Enabled {
		t.Fatal("nil engine page must be disabled")
	}
	b.Reset()
	np.WriteHuman(&b)
	if !strings.Contains(b.String(), "disabled") {
		t.Fatalf("nil human view: %q", b.String())
	}
}

func TestNilEngineNoOps(t *testing.T) {
	var e *Engine
	if sts := e.Evaluate(); sts != nil {
		t.Fatal("nil Evaluate must return nil")
	}
	e.OnTransition(func(Transition) {})
}

func TestDefValidation(t *testing.T) {
	ts := obs.NewTimeSeries(obs.NewRegistry(), nil)
	cases := []Def{
		{Name: "bad-obj", Kind: Latency, Objective: 1.5, Threshold: 1, Metric: "m"},
		{Name: "bad-avail", Kind: Availability, Objective: 0.9},
		{Name: "bad-lat", Kind: Latency, Objective: 0.9},
		{Name: "bad-kind", Kind: "weird", Objective: 0.9},
	}
	for _, d := range cases {
		if _, err := New(ts, []Def{d}, nil); err == nil {
			t.Fatalf("def %+v accepted, want error", d)
		}
	}
}

// TestWindowsFitSampler: every burn window is read over the time it names once
// the sampler's rings have wrapped — fast-long from the fine ring, exactly,
// and slow-long (like slow-short) from the coarse ring, at most one coarse
// step further back. A window past its ring would fall back to the oldest
// retained sample and read less time than /sloz labels it with.
func TestWindowsFitSampler(t *testing.T) {
	h := newHarness(t, nil, nil)
	c := h.reg.Counter("ticks")
	for elapsed := time.Duration(0); elapsed < SlowLong+30*time.Minute; elapsed += obs.SampleInterval {
		c.Inc()
		h.tick()
	}
	for _, w := range []time.Duration{FastShort, FastLong, SlowShort, SlowLong} {
		delta, elapsed, ok := h.ts.CounterWindow("ticks", w)
		if !ok || elapsed < w || elapsed > w+3*time.Minute {
			t.Errorf("%s window read %s (ok=%v), want it plus at most %s", w, elapsed, ok, 3*time.Minute)
		}
		if want := int64(elapsed / obs.SampleInterval); delta != want {
			t.Errorf("%s window: delta %d over %s, want %d", w, delta, elapsed, want)
		}
		if w <= FastLong && elapsed != w {
			t.Errorf("%s window read %s, want exactly its length from the fine ring", w, elapsed)
		}
	}
}
