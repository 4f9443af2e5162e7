package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// TimeSeries turns the cumulative metrics in a Registry into windowed ones.
// A background ticker (or an explicit SampleNow under a test clock) records
// one sample every SampleInterval — counter cumulatives and raw histogram
// bucket cumulatives — into two fixed-size rings: a fine ring at the sampling
// interval and a coarse ring that keeps every coarseEvery-th sample. Windowed
// queries (CounterWindow, HistogramWindow) subtract the retained sample
// nearest the window start from the live registry state: counter deltas give
// ratios, histogram bucket-count differences give windowed quantiles and
// threshold fractions without per-observation cost.
//
// The hot instrumentation path is untouched: writers keep hitting the plain
// atomic Counter/Histogram; all windowing cost lives in the sampler and in
// queries. A nil *TimeSeries is a valid no-op (queries report no data),
// matching the nil-receiver contract used by spans and the auditor.
type TimeSeries struct {
	reg *Registry
	now func() time.Time

	mu        sync.Mutex
	fine      [fineSlots]tsSample // ring
	fineIdx   int                 // next write position
	fineN     int                 // filled slots
	coarse    [coarseSlots]tsSample
	coarseIdx int
	coarseN   int
	ticks     int // samples taken, drives coarse admission

	onSample []func()

	stop    chan struct{}
	done    chan struct{}
	started bool
}

// SampleInterval is the sampler's cadence. The rings' shape: the fine ring
// holds fineSlots samples, and the coarse ring keeps one of every coarseEvery
// of them, coarseSlots deep — 10m40s fine and 6.4h coarse.
const (
	SampleInterval = 5 * time.Second
	fineSlots      = 128
	coarseEvery    = 36
	coarseSlots    = 128
)

// tsSample is one point-in-time capture of the registry.
type tsSample struct {
	at       time.Time
	counters map[string]int64
	hists    map[string]bucketCounts
}

// NewTimeSeries builds a sampler over reg that reads time from now (nil:
// time.Now). Call Start for the background ticker, or drive SampleNow
// manually (tests, fake clocks).
func NewTimeSeries(reg *Registry, now func() time.Time) *TimeSeries {
	if now == nil {
		now = time.Now
	}
	return &TimeSeries{
		reg:  reg,
		now:  now,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Now reads the sampler's clock (time.Now on a nil sampler).
func (ts *TimeSeries) Now() time.Time {
	if ts == nil {
		return time.Now()
	}
	return ts.now()
}

// Registry returns the registry the sampler reads (nil on a nil sampler).
func (ts *TimeSeries) Registry() *Registry {
	if ts == nil {
		return nil
	}
	return ts.reg
}

// OnSample registers fn to run after every sample (ticker or SampleNow),
// outside the ring lock. Register before Start; used by the SLO engine to
// re-evaluate on fresh data.
func (ts *TimeSeries) OnSample(fn func()) {
	if ts == nil || fn == nil {
		return
	}
	ts.mu.Lock()
	ts.onSample = append(ts.onSample, fn)
	ts.mu.Unlock()
}

// Start launches the background ticker. Safe to call once; Close stops it.
func (ts *TimeSeries) Start() {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	if ts.started {
		ts.mu.Unlock()
		return
	}
	ts.started = true
	ts.mu.Unlock()
	go func() {
		defer close(ts.done)
		tick := time.NewTicker(SampleInterval)
		defer tick.Stop()
		ts.SampleNow()
		for {
			select {
			case <-tick.C:
				ts.SampleNow()
			case <-ts.stop:
				return
			}
		}
	}()
}

// Close stops the background ticker, if started.
func (ts *TimeSeries) Close() {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	started := ts.started
	ts.started = false
	ts.mu.Unlock()
	if started {
		close(ts.stop)
		<-ts.done
	}
}

// SampleNow captures one sample at the sampler's clock's current time and
// then runs the OnSample callbacks.
func (ts *TimeSeries) SampleNow() {
	if ts == nil {
		return
	}
	s := ts.capture(ts.now())
	ts.mu.Lock()
	ts.fine[ts.fineIdx] = s
	ts.fineIdx = (ts.fineIdx + 1) % fineSlots
	ts.fineN = min(ts.fineN+1, fineSlots)
	if ts.ticks%coarseEvery == 0 {
		ts.coarse[ts.coarseIdx] = s
		ts.coarseIdx = (ts.coarseIdx + 1) % coarseSlots
		ts.coarseN = min(ts.coarseN+1, coarseSlots)
	}
	ts.ticks++
	cbs := ts.onSample
	ts.mu.Unlock()
	for _, fn := range cbs {
		fn()
	}
}

// capture reads the registry's cumulative state.
func (ts *TimeSeries) capture(at time.Time) tsSample {
	r := ts.reg
	r.mu.RLock()
	s := tsSample{
		at:       at,
		counters: make(map[string]int64, len(r.counters)),
		hists:    make(map[string]bucketCounts, len(r.hists)),
	}
	for name, c := range r.counters {
		s.counters[name] = c.Value()
	}
	for name, h := range r.hists {
		s.hists[name] = h.buckets()
	}
	r.mu.RUnlock()
	return s
}

// baseline returns the retained sample closest to (and at or before) target,
// falling back to the oldest retained sample when the window predates
// retention or server start. ok is false when no samples exist yet.
func (ts *TimeSeries) baseline(target time.Time) (tsSample, bool) {
	var best tsSample
	var bestOK bool
	var oldest tsSample
	var oldestOK bool
	consider := func(s tsSample) {
		if s.at.IsZero() {
			return
		}
		if !oldestOK || s.at.Before(oldest.at) {
			oldest, oldestOK = s, true
		}
		if s.at.After(target) {
			return
		}
		if !bestOK || s.at.After(best.at) {
			best, bestOK = s, true
		}
	}
	for i := 0; i < ts.coarseN; i++ {
		consider(ts.coarse[i])
	}
	for i := 0; i < ts.fineN; i++ {
		consider(ts.fine[i])
	}
	if bestOK {
		return best, true
	}
	return oldest, oldestOK
}

// CounterWindow returns the increase of counter name over the trailing
// window, together with the actual elapsed span covered (shorter than the
// window right after start). ok is false before the first sample.
func (ts *TimeSeries) CounterWindow(name string, window time.Duration) (delta int64, elapsed time.Duration, ok bool) {
	if ts == nil {
		return 0, 0, false
	}
	now := ts.now()
	ts.mu.Lock()
	base, bok := ts.baseline(now.Add(-window))
	ts.mu.Unlock()
	if !bok {
		return 0, 0, false
	}
	cur := ts.reg.Counter(name).Value()
	delta = cur - base.counters[name]
	if delta < 0 { // registry reset between samples
		delta = 0
	}
	elapsed = now.Sub(base.at)
	if elapsed < 0 {
		elapsed = 0
	}
	return delta, elapsed, true
}

// HistWindow is a histogram restricted to a trailing time window, built by
// subtracting the baseline sample's bucket cumulatives from the live ones.
type HistWindow struct {
	Count int64
	b     bucketCounts
}

// Quantile estimates the q-th quantile of the windowed observations with
// Histogram.Quantile's interpolation, unclamped: windowed extrema are not
// tracked.
func (hw HistWindow) Quantile(q float64) float64 {
	return hw.b.quantile(q, math.Inf(-1), math.Inf(1))
}

// FractionBelow estimates the fraction of windowed observations ≤ v. It
// returns 1 for an empty window (no observations means no violations).
func (hw HistWindow) FractionBelow(v float64) float64 { return hw.b.fractionBelow(v) }

// HistogramWindow returns histogram name restricted to the trailing window,
// plus the actual elapsed span covered. ok is false before the first sample.
func (ts *TimeSeries) HistogramWindow(name string, window time.Duration) (hw HistWindow, elapsed time.Duration, ok bool) {
	if ts == nil {
		return HistWindow{}, 0, false
	}
	now := ts.now()
	ts.mu.Lock()
	base, bok := ts.baseline(now.Add(-window))
	ts.mu.Unlock()
	if !bok {
		return HistWindow{}, 0, false
	}
	cur := ts.reg.Histogram(name).buckets()
	bc := base.hists[name] // zero value when the histogram postdates the baseline
	hw.b = cur.minus(&bc)
	hw.Count = hw.b.total
	elapsed = now.Sub(base.at)
	if elapsed < 0 {
		elapsed = 0
	}
	return hw, elapsed, true
}

// SeriesPoint is one per-interval value in a dumped series.
type SeriesPoint struct {
	At time.Time `json:"at"`
	V  float64   `json:"v"`
}

// HistPoint is one per-interval histogram summary in a dumped series.
type HistPoint struct {
	At    time.Time `json:"at"`
	Count int64     `json:"count"`
	P50   float64   `json:"p50"`
	P99   float64   `json:"p99"`
}

// SeriesDump is a chartable export of the fine ring: counters as
// per-interval deltas, histograms as per-interval
// count and p50/p99. Used by flight-recorder bundles.
type SeriesDump struct {
	Interval   string                   `json:"interval"`
	Counters   map[string][]SeriesPoint `json:"counters,omitempty"`
	Histograms map[string][]HistPoint   `json:"histograms,omitempty"`
}

// DumpSeries renders the fine ring oldest-first.
func (ts *TimeSeries) DumpSeries() SeriesDump {
	dump := SeriesDump{
		Counters:   map[string][]SeriesPoint{},
		Histograms: map[string][]HistPoint{},
	}
	if ts == nil {
		return dump
	}
	dump.Interval = SampleInterval.String()
	ts.mu.Lock()
	samples := make([]tsSample, 0, ts.fineN)
	for i := 0; i < ts.fineN; i++ {
		samples = append(samples, ts.fine[(ts.fineIdx-ts.fineN+i+fineSlots)%fineSlots])
	}
	ts.mu.Unlock()
	sort.Slice(samples, func(i, j int) bool { return samples[i].at.Before(samples[j].at) })
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		for name, v := range cur.counters {
			d := v - prev.counters[name]
			if d < 0 {
				d = 0
			}
			dump.Counters[name] = append(dump.Counters[name], SeriesPoint{At: cur.at, V: float64(d)})
		}
		for name, hc := range cur.hists {
			pc := prev.hists[name]
			hw := HistWindow{b: hc.minus(&pc)}
			dump.Histograms[name] = append(dump.Histograms[name], HistPoint{
				At:    cur.at,
				Count: hw.b.total,
				P50:   hw.Quantile(0.50),
				P99:   hw.Quantile(0.99),
			})
		}
	}
	return dump
}
