package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// TimeSeries turns the cumulative metrics in a Registry into windowed ones.
// A background ticker (or an explicit SampleNow under a test clock) records
// one sample per interval — counter cumulatives and raw histogram bucket
// cumulatives — into two fixed-size rings: a fine ring at the sampling
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
	reg  *Registry
	opts TimeSeriesOptions

	mu        sync.Mutex
	fine      []tsSample // ring, len == FineSlots once warm
	fineIdx   int        // next write position
	fineN     int        // filled slots
	coarse    []tsSample
	coarseIdx int
	coarseN   int
	ticks     int // samples taken, drives coarse admission

	onSample []func()

	stop    chan struct{}
	done    chan struct{}
	started bool
}

// TimeSeriesOptions configures sampling cadence and retention.
type TimeSeriesOptions struct {
	// Interval is the fine sampling cadence (default 5s).
	Interval time.Duration
	// FineSlots is the fine ring length (default 128 → ~10m40s at 5s).
	FineSlots int
	// CoarseEvery keeps one of every N fine samples in the coarse ring
	// (default 36 → one per 3m at 5s).
	CoarseEvery int
	// CoarseSlots is the coarse ring length (default 128 → ~6.4h at 3m).
	CoarseSlots int
	// Now is the clock; defaults to time.Now. Injectable for deterministic
	// window-math tests.
	Now func() time.Time
}

func (o *TimeSeriesOptions) normalize() {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Second
	}
	if o.FineSlots <= 0 {
		o.FineSlots = 128
	}
	if o.CoarseEvery <= 0 {
		o.CoarseEvery = 36
	}
	if o.CoarseSlots <= 0 {
		o.CoarseSlots = 128
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// histCum is one histogram's cumulative state at a sample instant.
type histCum struct {
	counts [numBuckets + 1]int64
	count  int64
	sum    float64
}

// tsSample is one point-in-time capture of the registry.
type tsSample struct {
	at       time.Time
	counters map[string]int64
	hists    map[string]histCum
}

// NewTimeSeries builds a sampler over reg. Call Start for the background
// ticker, or drive SampleNow manually (tests, fake clocks).
func NewTimeSeries(reg *Registry, opts TimeSeriesOptions) *TimeSeries {
	opts.normalize()
	return &TimeSeries{
		reg:    reg,
		opts:   opts,
		fine:   make([]tsSample, opts.FineSlots),
		coarse: make([]tsSample, opts.CoarseSlots),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
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
		tick := time.NewTicker(ts.opts.Interval)
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

// SampleNow captures one sample at the configured clock's current time and
// then runs the OnSample callbacks.
func (ts *TimeSeries) SampleNow() {
	if ts == nil {
		return
	}
	s := ts.capture(ts.opts.Now())
	ts.mu.Lock()
	ts.fine[ts.fineIdx] = s
	ts.fineIdx = (ts.fineIdx + 1) % len(ts.fine)
	if ts.fineN < len(ts.fine) {
		ts.fineN++
	}
	if ts.ticks%ts.opts.CoarseEvery == 0 {
		ts.coarse[ts.coarseIdx] = s
		ts.coarseIdx = (ts.coarseIdx + 1) % len(ts.coarse)
		if ts.coarseN < len(ts.coarse) {
			ts.coarseN++
		}
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
		hists:    make(map[string]histCum, len(r.hists)),
	}
	for name, c := range r.counters {
		s.counters[name] = c.Value()
	}
	for name, h := range r.hists {
		s.hists[name] = h.cum()
	}
	r.mu.RUnlock()
	return s
}

// cum reads a histogram's cumulative bucket counts, total, and sum.
func (h *Histogram) cum() histCum {
	var c histCum
	for i := 0; i <= numBuckets; i++ {
		c.counts[i] = h.counts[i].Load()
	}
	c.count = h.count.Load()
	c.sum = h.Sum()
	return c
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
	now := ts.opts.Now()
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
	Count  int64
	Sum    float64
	counts [numBuckets + 1]int64
}

// Quantile estimates the q-th quantile of the windowed observations using
// the same bucket interpolation as Histogram.Quantile (without extrema
// clamping — windowed extrema are not tracked).
func (hw HistWindow) Quantile(q float64) float64 {
	if hw.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(hw.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i <= numBuckets; i++ {
		c := hw.counts[i]
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo, hi := bucketRange(i)
		frac := float64(rank-cum) / float64(c)
		return lo + (hi-lo)*frac
	}
	_, hi := bucketRange(numBuckets)
	return hi
}

// FractionBelow estimates the fraction of windowed observations ≤ v,
// interpolating linearly inside the bucket containing v. Returns 1 for an
// empty window (no observations means no violations).
func (hw HistWindow) FractionBelow(v float64) float64 {
	if hw.Count == 0 {
		return 1
	}
	var below float64
	for i := 0; i <= numBuckets; i++ {
		c := hw.counts[i]
		if c == 0 {
			continue
		}
		lo, hi := bucketRange(i)
		switch {
		case hi <= v:
			below += float64(c)
		case lo >= v:
			// bucket entirely above v
		default:
			below += float64(c) * (v - lo) / (hi - lo)
		}
	}
	f := below / float64(hw.Count)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// HistogramWindow returns histogram name restricted to the trailing window,
// plus the actual elapsed span covered. ok is false before the first sample.
func (ts *TimeSeries) HistogramWindow(name string, window time.Duration) (hw HistWindow, elapsed time.Duration, ok bool) {
	if ts == nil {
		return HistWindow{}, 0, false
	}
	now := ts.opts.Now()
	ts.mu.Lock()
	base, bok := ts.baseline(now.Add(-window))
	ts.mu.Unlock()
	if !bok {
		return HistWindow{}, 0, false
	}
	cur := ts.reg.Histogram(name).cum()
	bc := base.hists[name] // zero value when the histogram postdates the baseline
	for i := 0; i <= numBuckets; i++ {
		d := cur.counts[i] - bc.counts[i]
		if d < 0 {
			d = 0
		}
		hw.counts[i] = d
		hw.Count += d
	}
	hw.Sum = cur.sum - bc.sum
	if hw.Sum < 0 {
		hw.Sum = 0
	}
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
	dump.Interval = ts.opts.Interval.String()
	ts.mu.Lock()
	samples := make([]tsSample, 0, ts.fineN)
	for i := 0; i < ts.fineN; i++ {
		samples = append(samples, ts.fine[(ts.fineIdx-ts.fineN+i+len(ts.fine))%len(ts.fine)])
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
			var hw HistWindow
			pc := prev.hists[name]
			for b := 0; b <= numBuckets; b++ {
				d := hc.counts[b] - pc.counts[b]
				if d < 0 {
					d = 0
				}
				hw.counts[b] = d
				hw.Count += d
			}
			dump.Histograms[name] = append(dump.Histograms[name], HistPoint{
				At:    cur.at,
				Count: hw.Count,
				P50:   hw.Quantile(0.50),
				P99:   hw.Quantile(0.99),
			})
		}
	}
	return dump
}
