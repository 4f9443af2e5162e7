package slo

import (
	"time"

	"asqprl/internal/obs"
)

// SampleInterval is the sampler's cadence. The fine ring holds fineSlots
// samples, and the coarse ring keeps one of every coarseEvery of them,
// coarseSlots deep — 10m40s fine and 6.4h coarse.
const (
	SampleInterval = 5 * time.Second
	fineSlots      = 128
	coarseEvery    = 36
	coarseSlots    = 128
)

// sample is the registry's cumulative state at one instant: counter values and
// histogram bucket counts.
type sample struct {
	at       time.Time
	counters map[string]int64
	hists    map[string]obs.Buckets
}

// ring is a fixed-size circular buffer of samples, oldest overwritten first.
type ring struct {
	buf  []sample
	next int // next write position
	n    int // filled slots: buf[:n]
}

func (r *ring) add(s sample) {
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
}

// Start launches the sampler's ticker: one sample at once, then one every
// SampleInterval, each followed by an evaluation. Close stops it. A test with
// an injected clock leaves it off and calls SampleNow.
func (e *Engine) Start() {
	e.ringMu.Lock()
	started := e.stop != nil
	if !started {
		e.stop, e.done = make(chan struct{}), make(chan struct{})
	}
	stop, done := e.stop, e.done
	e.ringMu.Unlock()
	if started {
		return
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(SampleInterval)
		defer tick.Stop()
		for {
			e.SampleNow()
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
}

// Close stops the ticker, if started. Safe on a nil engine and idempotent.
func (e *Engine) Close() {
	if e == nil {
		return
	}
	e.ringMu.Lock()
	stop, done := e.stop, e.done
	e.stop = nil
	e.ringMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// SampleNow records the registry's cumulative state at the engine's clock and
// then evaluates every objective on it.
func (e *Engine) SampleNow() {
	s := sample{at: e.now()}
	s.counters, s.hists = e.reg.Cumulative()
	e.ringMu.Lock()
	e.fine.add(s)
	if e.ticks%coarseEvery == 0 {
		e.coarse.add(s)
	}
	e.ticks++
	e.ringMu.Unlock()
	e.Evaluate()
}

// since returns the retained sample a window of length d subtracts from the
// live state: the newest at or before the window's start, or the oldest one
// when the window reaches back past retention or process start. ok is false
// before the first sample.
func (e *Engine) since(d time.Duration) (base sample, now time.Time, ok bool) {
	now = e.now()
	start := now.Add(-d)
	e.ringMu.Lock()
	defer e.ringMu.Unlock()
	var oldest sample
	for _, r := range []*ring{&e.coarse, &e.fine} {
		for _, s := range r.buf[:r.n] {
			if oldest.at.IsZero() || s.at.Before(oldest.at) {
				oldest = s
			}
			if !s.at.After(start) && s.at.After(base.at) {
				base = s
			}
		}
	}
	if base.at.IsZero() {
		base = oldest
	}
	return base, now, !base.at.IsZero()
}

// counterWindow returns the increase of counter name over the trailing
// window, together with the time it actually covers (shorter than the window
// right after start). ok is false before the first sample.
func (e *Engine) counterWindow(name string, window time.Duration) (delta int64, elapsed time.Duration, ok bool) {
	base, now, ok := e.since(window)
	if !ok {
		return 0, 0, false
	}
	delta = max(e.reg.Counter(name).Value()-base.counters[name], 0) // < 0: registry reset
	return delta, max(now.Sub(base.at), 0), true
}

// Window returns histogram name's observations over the trailing window,
// together with the time it actually covers. ok is false before the first
// sample. The per-rung latency on /sloz reads it.
func (e *Engine) Window(name string, window time.Duration) (b obs.Buckets, elapsed time.Duration, ok bool) {
	base, now, ok := e.since(window)
	if !ok {
		return obs.Buckets{}, 0, false
	}
	cur := e.reg.Histogram(name).Buckets()
	bc := base.hists[name] // zero when the histogram postdates the baseline
	return cur.Minus(&bc), max(now.Sub(base.at), 0), true
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
// per-interval deltas, histograms as per-interval count and p50/p99. The
// flight recorder writes it as a bundle's series.json.
type SeriesDump struct {
	Interval   string                   `json:"interval"`
	Counters   map[string][]SeriesPoint `json:"counters,omitempty"`
	Histograms map[string][]HistPoint   `json:"histograms,omitempty"`
}

// Series renders the fine ring oldest-first.
func (e *Engine) Series() SeriesDump {
	dump := SeriesDump{
		Interval:   SampleInterval.String(),
		Counters:   map[string][]SeriesPoint{},
		Histograms: map[string][]HistPoint{},
	}
	e.ringMu.Lock()
	defer e.ringMu.Unlock()
	f := &e.fine
	for i := f.n - 1; i > 0; i-- {
		prev, cur := f.buf[(f.next-i-1+fineSlots)%fineSlots], f.buf[(f.next-i+fineSlots)%fineSlots]
		for name, v := range cur.counters {
			dump.Counters[name] = append(dump.Counters[name],
				SeriesPoint{At: cur.at, V: float64(max(v-prev.counters[name], 0))})
		}
		for name, hc := range cur.hists {
			pc := prev.hists[name]
			d := hc.Minus(&pc)
			dump.Histograms[name] = append(dump.Histograms[name], HistPoint{
				At:    cur.at,
				Count: d.Count(),
				P50:   d.Quantile(0.50),
				P99:   d.Quantile(0.99),
			})
		}
	}
	return dump
}
