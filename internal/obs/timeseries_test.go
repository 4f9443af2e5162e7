package obs

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic window tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)}
}

func newTestTS(reg *Registry, clk *fakeClock, interval time.Duration) *TimeSeries {
	return NewTimeSeries(reg, TimeSeriesOptions{
		Interval:    interval,
		FineSlots:   16,
		CoarseEvery: 4,
		CoarseSlots: 16,
		Now:         clk.now,
	})
}

func TestTimeSeriesCounterWindow(t *testing.T) {
	reg := NewRegistry()
	clk := newFakeClock()
	ts := newTestTS(reg, clk, time.Second)
	c := reg.Counter("x")

	// Before any sample: no data.
	if _, _, ok := ts.CounterWindow("x", time.Minute); ok {
		t.Fatal("expected no data before first sample")
	}

	// 10 increments per second for 10 seconds, one sample per second.
	for i := 0; i < 10; i++ {
		ts.SampleNow()
		c.Add(10)
		clk.advance(time.Second)
	}
	ts.SampleNow()

	// 5s window: baseline sample at t-5s holds 50, live value 100 → delta 50.
	delta, elapsed, ok := ts.CounterWindow("x", 5*time.Second)
	if !ok {
		t.Fatal("expected data")
	}
	if delta != 50 {
		t.Fatalf("delta = %d, want 50", delta)
	}
	if elapsed != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", elapsed)
	}

	// A window longer than history falls back to the oldest sample.
	delta, elapsed, ok = ts.CounterWindow("x", time.Hour)
	if !ok || delta != 100 || elapsed != 10*time.Second {
		t.Fatalf("long window: delta=%d elapsed=%v ok=%v, want 100/10s/true", delta, elapsed, ok)
	}
}

func TestTimeSeriesCoarseRingExtendsRetention(t *testing.T) {
	reg := NewRegistry()
	clk := newFakeClock()
	ts := newTestTS(reg, clk, time.Second) // fine keeps 16s, coarse 1-in-4 keeps 64s
	c := reg.Counter("x")

	for i := 0; i < 40; i++ {
		ts.SampleNow()
		c.Inc()
		clk.advance(time.Second)
	}
	ts.SampleNow()

	// 30s window is beyond the fine ring (16 slots) but inside coarse
	// retention; the coarse baseline lands on a 4s-aligned sample.
	delta, elapsed, ok := ts.CounterWindow("x", 30*time.Second)
	if !ok {
		t.Fatal("expected data from coarse ring")
	}
	if elapsed < 30*time.Second || elapsed > 34*time.Second {
		t.Fatalf("elapsed = %v, want within [30s,34s]", elapsed)
	}
	if delta != int64(elapsed/time.Second) {
		t.Fatalf("delta = %d, want %d (1/s over elapsed)", delta, int64(elapsed/time.Second))
	}
}

func TestTimeSeriesHistogramWindow(t *testing.T) {
	reg := NewRegistry()
	clk := newFakeClock()
	ts := newTestTS(reg, clk, time.Second)
	h := reg.Histogram("lat")

	// First 5 seconds: fast observations (1ms). Then 5 seconds: slow (1s).
	for i := 0; i < 5; i++ {
		ts.SampleNow()
		for j := 0; j < 100; j++ {
			h.Observe(0.001)
		}
		clk.advance(time.Second)
	}
	for i := 0; i < 5; i++ {
		ts.SampleNow()
		for j := 0; j < 100; j++ {
			h.Observe(1.0)
		}
		clk.advance(time.Second)
	}
	ts.SampleNow()

	// Whole history: half fast, half slow.
	hw, _, ok := ts.HistogramWindow("lat", time.Hour)
	if !ok || hw.Count != 1000 {
		t.Fatalf("count = %d ok=%v, want 1000", hw.Count, ok)
	}
	if f := hw.FractionBelow(0.01); f < 0.49 || f > 0.51 {
		t.Fatalf("FractionBelow(10ms) over full history = %v, want ~0.5", f)
	}

	// Trailing 5s window sees only the slow phase.
	hw, _, ok = ts.HistogramWindow("lat", 5*time.Second)
	if !ok || hw.Count != 500 {
		t.Fatalf("count = %d ok=%v, want 500", hw.Count, ok)
	}
	if f := hw.FractionBelow(0.01); f != 0 {
		t.Fatalf("FractionBelow(10ms) over slow window = %v, want 0", f)
	}
	if q := hw.Quantile(0.99); q < 0.5 || q > 2.0 {
		t.Fatalf("windowed p99 = %v, want ~1s (bucket-resolution)", q)
	}

	// Empty window (no new observations): count 0, FractionBelow reports 1.
	clk.advance(time.Second)
	ts.SampleNow()
	clk.advance(time.Second)
	ts.SampleNow()
	hw, _, ok = ts.HistogramWindow("lat", time.Second)
	if !ok || hw.Count != 0 {
		t.Fatalf("empty window count = %d ok=%v, want 0/true", hw.Count, ok)
	}
	if f := hw.FractionBelow(0.01); f != 1 {
		t.Fatalf("empty-window FractionBelow = %v, want 1", f)
	}
}

func TestTimeSeriesHistogramCreatedAfterBaseline(t *testing.T) {
	reg := NewRegistry()
	clk := newFakeClock()
	ts := newTestTS(reg, clk, time.Second)
	ts.SampleNow()
	clk.advance(time.Second)
	// Histogram first observed after the baseline sample: the baseline
	// contributes zero cumulatives, so the whole live state is the window.
	reg.Histogram("late").Observe(0.5)
	hw, _, ok := ts.HistogramWindow("late", time.Minute)
	if !ok || hw.Count != 1 {
		t.Fatalf("count = %d ok=%v, want 1/true", hw.Count, ok)
	}
}

func TestTimeSeriesNilIsNoOp(t *testing.T) {
	var ts *TimeSeries
	ts.Start()
	ts.Close()
	ts.SampleNow()
	ts.OnSample(func() {})
	if _, _, ok := ts.CounterWindow("x", time.Minute); ok {
		t.Fatal("nil CounterWindow must report no data")
	}
	if _, _, ok := ts.HistogramWindow("x", time.Minute); ok {
		t.Fatal("nil HistogramWindow must report no data")
	}
	dump := ts.DumpSeries()
	if len(dump.Counters) != 0 {
		t.Fatal("nil DumpSeries must be empty")
	}
}

func TestTimeSeriesOnSampleRunsOutsideLock(t *testing.T) {
	reg := NewRegistry()
	clk := newFakeClock()
	ts := newTestTS(reg, clk, time.Second)
	var calls int
	ts.OnSample(func() {
		calls++
		// Re-entrant query must not deadlock.
		ts.CounterWindow("x", time.Minute)
	})
	ts.SampleNow()
	clk.advance(time.Second)
	ts.SampleNow()
	if calls != 2 {
		t.Fatalf("callback ran %d times, want 2", calls)
	}
}

func TestTimeSeriesDumpSeries(t *testing.T) {
	reg := NewRegistry()
	clk := newFakeClock()
	ts := newTestTS(reg, clk, time.Second)
	c := reg.Counter("req")
	h := reg.Histogram("lat")
	for i := 0; i < 5; i++ {
		ts.SampleNow()
		c.Add(int64(i + 1))
		h.Observe(0.01)
		clk.advance(time.Second)
	}
	ts.SampleNow()
	dump := ts.DumpSeries()
	if dump.Interval != "1s" {
		t.Fatalf("interval = %q, want 1s", dump.Interval)
	}
	pts := dump.Counters["req"]
	if len(pts) != 5 {
		t.Fatalf("counter points = %d, want 5", len(pts))
	}
	// Per-interval deltas are 1,2,3,4,5.
	for i, p := range pts {
		if p.V != float64(i+1) {
			t.Fatalf("point %d = %v, want %d", i, p.V, i+1)
		}
	}
	if hp := dump.Histograms["lat"]; len(hp) != 5 || hp[0].Count != 1 {
		t.Fatalf("hist points = %+v, want 5 points of count 1", hp)
	}
}

func TestTimeSeriesTickerLifecycle(t *testing.T) {
	reg := NewRegistry()
	ts := NewTimeSeries(reg, TimeSeriesOptions{Interval: time.Millisecond})
	reg.Counter("x").Add(5)
	ts.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, ok := ts.CounterWindow("x", time.Minute); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	ts.Close()
	ts.Close() // idempotent
}
