package slo

import (
	"testing"
	"time"
)

func TestCounterWindow(t *testing.T) {
	h := newHarness(t, nil)
	c := h.reg.Counter("x")

	// Before any sample: no data.
	if _, _, ok := h.eng.counterWindow("x", time.Minute); ok {
		t.Fatal("expected no data before first sample")
	}

	// 10 increments per second for 10 seconds, one sample per second.
	for i := 0; i < 10; i++ {
		h.eng.SampleNow()
		c.Add(10)
		h.now = h.now.Add(time.Second)
	}
	h.eng.SampleNow()

	// 5s window: baseline sample at t-5s holds 50, live value 100 → delta 50.
	delta, elapsed, ok := h.eng.counterWindow("x", 5*time.Second)
	if !ok || delta != 50 || elapsed != 5*time.Second {
		t.Fatalf("5s window: delta=%d elapsed=%v ok=%v, want 50/5s/true", delta, elapsed, ok)
	}

	// A window longer than history falls back to the oldest sample.
	delta, elapsed, ok = h.eng.counterWindow("x", time.Hour)
	if !ok || delta != 100 || elapsed != 10*time.Second {
		t.Fatalf("long window: delta=%d elapsed=%v ok=%v, want 100/10s/true", delta, elapsed, ok)
	}
}

func TestCoarseRingExtendsRetention(t *testing.T) {
	h := newHarness(t, nil) // 1s ticks: fine keeps 128s, coarse 1-in-36 keeps 76m48s
	c := h.reg.Counter("x")
	for i := 0; i < 200; i++ {
		h.eng.SampleNow()
		c.Inc()
		h.now = h.now.Add(time.Second)
	}
	h.eng.SampleNow()

	// 150s window is beyond the fine ring (128 slots) but inside coarse
	// retention; the coarse baseline lands on a 36s-aligned sample.
	delta, elapsed, ok := h.eng.counterWindow("x", 150*time.Second)
	if !ok {
		t.Fatal("expected data from coarse ring")
	}
	if elapsed < 150*time.Second || elapsed > 186*time.Second {
		t.Fatalf("elapsed = %v, want within [150s,186s]", elapsed)
	}
	if delta != int64(elapsed/time.Second) {
		t.Fatalf("delta = %d, want %d (1/s over elapsed)", delta, int64(elapsed/time.Second))
	}
}

func TestHistogramWindow(t *testing.T) {
	h := newHarness(t, nil)
	lat := h.reg.Histogram("lat")

	// First 5 seconds: fast observations (1ms). Then 5 seconds: slow (1s).
	for _, v := range []float64{0.001, 1.0} {
		for i := 0; i < 5; i++ {
			h.eng.SampleNow()
			for j := 0; j < 100; j++ {
				lat.Observe(v)
			}
			h.now = h.now.Add(time.Second)
		}
	}
	h.eng.SampleNow()

	// Whole history: half fast, half slow.
	b, _, ok := h.eng.Window("lat", time.Hour)
	if !ok || b.Count() != 1000 {
		t.Fatalf("count = %d ok=%v, want 1000", b.Count(), ok)
	}
	if f := b.FractionBelow(0.01); f < 0.49 || f > 0.51 {
		t.Fatalf("FractionBelow(10ms) over full history = %v, want ~0.5", f)
	}

	// Trailing 5s window sees only the slow phase.
	b, _, ok = h.eng.Window("lat", 5*time.Second)
	if !ok || b.Count() != 500 {
		t.Fatalf("count = %d ok=%v, want 500", b.Count(), ok)
	}
	if f := b.FractionBelow(0.01); f != 0 {
		t.Fatalf("FractionBelow(10ms) over slow window = %v, want 0", f)
	}
	if q := b.Quantile(0.99); q < 0.5 || q > 2.0 {
		t.Fatalf("windowed p99 = %v, want ~1s (bucket-resolution)", q)
	}

	// Empty window (no new observations): count 0, FractionBelow reports 1.
	for i := 0; i < 2; i++ {
		h.now = h.now.Add(time.Second)
		h.eng.SampleNow()
	}
	b, _, ok = h.eng.Window("lat", time.Second)
	if !ok || b.Count() != 0 {
		t.Fatalf("empty window count = %d ok=%v, want 0/true", b.Count(), ok)
	}
	if f := b.FractionBelow(0.01); f != 1 {
		t.Fatalf("empty-window FractionBelow = %v, want 1", f)
	}
}

func TestHistogramCreatedAfterBaseline(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.SampleNow()
	h.now = h.now.Add(time.Second)
	// Histogram first observed after the baseline sample: the baseline
	// contributes zero cumulatives, so the whole live state is the window.
	h.reg.Histogram("late").Observe(0.5)
	b, _, ok := h.eng.Window("late", time.Minute)
	if !ok || b.Count() != 1 {
		t.Fatalf("count = %d ok=%v, want 1/true", b.Count(), ok)
	}
}

// TestEngineWithoutObjectivesSamples: an engine built without objectives
// pages disabled and evaluates nothing, reports no window before its first
// sample, and still samples after it.
func TestEngineWithoutObjectivesSamples(t *testing.T) {
	h := newHarness(t, nil)
	if _, _, ok := h.eng.counterWindow("x", time.Minute); ok {
		t.Fatal("counter window before the first sample must report no data")
	}
	if _, _, ok := h.eng.Window("x", time.Minute); ok {
		t.Fatal("histogram window before the first sample must report no data")
	}
	if dump := h.eng.Series(); len(dump.Counters) != 0 || len(dump.Histograms) != 0 {
		t.Fatalf("series before the first sample = %+v, want empty", dump)
	}
	h.reg.Counter("x").Inc()
	if sts := h.tick(); len(sts) != 0 {
		t.Fatalf("engine without objectives evaluated %+v", sts)
	}
	if h.eng.Page().Enabled {
		t.Fatal("engine without objectives must page disabled")
	}
	if _, _, ok := h.eng.counterWindow("x", time.Minute); !ok {
		t.Fatal("engine without objectives must still sample")
	}
}

// TestSampleNowEvaluates: every sample re-evaluates the objectives, and the
// transition hook it fires may read the engine back without deadlocking.
func TestSampleNowEvaluates(t *testing.T) {
	h := newHarness(t, []Def{availDef()})
	var calls int
	h.eng.OnTransition(func(Transition) {
		calls++
		h.eng.Page()
		h.eng.Window("lat", time.Minute)
	})
	h.eng.SampleNow() // the baseline: no events yet, no state change
	h.reg.Counter("req/total").Add(10)
	h.now = h.now.Add(time.Second)
	h.eng.SampleNow()
	if calls != 1 || h.eng.Page().SLOs[0].State != StateOK {
		t.Fatalf("after one sample: %d transitions, page %+v; want 1 and ok", calls, h.eng.Page())
	}
}

func TestSeriesDump(t *testing.T) {
	h := newHarness(t, nil)
	c := h.reg.Counter("req")
	lat := h.reg.Histogram("lat")
	for i := 0; i < 5; i++ {
		h.eng.SampleNow()
		c.Add(int64(i + 1))
		lat.Observe(0.01)
		h.now = h.now.Add(time.Second)
	}
	h.eng.SampleNow()
	dump := h.eng.Series()
	if dump.Interval != "5s" {
		t.Fatalf("interval = %q, want 5s", dump.Interval)
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

func TestTickerLifecycle(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.now = time.Now
	h.reg.Counter("x").Add(5)
	h.eng.Start() // samples at once, long before the first SampleInterval tick
	h.eng.Start() // a second Start is a no-op
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, ok := h.eng.counterWindow("x", time.Minute); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	h.eng.Close()
	h.eng.Close() // idempotent
}
