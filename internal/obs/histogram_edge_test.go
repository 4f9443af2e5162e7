package obs

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestHistogramQuantileEmpty: every quantile of an empty histogram is 0, and
// so are the extrema — no NaN or sentinel infinities may leak out.
func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram extrema = (%v, %v), want (0, 0)", h.Min(), h.Max())
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
	if math.IsNaN(s.Mean) || math.IsInf(s.Min, 0) || math.IsInf(s.Max, 0) {
		t.Errorf("empty snapshot leaks sentinels: %+v", s)
	}
}

// TestHistogramQuantileSingleObservation: with one observation every
// quantile must report exactly that value — the extrema clamping defeats the
// factor-of-two bucket interpolation error.
func TestHistogramQuantileSingleObservation(t *testing.T) {
	for _, v := range []float64{0, 1e-9, 0.333, 1, 1e6} {
		h := NewHistogram()
		h.Observe(v)
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			if got := h.Quantile(q); got != v {
				t.Errorf("single-observation(%v) Quantile(%v) = %v, want %v", v, q, got, v)
			}
		}
		if h.Min() != v || h.Max() != v {
			t.Errorf("single-observation(%v) extrema = (%v, %v)", v, h.Min(), h.Max())
		}
	}
}

// TestHistogramQuantileBoundsClamped: out-of-range q values clamp to [0, 1]
// instead of panicking or extrapolating.
func TestHistogramQuantileBoundsClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	h.Observe(2)
	if got := h.Quantile(-0.5); got != h.Quantile(0) {
		t.Errorf("Quantile(-0.5) = %v, want Quantile(0) = %v", got, h.Quantile(0))
	}
	if got := h.Quantile(1.5); got != h.Quantile(1) {
		t.Errorf("Quantile(1.5) = %v, want Quantile(1) = %v", got, h.Quantile(1))
	}
	if got := h.Quantile(1); got != 2 {
		t.Errorf("Quantile(1) = %v, want the max 2", got)
	}
}

// TestHistogramNegativeAndNaNClampedToZero: invalid observations land in the
// first bucket as 0 rather than corrupting sums or extrema.
func TestHistogramNegativeAndNaNClampedToZero(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	h.Observe(math.NaN())
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("clamped stats: sum=%v min=%v max=%v, want all 0", h.Sum(), h.Min(), h.Max())
	}
	if math.IsNaN(h.Quantile(0.5)) {
		t.Error("NaN leaked into quantiles")
	}
}

// TestAmendTraceAppendsAuditEvent: a late audit verdict must land on the
// kept trace's root span, newest-first lookup, and a miss must report false.
func TestAmendTraceAppendsAuditEvent(t *testing.T) {
	SetEnabled(true)
	ConfigureTracing(TracingConfig{SampleRate: 1})
	ResetTraces()
	t.Cleanup(func() {
		DisableTracing()
		ResetTraces()
	})

	_, span := StartSpan(context.Background(), "server/query")
	tid := span.TraceID().String()
	span.End()
	if _, ok := KeptTrace(tid); !ok {
		t.Fatal("trace not kept at sample rate 1")
	}

	ev := SpanEvent{Name: "audit", At: time.Now(), Attrs: map[string]any{"relative_error": 0.25}}
	if !AmendTrace(tid, ev) {
		t.Fatal("AmendTrace missed a kept trace")
	}
	rec, _ := KeptTrace(tid)
	found := false
	for _, e := range rec.Root.Events {
		if e.Name == "audit" && e.Attrs["relative_error"] == 0.25 {
			found = true
		}
	}
	if !found {
		t.Errorf("amended event not visible on the kept trace: %+v", rec.Root.Events)
	}
	if AmendTrace("00000000000000000000000000000000", ev) {
		t.Error("AmendTrace reported success for an unknown trace")
	}
	if AmendTrace("", ev) {
		t.Error("AmendTrace reported success for an empty trace ID")
	}

	// An amendment that outruns its trace (the audit of a request can finish
	// before the request's span ends) is parked and lands when the trace is
	// kept; the park is bounded, oldest overwritten first (TestBoundedStores).
	_, early := StartSpan(context.Background(), "server/query")
	earlyID := early.TraceID().String()
	if AmendTrace(earlyID, ev) {
		t.Error("AmendTrace reported success for a trace that has not ended")
	}
	for i := 0; i < maxParkedAmends-1; i++ {
		AmendTrace(NewTraceID().String(), ev)
	}
	early.End()
	rec, _ = KeptTrace(earlyID)
	if n := len(rec.Root.Events); n != 1 || rec.Root.Events[0].Name != "audit" {
		t.Errorf("parked amendment not applied at keep time: %+v", rec.Root.Events)
	}
}
