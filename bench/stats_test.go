package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.8, 4}, {0.99, 5}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want the mean of the middle two", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile must not reorder its input")
	}
}

func TestTenBeyondRule(t *testing.T) {
	if tailSupported(999, 0.99) || !tailSupported(1000, 0.99) {
		t.Error("a p99 needs 1000 samples to keep ten beyond it")
	}
	for _, c := range []struct{ n, want, k int }{
		{10000, 5, 5}, {5000, 5, 5}, {4999, 5, 4}, {2100, 5, 2}, {1500, 5, 1}, {400, 5, 1},
	} {
		if got := segmentCount(c.n, c.want); got != c.k {
			t.Errorf("segmentCount(%d, %d) = %d, want %d", c.n, c.want, got, c.k)
		}
	}
	if q := tailQuantile(5000); q != 0.99 {
		t.Errorf("tailQuantile(5000) = %v", q)
	}
	// Too slow for a p99: the highest percentile with ten samples beyond it.
	q := tailQuantile(500)
	if math.Abs(q-0.98) > 1e-12 || !tailSupported(500, q) {
		t.Errorf("tailQuantile(500) = %v, want 0.98 and supported", q)
	}
}

// synth builds n samples per segment over k one-second segments; latencies in
// a segment run 1..n ms, scaled per segment.
func synth(k, n int, scale []float64) []sample {
	var out []sample
	for seg := 0; seg < k; seg++ {
		for i := 0; i < n; i++ {
			out = append(out, sample{
				end:     time.Duration(seg)*time.Second + time.Duration(i)*time.Second/time.Duration(n),
				latency: time.Duration(float64(i+1) * scale[seg] * float64(time.Microsecond)),
				ok:      true,
			})
		}
	}
	return out
}

func TestSummarizeMedianOfSegmentP99s(t *testing.T) {
	// Five segments of 1000 samples; one segment is a 50x stall. The stall
	// must not own the p99: the median of the per-segment p99s ignores it.
	s := synth(5, 1000, []float64{1, 1, 50, 1, 1})
	sum, err := summarize(s, 5*time.Second, time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Segments != 5 || len(sum.SegP99Ms) != 5 {
		t.Fatalf("segments = %d / %d, want 5", sum.Segments, len(sum.SegP99Ms))
	}
	if math.Abs(sum.P99Ms-0.99) > 1e-9 {
		t.Errorf("p99 = %v ms, want 0.99 (the stalled segment's 49.5 must not win)", sum.P99Ms)
	}
	if sum.GoodputRPS != 1000 {
		t.Errorf("goodput = %v, want 1000/s", sum.GoodputRPS)
	}
}

func TestSummarizeCountsOnlyGoodWithinLimit(t *testing.T) {
	s := synth(1, 2000, []float64{1}) // latencies 1..2000 µs in one second
	for i := 0; i < 100; i++ {
		s[i].ok = false // refused, degraded or wrong: never goodput, however fast
	}
	sum, err := summarize(s, time.Second, time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 samples are within 1 ms; the 100 fastest of them failed.
	if sum.GoodputRPS != 900 {
		t.Errorf("goodput = %v, want 900: failures and over-limit answers miss the limit", sum.GoodputRPS)
	}
	if sum.Samples != 2000 {
		t.Errorf("samples = %d", sum.Samples)
	}
}

func TestSummarizeSlowRunLowersThePercentile(t *testing.T) {
	s := synth(1, 500, []float64{1})
	sum, err := summarize(s, time.Second, time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Segments != 1 || math.Abs(sum.TailQuantile-0.98) > 1e-12 {
		t.Errorf("segments %d tail %v, want 1 and 0.98", sum.Segments, sum.TailQuantile)
	}
	if _, err := summarize(s[:10], time.Second, time.Second, 5); err == nil {
		t.Error("ten samples carry no tail percentile")
	}
}

func TestPacedAccountingWithAFakeClock(t *testing.T) {
	ms := time.Millisecond
	if got := dueTime(250, 1000); got != 250*ms {
		t.Errorf("request 250 at 1000/s is due at %v", got)
	}
	if got := dueTime(3, 300); got != 10*ms {
		t.Errorf("request 3 at 300/s is due at %v", got)
	}
	// On time: sent when due, answered 2 ms later.
	if lat, lag := pacedTimes(100*ms, 100*ms, 102*ms); lat != 2*ms || lag != 0 {
		t.Errorf("on time: latency %v lag %v", lat, lag)
	}
	// The generator stalled 40 ms: the request's latency starts when it was
	// due, so the stall is charged to it, and the lag says the generator ran
	// late.
	if lat, lag := pacedTimes(100*ms, 140*ms, 142*ms); lat != 42*ms || lag != 40*ms {
		t.Errorf("stalled: latency %v lag %v, want 42ms and 40ms", lat, lag)
	}
	// Woken a little early by the sleep: no negative lag.
	if _, lag := pacedTimes(100*ms, 99*ms, 101*ms); lag != 0 {
		t.Errorf("early send lag = %v", lag)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q.q1 != 2.75 || q.med != 5.5 || q.q3 != 8.25 {
		t.Errorf("quartiles = %+v", q)
	}
	// statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
	q = quartiles([]float64{2, 4, 4, 5, 7})
	if q.q1 != 3 || q.med != 4 || q.q3 != 6 || q.spread != 0.75 {
		t.Errorf("quartiles = %+v", q)
	}
}
