package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule on a sorted copy: the smallest value with at least q of the samples at
// or below it. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the mean of the two middle values for an even count, so that a
// median of six per-segment values does not favour either side.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSupported reports whether n samples leave at least ten beyond the
// q-quantile, the rule a reported tail percentile has to meet.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// segmentCount picks how many equal time segments a phase of n samples is cut
// into: as many as want, but never so many that a segment's p99 would have
// fewer than ten samples beyond it. When even the whole phase cannot carry a
// p99 it is one segment, and tailQuantile lowers the percentile instead.
func segmentCount(n, want int) int {
	for k := want; k > 1; k-- {
		if tailSupported(n/k, 0.99) {
			return k
		}
	}
	return 1
}

// tailQuantile is the tail percentile n samples can carry: 0.99, or on a run
// too slow for that the highest one that keeps ten samples beyond it.
func tailQuantile(n int) float64 {
	if tailSupported(n, 0.99) {
		return 0.99
	}
	return 1 - 10/float64(n)
}

// sample is one timed operation of a load phase.
type sample struct {
	end     time.Duration // completion time since the phase started
	latency time.Duration
	bytes   int
	ok      bool // correct, non-degraded answer
}

// phaseSummary is what one closed-loop phase reports.
type phaseSummary struct {
	Samples    int     `json:"samples"`
	Segments   int     `json:"segments"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"` // context only; not a gate metric
	P99Ms      float64 `json:"p99_ms"`
	MeanMs     float64 `json:"mean_ms"`
	GoodputRPS float64 `json:"goodput_rps"`
	// TailQuantile is 0.99 unless the run was too slow to keep ten samples
	// beyond a p99; P99Ms then carries this lower percentile.
	TailQuantile float64   `json:"tail_quantile"`
	SegP99Ms     []float64 `json:"segment_p99_ms"`
	SegGoodput   []float64 `json:"segment_goodput_rps"`
}

// summarize cuts the phase into equal time segments and reports the overall
// median latency, the median of the per-segment p99s and the median of the
// per-segment goodput rates, so one machine stall cannot own a number. A
// sample counts toward goodput only when it is ok and within limit.
func summarize(samples []sample, phase time.Duration, limit time.Duration, wantSegments int) (phaseSummary, error) {
	var out phaseSummary
	out.Samples = len(samples)
	if len(samples) < 20 {
		return out, fmt.Errorf("%d samples carry no tail percentile: lengthen -seconds", len(samples))
	}
	k := segmentCount(len(samples), wantSegments)
	out.Segments = k
	out.TailQuantile = tailQuantile(len(samples) / k)
	all := make([]float64, len(samples))
	segLat := make([][]float64, k)
	segGood := make([]int, k)
	segLen := phase / time.Duration(k)
	for i, s := range samples {
		ms := float64(s.latency) / float64(time.Millisecond)
		all[i] = ms
		seg := int(s.end / segLen)
		if seg >= k {
			seg = k - 1
		}
		segLat[seg] = append(segLat[seg], ms)
		if s.ok && s.latency <= limit {
			segGood[seg]++
		}
	}
	out.P50Ms = quantile(all, 0.5)
	out.P90Ms = quantile(all, 0.9)
	for _, ms := range all {
		out.MeanMs += ms / float64(len(all))
	}
	for i := range segLat {
		// A segment starved by a stall may fall below the ten-beyond rule;
		// it then carries no tail of its own and only its goodput counts.
		if tailSupported(len(segLat[i]), out.TailQuantile) {
			out.SegP99Ms = append(out.SegP99Ms, quantile(segLat[i], out.TailQuantile))
		}
		out.SegGoodput = append(out.SegGoodput, float64(segGood[i])/segLen.Seconds())
	}
	if len(out.SegP99Ms) == 0 {
		return out, fmt.Errorf("no segment of %d kept ten samples beyond its tail percentile", k)
	}
	out.P99Ms = median(out.SegP99Ms)
	out.GoodputRPS = median(out.SegGoodput)
	return out, nil
}

// pacedTimes is the open-loop accounting for one request: latency runs from
// the time the request was due, not from when the generator got round to
// sending it, so a stall charges every request it delayed; lag is how late
// the generator ran.
func pacedTimes(due, sent, done time.Duration) (latency, lag time.Duration) {
	lag = sent - due
	if lag < 0 {
		lag = 0
	}
	return done - due, lag
}

// dueTime is when the i-th request of an open loop at rate rps is due.
func dueTime(i int, rps int) time.Duration {
	return time.Duration(int64(i) * int64(time.Second) / int64(rps))
}
