package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// numBuckets is the number of finite histogram buckets. Bounds grow
// exponentially (factor 2) from histMinBound, spanning one microsecond to
// roughly six days when values are interpreted as seconds.
const numBuckets = 40

// histMinBound is the upper bound of the first bucket, in the histogram's
// value unit (seconds for latency histograms).
const histMinBound = 1e-6

// bucketBounds holds the inclusive upper bound of each finite bucket.
var bucketBounds = func() [numBuckets]float64 {
	var b [numBuckets]float64
	bound := histMinBound
	for i := range b {
		b[i] = bound
		bound *= 2
	}
	return b
}()

// Histogram is a fixed-bucket histogram with exponentially growing bucket
// bounds, safe for concurrent writers and readers. It is tuned for latencies
// in seconds (1µs granularity at the low end) but accepts any non-negative
// values. Quantile estimates interpolate linearly within a bucket, so their
// worst-case relative error is the bucket width (a factor of two).
//
// Use NewHistogram; the zero value is not valid (extrema tracking needs
// seeded sentinels).
type Histogram struct {
	counts  [numBuckets + 1]atomic.Int64 // last slot catches overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // seeded with +Inf
	maxBits atomic.Uint64 // seeded with -Inf
	// exemplars retains, per bucket, the most recent traced observation, so
	// a tail-latency bucket links to a concrete trace (/tracez, JSONL
	// export). Written only by ObserveExemplar with a non-zero trace ID —
	// untraced observations never allocate.
	exemplars [numBuckets + 1]atomic.Pointer[Exemplar]
	gated     bool // of the default registry: records only while Enabled()
}

// Exemplar ties one histogram observation to the trace that produced it.
type Exemplar struct {
	TraceID TraceID
	Value   float64
	When    time.Time
}

// ExemplarSnapshot is a JSON-friendly exemplar with its bucket's upper bound.
type ExemplarSnapshot struct {
	LE      float64   `json:"le"` // bucket upper bound (+Inf rendered as the overflow bound)
	Value   float64   `json:"value"`
	TraceID string    `json:"trace_id"`
	When    time.Time `json:"when"`
}

// NewHistogram returns an empty histogram ready for concurrent use.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.reset()
	return h
}

// reset empties the histogram in place (Registry.Reset).
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
		h.exemplars[i].Store(nil)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, TraceID{}) }

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one value and, when tid is a real trace, retains
// the observation as the containing bucket's exemplar (most recent wins).
// With a zero trace ID it is exactly Observe — no allocation.
func (h *Histogram) ObserveExemplar(v float64, tid TraceID) {
	if h.gated && !enabled.Load() {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	idx := bucketIndex(v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
	if !tid.IsZero() {
		h.exemplars[idx].Store(&Exemplar{TraceID: tid, Value: v, When: time.Now()})
	}
}

// ObserveDurationExemplar records a duration in seconds with an exemplar.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, tid TraceID) {
	h.ObserveExemplar(d.Seconds(), tid)
}

// Exemplars returns the retained per-bucket exemplars, lowest bucket first.
func (h *Histogram) Exemplars() []ExemplarSnapshot {
	var out []ExemplarSnapshot
	for i := 0; i <= numBuckets; i++ {
		ex := h.exemplars[i].Load()
		if ex == nil {
			continue
		}
		_, hi := bucketRange(i)
		out = append(out, ExemplarSnapshot{
			LE:      hi,
			Value:   ex.Value,
			TraceID: ex.TraceID.String(),
			When:    ex.When,
		})
	}
	return out
}

// ExemplarAbove returns the most recent retained exemplar whose bucket can
// hold values above v — the concrete trace behind a threshold violation.
// ok is false when no such exemplar is retained.
func (h *Histogram) ExemplarAbove(v float64) (ExemplarSnapshot, bool) {
	var best ExemplarSnapshot
	var found bool
	for i := 0; i <= numBuckets; i++ {
		_, hi := bucketRange(i)
		if hi <= v {
			continue
		}
		ex := h.exemplars[i].Load()
		if ex == nil || ex.Value <= v {
			continue
		}
		if !found || ex.When.After(best.When) {
			best = ExemplarSnapshot{LE: hi, Value: ex.Value, TraceID: ex.TraceID.String(), When: ex.When}
			found = true
		}
	}
	return best, found
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-th quantile (q in [0, 1]) by linear interpolation
// within the containing bucket. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation (1-based, ceiling).
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i <= numBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo, hi := bucketRange(i)
		// Clamp interpolation to the observed extrema so single-bucket
		// histograms report tight values.
		if min := h.Min(); min > lo && min <= hi {
			lo = min
		}
		if max := h.Max(); max < hi && max >= lo {
			hi = max
		}
		frac := float64(rank-cum) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.Max()
}

// Min returns the smallest observed value (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// HistogramSnapshot is a point-in-time JSON-friendly view of a histogram.
type HistogramSnapshot struct {
	Count     int64              `json:"count"`
	Sum       float64            `json:"sum"`
	Mean      float64            `json:"mean"`
	Min       float64            `json:"min"`
	Max       float64            `json:"max"`
	P50       float64            `json:"p50"`
	P90       float64            `json:"p90"`
	P99       float64            `json:"p99"`
	Exemplars []ExemplarSnapshot `json:"exemplars,omitempty"`
}

// Snapshot captures count, sum, extrema, and p50/p90/p99 estimates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:     h.Count(),
		Sum:       h.Sum(),
		Min:       h.Min(),
		Max:       h.Max(),
		P50:       h.Quantile(0.50),
		P90:       h.Quantile(0.90),
		P99:       h.Quantile(0.99),
		Exemplars: h.Exemplars(),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	return s
}

// bucketIndex maps a value to its bucket (the overflow bucket for values
// beyond the last bound).
func bucketIndex(v float64) int {
	for i, bound := range bucketBounds {
		if v <= bound {
			return i
		}
	}
	return numBuckets
}

// bucketRange returns the half-open value range (lo, hi] of bucket i.
func bucketRange(i int) (lo, hi float64) {
	if i == 0 {
		return 0, bucketBounds[0]
	}
	if i >= numBuckets {
		return bucketBounds[numBuckets-1], bucketBounds[numBuckets-1] * 2
	}
	return bucketBounds[i-1], bucketBounds[i]
}

// atomicAddFloat adds delta to a float64 stored as bits, using CAS.
func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// atomicMinFloat lowers the stored minimum to v if smaller.
func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// atomicMaxFloat raises the stored maximum to v if larger.
func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
