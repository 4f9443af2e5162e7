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
	gated   bool          // of the default registry: records only while Enabled()
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
	}
	h.count.Store(0)
	h.sumBits.Store(0)
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if h.gated && !enabled.Load() {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-th quantile (q in [0, 1]) by linear interpolation
// within the containing bucket, clamped to the observed extrema so
// single-bucket histograms report tight values. It returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	b := h.Buckets()
	return b.quantile(q, h.Min(), h.Max())
}

// Buckets reads the per-bucket counts.
func (h *Histogram) Buckets() Buckets {
	var b Buckets
	for i := range h.counts {
		b.n[i] = h.counts[i].Load()
		b.total += b.n[i]
	}
	return b
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
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot captures count, sum, extrema, and p50/p90/p99 estimates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
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

// Buckets is a histogram's per-bucket counts at one instant, or the
// difference between two instants: a time window over a cumulative histogram
// is the live counts minus those sampled at the window's start. Every
// quantile and threshold fraction is read off one.
type Buckets struct {
	n     [numBuckets + 1]int64
	total int64 // sum of n
}

// Count returns the number of observations counted.
func (b *Buckets) Count() int64 { return b.total }

// Minus returns b − o bucket by bucket. A negative difference (the registry
// was reset between the two reads) counts as zero.
func (b *Buckets) Minus(o *Buckets) Buckets {
	var d Buckets
	for i := range b.n {
		if c := b.n[i] - o.n[i]; c > 0 {
			d.n[i] = c
			d.total += c
		}
	}
	return d
}

// Quantile estimates the q-th quantile with Histogram.Quantile's
// interpolation, unclamped: the extrema of a window are not tracked.
func (b *Buckets) Quantile(q float64) float64 { return b.quantile(q, math.Inf(-1), math.Inf(1)) }

// quantile estimates the q-th quantile (q clamped to [0, 1]) by linear
// interpolation inside the bucket holding the ⌈q·total⌉-th observation. The
// interpolation range is narrowed to the observed extrema vmin and vmax where
// they fall in that bucket; pass ±Inf when none are known. It returns 0 when
// empty.
func (b *Buckets) quantile(q, vmin, vmax float64) float64 {
	if b.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(b.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range b.n {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo, hi := bucketRange(i)
		if vmin > lo && vmin <= hi {
			lo = vmin
		}
		if vmax < hi && vmax >= lo {
			hi = vmax
		}
		frac := float64(rank-cum) / float64(c)
		return lo + (hi-lo)*frac
	}
	_, hi := bucketRange(numBuckets)
	return hi // not reached: rank ≤ total
}

// FractionBelow estimates the fraction of observations ≤ v, interpolating
// linearly inside the bucket containing v. It returns 1 when empty (no
// observations means no violations).
func (b *Buckets) FractionBelow(v float64) float64 {
	if b.total == 0 {
		return 1
	}
	var below float64
	for i, c := range b.n {
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
	return max(0, min(below/float64(b.total), 1))
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
