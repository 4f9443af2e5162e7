package nn

import (
	"math"
	"math/rand"
)

// negInf is used to mask invalid logits.
var negInf = math.Inf(-1)

// LogSumExp computes log Σ exp(x_i) stably over the valid entries: those with
// mask[i] set, or all of them when mask is nil. No valid entry above -Inf
// yields -Inf.
func LogSumExp(x []float64, mask []bool) float64 {
	max := negInf
	for i, v := range x {
		if (mask == nil || mask[i]) && v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return negInf
	}
	var sum float64
	for i, v := range x {
		if mask == nil || mask[i] {
			sum += math.Exp(v - max)
		}
	}
	return max + math.Log(sum)
}

// Softmax writes the softmax distribution over the valid logits (see
// LogSumExp) into dst, which may be logits itself, and returns their
// log-sum-exp. Invalid entries and entries at -Inf get probability zero; if
// there is no other entry the result is all zeros.
func Softmax(dst, logits []float64, mask []bool) float64 {
	lse := LogSumExp(logits, mask)
	if math.IsInf(lse, -1) {
		clear(dst[:len(logits)])
		return lse
	}
	for i, l := range logits {
		if (mask != nil && !mask[i]) || math.IsInf(l, -1) {
			dst[i] = 0
		} else {
			dst[i] = math.Exp(l - lse)
		}
	}
	return lse
}

// SampleCategorical draws an index from probability distribution p. It
// panics if p sums to zero.
func SampleCategorical(p []float64, rng *rand.Rand) int {
	var total float64
	for _, v := range p {
		total += v
	}
	if total <= 0 {
		panic("nn: SampleCategorical over zero-mass distribution")
	}
	r := rng.Float64() * total
	for i, v := range p {
		r -= v
		if r <= 0 && v > 0 {
			return i
		}
	}
	// Floating-point slack: return last positive entry.
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] > 0 {
			return i
		}
	}
	return 0
}

// Argmax returns the index of the largest value (first on ties), or -1 for
// empty input.
func Argmax(x []float64) int {
	best, bestV := -1, negInf
	for i, v := range x {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
