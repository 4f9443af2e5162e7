package nn

import (
	"math"
	"math/rand"
)

// negInf is used to mask invalid logits.
var negInf = math.Inf(-1)

// expChunk is the number of exponentials LogSumExp and Softmax hand to Exp at
// a time, through a buffer on the stack.
const expChunk = 64

// LogSumExp computes log Σ exp(x_i) stably over the valid entries: those with
// mask[i] set, or all of them when mask is nil. No valid entry above -Inf
// yields -Inf. The terms exp(x_i − max) are computed by Exp, a chunk of valid
// entries at a time, and summed in index order.
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
	var buf [expChunk]float64
	var sum float64
	n := 0
	for i, v := range x {
		if mask == nil || mask[i] {
			buf[n] = v - max
			if n++; n == expChunk {
				sum = addExps(sum, buf[:])
				n = 0
			}
		}
	}
	return max + math.Log(addExps(sum, buf[:n]))
}

// addExps replaces each t[j] by its exponential and returns sum plus them,
// added in order.
func addExps(sum float64, t []float64) float64 {
	Exp(t, t)
	for _, e := range t {
		sum += e
	}
	return sum
}

// Softmax writes the softmax distribution over the valid logits (see
// LogSumExp) into dst, which may be logits itself, and returns their
// log-sum-exp. Invalid entries and entries at -Inf get probability zero; if
// there is no other entry the result is all zeros. Each probability is
// exp(l − lse) of its own logit: a chunk of logits is read, its entries with
// a probability computed by Exp, and then the chunk of dst written.
func Softmax(dst, logits []float64, mask []bool) float64 {
	lse := LogSumExp(logits, mask)
	if math.IsInf(lse, -1) {
		clear(dst[:len(logits)])
		return lse
	}
	var buf [expChunk]float64
	var at [expChunk]uint8 // buf[k] is the entry at[k] of the chunk
	for lo := 0; lo < len(logits); lo += expChunk {
		chunk := logits[lo:min(lo+expChunk, len(logits))]
		n := 0
		for j, l := range chunk {
			if (mask == nil || mask[lo+j]) && !math.IsInf(l, -1) {
				buf[n], at[n] = l-lse, uint8(j)
				n++
			}
		}
		Exp(buf[:n], buf[:n])
		out := dst[lo : lo+len(chunk)]
		clear(out)
		for k, e := range buf[:n] {
			out[at[k]] = e
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
