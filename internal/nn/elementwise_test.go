package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expLogSpecials are the inputs at the edges of the exp and log kernels: the
// values each hands to the standard library (non-finite, outside exp's range,
// not positive for log) and the neighbours of every boundary.
func expLogSpecials() []float64 {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	const (
		hSqrt2   = 7.07106781186547524401e-01
		overflow = 7.09782712893384e+02 // math.Exp's own overflow threshold
	)
	v := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), 0x1p-1022, down(0x1p-1022), 0x1p-1060,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8000000000001),
		math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, 1e10, -1e10, 3e9, -3e9,
		// exp's range and its neighbours.
		-708, down(-708), up(-708), 709, down(709), up(709),
		// k = 1024: x·log2(e) rounds to 1024 below math.Exp's overflow threshold.
		709.436, 709.437, 709.5, 709.7, down(overflow), overflow, up(overflow), 710,
		// denormal and zero results.
		-708.5, -709, -720, -740, -744.4, -745, -745.2, -746, -1000,
		// log's √2/2 branch, taken on f1 <= √2/2, at every scale.
		hSqrt2, down(hSqrt2), up(hSqrt2), 2 * hSqrt2, 2 * down(hSqrt2), 2 * up(hSqrt2),
		hSqrt2 / 1024, 0x1p-1030 * hSqrt2, 0x1p900 * up(hSqrt2),
		1, down(1), up(1), 2, 0.5, 0.75, 1.5, math.E, 1e-300, 1e-12,
		-1, -0.5, -1e-300,
	}
	for k := -3; k <= 3; k++ {
		v = append(v, float64(k)*math.Ln2, up(float64(k)*math.Ln2), (float64(k)+0.5)*math.Ln2)
	}
	return v
}

// expLogDraw returns n inputs: one in eight a special value, the rest drawn
// at random from the scales the kernels see — logits and log-sum-exps within
// a few units, probabilities in (0, 1], the whole of exp's range, and raw bit
// patterns.
func expLogDraw(rng *rand.Rand, n int) []float64 {
	specials := expLogSpecials()
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = specials[rng.Intn(len(specials))]
		case 1:
			x[i] = rng.NormFloat64() * 3
		case 2:
			x[i] = rng.Float64()
		case 3:
			x[i] = math.Exp(-rng.Float64() * 40)
		case 4:
			x[i] = float64(rng.Float64()*1417) - 708
		case 5:
			x[i] = math.Float64frombits(rng.Uint64())
		default:
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// checkExpLog holds Exp and Log on x, out of place and in place, to math.Exp
// and math.Log element by element.
func checkExpLog(t *testing.T, what string, x []float64) {
	t.Helper()
	wantExp, wantLog := make([]float64, len(x)), make([]float64, len(x))
	for i, v := range x {
		wantExp[i], wantLog[i] = math.Exp(v), math.Log(v)
	}
	got := make([]float64, len(x)+1) // a longer dst must be fine
	Exp(got, x)
	sameBits(t, what+": Exp", got[:len(x)], wantExp)
	Log(got, x)
	sameBits(t, what+": Log", got[:len(x)], wantLog)
	in := append([]float64(nil), x...)
	Exp(in, in)
	sameBits(t, what+": Exp in place", in, wantExp)
	in = append(in[:0], x...)
	Log(in, in)
	sameBits(t, what+": Log in place", in, wantLog)
}

// TestExpLogMatchMath holds Exp and Log to math.Exp and math.Log bit for bit
// on both kernel paths: every special value alone, at each lane of a group
// and beside in-range values; every length from 0 to 67 at each of four
// starting offsets (so unaligned tails); and random draws.
func TestExpLogMatchMath(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, s := range expLogSpecials() {
			for lane := 0; lane < 5; lane++ {
				x := []float64{0.25, -1.5, 0.75, 3}
				if lane < 4 {
					x[lane] = s
				} else {
					x = append(x, s)
				}
				checkExpLog(t, fmt.Sprintf("special %v at %d", s, lane), x)
			}
		}
		pool := expLogDraw(rng, 4096)
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				checkExpLog(t, fmt.Sprintf("length %d at %d", n, off), pool[off:off+n])
			}
		}
		checkExpLog(t, "pool", pool)
	})
}

// FuzzExpLog holds Exp and Log, on the kernel path this host selects, to
// math.Exp and math.Log on any five float64 bit patterns: one group of four
// and a tail element.
func FuzzExpLog(f *testing.F) {
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	f.Add(bits(0.5), bits(-1), bits(709), bits(-708), bits(1))
	f.Add(bits(709.5), bits(-745), bits(math.NaN()), bits(math.Inf(1)), bits(0x1p-1074))
	f.Add(bits(0.7071067811865476), bits(0), bits(-0.0), bits(1e-310), bits(2))
	f.Fuzz(func(t *testing.T, a, b, c, d, e uint64) {
		x := []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c),
			math.Float64frombits(d), math.Float64frombits(e)}
		checkExpLog(t, fmt.Sprintf("%v", x), x)
	})
}

// TestAdamMatchesPlainLoop holds the Adam kernel on both paths to the
// update's loop as StepRows wrote it before the kernel, at every length from
// 0 to 67 and with special gradients and moments.
func TestAdamMatchesPlainLoop(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		a := &Adam{LR: 3e-4, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, t: 7}
		c1, c2 := 1-math.Pow(a.Beta1, float64(a.t)), 1-math.Pow(a.Beta2, float64(a.t))
		k := &adamStep{a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, c1, c2, a.LR, a.Eps}
		for n := 0; n <= 67; n++ {
			vals := make([][]float64, 4) // p, g, m, v
			for j := range vals {
				vals[j] = make([]float64, n)
				for i := range vals[j] {
					switch r := rng.Intn(16); {
					case r == 0 && j != 3:
						vals[j][i] = specials[rng.Intn(len(specials))]
					case j == 3:
						vals[j][i] = math.Abs(rng.NormFloat64()) * 1e-4
					default:
						vals[j][i] = rng.NormFloat64()
					}
				}
			}
			want := make([][]float64, 4)
			for j := range want {
				want[j] = append([]float64(nil), vals[j]...)
			}
			p, gr, mo, ve := want[0], want[1], want[2], want[3]
			for i := range p {
				mo[i] = float64(a.Beta1*mo[i]) + float64((1-a.Beta1)*gr[i])
				ve[i] = float64(a.Beta2*ve[i]) + float64((1-a.Beta2)*gr[i]*gr[i])
				mHat := mo[i] / c1
				vHat := ve[i] / c2
				p[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
			}
			adam(vals[0], vals[1], vals[2], vals[3], k)
			for j, name := range []string{"p", "g", "m", "v"} {
				sameBits(t, fmt.Sprintf("length %d: %s", n, name), vals[j], want[j])
			}
		}
	})
}

// refSoftmax is the masked softmax as it was before the exp kernel: one
// math.Exp per valid logit in each pass, summed in index order.
func refSoftmax(dst, logits []float64, mask []bool) float64 {
	max := math.Inf(-1)
	for i, v := range logits {
		if (mask == nil || mask[i]) && v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		clear(dst[:len(logits)])
		return max
	}
	var sum float64
	for i, v := range logits {
		if mask == nil || mask[i] {
			sum += math.Exp(v - max)
		}
	}
	lse := max + math.Log(sum)
	for i, l := range logits {
		if (mask != nil && !mask[i]) || math.IsInf(l, -1) {
			dst[i] = 0
		} else {
			dst[i] = math.Exp(l - lse)
		}
	}
	return lse
}

// TestSoftmaxMatchesScalar holds Softmax and LogSumExp on both kernel paths
// to refSoftmax, in place and not, with and without a mask, at lengths that
// cross the exponential chunk, with -Inf and wide-ranging logits among them.
func TestSoftmaxMatchesScalar(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for _, n := range []int{0, 1, 3, 4, 5, 63, 64, 65, 127, 128, 129, 300, 512} {
			for trial := 0; trial < 6; trial++ {
				logits := make([]float64, n)
				mask := make([]bool, n)
				for i := range logits {
					switch rng.Intn(20) {
					case 0:
						logits[i] = math.Inf(-1)
					case 1:
						logits[i] = rng.NormFloat64() * 400
					default:
						logits[i] = rng.NormFloat64() * float64(1+trial)
					}
					mask[i] = rng.Intn(3) != 0
				}
				if trial == 5 {
					mask = nil
				}
				what := fmt.Sprintf("n %d trial %d", n, trial)
				want := make([]float64, n)
				wantLSE := refSoftmax(want, logits, mask)
				if lse := LogSumExp(logits, mask); math.Float64bits(lse) != math.Float64bits(wantLSE) {
					t.Fatalf("%s: LogSumExp = %v, reference %v", what, lse, wantLSE)
				}
				got := make([]float64, n)
				if lse := Softmax(got, logits, mask); math.Float64bits(lse) != math.Float64bits(wantLSE) {
					t.Fatalf("%s: Softmax log-sum-exp = %v, reference %v", what, lse, wantLSE)
				}
				sameBits(t, what, got, want)
				Softmax(logits, logits, mask)
				sameBits(t, what+" in place", logits, want)
			}
		}
	})
}
