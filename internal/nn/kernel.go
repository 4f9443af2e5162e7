package nn

import "math"

// The two loops every dense layer runs on, in the fixed summation order the
// package contract names, and the elementwise exp, log and Adam steps. dot,
// accum, exp, log and adam (kernel_amd64.go, kernel_other.go) pick an
// implementation per host; these plain loops are the fallback and the
// definition. Every product is rounded on its own (the float64
// conversion), so no compiler may fuse it into the add that follows: the bits
// are the same on every architecture.

// dotGo sets y[o] to b[o] plus the products w[o·len(x)+i]·x[i], added for i
// ascending: unit o's pre-activation under the row-major weights w.
func dotGo(y, b, w, x []float64) {
	for o := range y {
		z, row := b[o], w[o*len(x):][:len(x)]
		for i, xi := range x {
			z += float64(row[i] * xi)
		}
		y[o] = z
	}
}

// accumGo adds to acc[j] the sum, from zero and for t ascending, of
// c[t]·m[t·stride+j].
func accumGo(acc, c, m []float64, stride int) {
	for j := range acc {
		var s float64
		for t, ct := range c {
			s += float64(ct * m[t*stride+j])
		}
		acc[j] += s
	}
}

// Exp sets dst[i] to math.Exp(x[i]) for every i of x, bit for bit; dst may be
// x itself. Where the processor has AVX2 and FMA, the groups of four whose
// inputs all lie in [−708, 709] run on the assembly kernel
// (kernel_amd64.s), which repeats math.Exp's FMA path lane by lane; every
// other element takes math.Exp itself.
func Exp(dst, x []float64) { exp(dst[:len(x)], x) }

// Log sets dst[i] to math.Log(x[i]) for every i of x, bit for bit; dst may be
// x itself. Where the processor has AVX2, the groups of four whose inputs are
// all positive and finite run on the assembly kernel, which repeats
// math.Log's SSE2 path lane by lane; every other element takes math.Log
// itself.
func Log(dst, x []float64) { log(dst[:len(x)], x) }

func expGo(dst, x []float64) {
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}

func logGo(dst, x []float64) {
	for i, v := range x {
		dst[i] = math.Log(v)
	}
}

// adamStep holds one Adam update's scalars in the order the assembly kernel
// reads them.
type adamStep struct {
	beta1, oneMinusBeta1, beta2, oneMinusBeta2 float64
	c1, c2                                     float64 // bias corrections
	lr, eps                                    float64
}

// adamGo applies the update k to the parameters p, whose gradients are g and
// whose first and second moments are m and v. Each product is rounded on its
// own (the float64 conversions), so that no compiler fuses it into the add.
func adamGo(p, g, m, v []float64, k *adamStep) {
	for i := range p {
		m[i] = float64(k.beta1*m[i]) + float64(k.oneMinusBeta1*g[i])
		v[i] = float64(k.beta2*v[i]) + float64(k.oneMinusBeta2*g[i]*g[i])
		mHat := m[i] / k.c1
		vHat := v[i] / k.c2
		p[i] -= k.lr * mHat / (math.Sqrt(vHat) + k.eps)
	}
}
