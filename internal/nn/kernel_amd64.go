package nn

// useAVX2 selects the assembly kernels (kernel_amd64.s). It is set once, from
// the processor: AVX2 reported by CPUID and the YMM state enabled by the
// operating system (XGETBV). Tests clear it to run the plain loops.
var useAVX2 = haveAVX2()

// haveFMA reports FMA beside AVX2. math.Exp takes its fused path exactly when
// the processor has AVX and FMA, so the exp kernel, which repeats that path,
// runs only where both hold; elsewhere math.Exp's unfused path is the
// definition and every element takes it.
var haveFMA = haveAVX2() && fmaBit()

func fmaBit() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

func haveAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 0b110
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// dot sets y[o] to b[o] + Σ_i w[o·len(x)+i]·x[i], i ascending. The assembly
// kernel takes the units in groups of four, the rest go to dotGo.
func dot(y, b, w, x []float64) {
	o4 := 0
	if useAVX2 {
		o4 = len(y) &^ 3
		if o4 > 0 {
			dotAVX2(y[:o4], b[:o4], w[:o4*len(x)], x)
		}
	}
	dotGo(y[o4:], b[o4:], w[o4*len(x):], x)
}

// accum adds to acc[j] the sum, from zero and t ascending, of c[t]·m[t·stride+j].
func accum(acc, c, m []float64, stride int) {
	if len(acc) == 0 || len(c) == 0 {
		return
	}
	if !useAVX2 {
		accumGo(acc, c, m, stride)
		return
	}
	accumAVX2(acc, c, m[:(len(c)-1)*stride+len(acc)], stride)
}

// exp sets dst[i] = math.Exp(x[i]), len(dst) = len(x). The kernel stops at
// the first group of four holding an input outside its range; that group
// goes to math.Exp, and the kernel resumes after it. The last 0–3 elements
// go to math.Exp.
func exp(dst, x []float64) {
	i, n4 := 0, len(x)&^3
	if useAVX2 && haveFMA {
		for i < n4 {
			if i += expAVX2(dst[i:n4], x[i:n4]); i < n4 {
				expGo(dst[i:i+4], x[i:i+4])
				i += 4
			}
		}
	}
	expGo(dst[i:], x[i:])
}

// log sets dst[i] = math.Log(x[i]), len(dst) = len(x), by groups of four as
// exp does: a group holding an input that is not positive and finite goes to
// math.Log.
func log(dst, x []float64) {
	i, n4 := 0, len(x)&^3
	if useAVX2 {
		for i < n4 {
			if i += logAVX2(dst[i:n4], x[i:n4]); i < n4 {
				logGo(dst[i:i+4], x[i:i+4])
				i += 4
			}
		}
	}
	logGo(dst[i:], x[i:])
}

// adam applies the update k to p with gradients g and moments m and v, all of
// len(p): the assembly kernel takes the elements in groups of four, adamGo
// the last 0–3.
func adam(p, g, m, v []float64, k *adamStep) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	i := 0
	if useAVX2 {
		if i = len(p) &^ 3; i > 0 {
			adamAVX2(p[:i], g[:i], m[:i], v[:i], k)
		}
	}
	adamGo(p[i:], g[i:], m[i:], v[i:], k)
}

// dotAVX2 is dot for len(y) a multiple of four, with len(b) >= len(y) and
// len(w) >= len(y)·len(x).
//
//go:noescape
func dotAVX2(y, b, w, x []float64)

// accumAVX2 is accum for non-empty acc and c, with
// len(m) >= (len(c)-1)·stride + len(acc).
//
//go:noescape
func accumAVX2(acc, c, m []float64, stride int)

// expAVX2 sets dst[i] = math.Exp(x[i]) group of four by group of four, for
// len(x) a multiple of four and len(dst) >= len(x), and stops before the
// first group holding an input outside [−708, 709] (NaN included). It
// returns the number of elements set.
//
//go:noescape
func expAVX2(dst, x []float64) int

// logAVX2 is expAVX2 for math.Log; it stops before the first group holding
// an input that is not positive and finite.
//
//go:noescape
func logAVX2(dst, x []float64) int

// adamAVX2 is adam for len(p) a multiple of four.
//
//go:noescape
func adamAVX2(p, g, m, v []float64, k *adamStep)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
