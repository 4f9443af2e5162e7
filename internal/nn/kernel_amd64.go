package nn

// useAVX2 selects the assembly kernels (kernel_amd64.s). It is set once, from
// the processor: AVX2 reported by CPUID and the YMM state enabled by the
// operating system (XGETBV). Tests clear it to run the plain loops.
var useAVX2 = haveAVX2()

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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
