package nn

import "testing"

// forEachKernel runs f as a subtest of t once per kernel path this host can
// run: "avx2", the assembly kernels, where the processor has AVX2, then "go",
// the plain loops. The default selection is restored afterwards.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	if haveAVX2() {
		useAVX2 = true
		t.Run("avx2", f)
	} else {
		t.Log("no AVX2 on this processor: only the plain loops run")
	}
	useAVX2 = false
	t.Run("go", f)
}

// TestExpLogKernelsTakeTheirRange checks that the assembly kernels, not the
// standard library behind them, compute the in-range groups: each kernel runs
// until the first group holding an input outside its range.
func TestExpLogKernelsTakeTheirRange(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 on this processor")
	}
	x := []float64{0.5, -3, 700, -700, 1e-300, 2, 0x1p-1074, 8, 1, -800, 3, 4}
	dst := make([]float64, len(x))
	if haveFMA {
		if n := expAVX2(dst, x); n != 8 {
			t.Errorf("expAVX2 set %d elements, want 8 (the third group holds −800)", n)
		}
	}
	if n := logAVX2(dst, x); n != 0 {
		t.Errorf("logAVX2 set %d elements, want 0 (the first group holds −3)", n)
	}
	if n := logAVX2(dst[4:], x[4:]); n != 4 {
		t.Errorf("logAVX2 set %d elements, want 4 (the second group holds −800)", n)
	}
}
