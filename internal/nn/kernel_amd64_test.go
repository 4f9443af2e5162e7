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
