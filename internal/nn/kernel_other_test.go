//go:build !amd64

package nn

import "testing"

// forEachKernel runs f as the subtest "go" of t: the plain loops are the one
// kernel path.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("go", f)
}
