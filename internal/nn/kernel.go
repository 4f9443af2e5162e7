package nn

// The two loops every dense layer runs on, in the fixed summation order the
// package contract names. dot and accum (kernel_amd64.go, kernel_other.go)
// pick an implementation per host; these plain loops are the fallback and
// the definition. Every product is rounded on its own (the float64
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
