//go:build !amd64

package nn

// dot sets y[o] to b[o] + Σ_i w[o·len(x)+i]·x[i], i ascending.
func dot(y, b, w, x []float64) { dotGo(y, b, w, x) }

// accum adds to acc[j] the sum, from zero and t ascending, of c[t]·m[t·stride+j].
func accum(acc, c, m []float64, stride int) { accumGo(acc, c, m, stride) }
