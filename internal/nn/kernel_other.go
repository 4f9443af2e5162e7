//go:build !amd64

package nn

// dot sets y[o] to b[o] + Σ_i w[o·len(x)+i]·x[i], i ascending.
func dot(y, b, w, x []float64) { dotGo(y, b, w, x) }

// accum adds to acc[j] the sum, from zero and t ascending, of c[t]·m[t·stride+j].
func accum(acc, c, m []float64, stride int) { accumGo(acc, c, m, stride) }

// exp sets dst[i] = math.Exp(x[i]), len(dst) = len(x).
func exp(dst, x []float64) { expGo(dst, x) }

// log sets dst[i] = math.Log(x[i]), len(dst) = len(x).
func log(dst, x []float64) { logGo(dst, x) }

// adam applies the update k to p with gradients g and moments m and v.
func adam(p, g, m, v []float64, k *adamStep) { adamGo(p, g[:len(p)], m[:len(p)], v[:len(p)], k) }
