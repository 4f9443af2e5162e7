package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The per-sample forward and backward passes as they stood before the batch
// kernel replaced them (ec7aac6), with one change to the loop bodies: every
// product is rounded on its own (float64(d*a)), which forbids the compiler to
// fuse it with the add, so the oracle's bits are the same on every
// architecture. They are the oracle: the kernel must reproduce them bit for
// bit, whatever the batch size and however the samples and rows are split
// between calls.

func refForward(m *MLP, x []float64) [][]float64 {
	as := make([][]float64, m.Layers()+1)
	as[0] = x
	cur := x
	for l := 0; l < m.Layers(); l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		next := make([]float64, out)
		w, b := m.W[l], m.B[l]
		for o := 0; o < out; o++ {
			z := b[o]
			row := w[o*in : (o+1)*in]
			for i, xi := range cur {
				z += float64(row[i] * xi)
			}
			if l < m.Layers()-1 {
				z = m.activate(z)
			}
			next[o] = z
		}
		as[l+1] = next
		cur = next
	}
	return as
}

func refBackward(m *MLP, as [][]float64, dOut []float64, g *Grads) []float64 {
	delta := append([]float64(nil), dOut...)
	for l := m.Layers() - 1; l >= 0; l-- {
		in := m.Sizes[l]
		aIn := as[l]
		w := m.W[l]
		// Parameter gradients.
		for o, d := range delta {
			g.B[l][o] += d
			row := g.W[l][o*in : (o+1)*in]
			for i, a := range aIn {
				row[i] += float64(d * a)
			}
		}
		if l == 0 {
			// Input gradient.
			dIn := make([]float64, in)
			for o, d := range delta {
				row := w[o*in : (o+1)*in]
				for i := range dIn {
					dIn[i] += float64(d * row[i])
				}
			}
			return dIn
		}
		// Propagate through weights and the previous layer's activation.
		prev := make([]float64, in)
		for o, d := range delta {
			row := w[o*in : (o+1)*in]
			for i := range prev {
				prev[i] += float64(d * row[i])
			}
		}
		for i := range prev {
			prev[i] *= m.activateGrad(aIn[i])
		}
		delta = prev
	}
	return nil
}

// refAdd is the deleted Grads.Add: block buffers were merged with it, in block
// order, into a zeroed total.
func refAdd(g, other *Grads) {
	for l := range g.W {
		for i := range g.W[l] {
			g.W[l][i] += other.W[l][i]
		}
		for i := range g.B[l] {
			g.B[l][i] += other.B[l][i]
		}
	}
}

// refBatch is the batch gradient as rl.update computed it: every GradBlock
// samples into a zeroed buffer in sample order, the buffers added in block
// order into a zeroed total. It also returns each sample's output and input
// gradient.
func refBatch(m *MLP, xs, dOuts [][]float64) (g *Grads, outs, dIns [][]float64) {
	g = m.NewGrads()
	for b0 := 0; b0 < len(xs); b0 += GradBlock {
		buf := m.NewGrads()
		for s := b0; s < min(b0+GradBlock, len(xs)); s++ {
			as := refForward(m, xs[s])
			outs = append(outs, as[len(as)-1])
			dIns = append(dIns, refBackward(m, as, dOuts[s], buf))
		}
		refAdd(g, buf)
	}
	return g, outs, dIns
}

// cuts splits [0, n) into consecutive ranges at random points (possibly
// empty ones), returned as boundaries 0 = c[0] <= ... <= c[len-1] = n.
func cuts(rng *rand.Rand, n int) []int {
	c := []int{0}
	for c[len(c)-1] < n {
		c = append(c, c[len(c)-1]+rng.Intn(n-c[len(c)-1]+1))
	}
	return c
}

// sameBits fails unless got and want hold the same bits, except that any NaN
// matches any NaN: which payload an operation on two NaNs keeps depends on
// the operand order, which IEEE 754 leaves open and the compiler may swap.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specials are the values the kernels must carry exactly like the oracle:
// signed zeros, subnormals and magnitudes whose products overflow or
// underflow, then the non-finite values, which are drawn more rarely so that
// most sums stay finite.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e-300, -1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

const nonFinite = 3 // the last nonFinite specials

// kernelWidths are the layer widths the shapes are drawn from: below, at and
// past every vector width the kernels step by (1, 4, 8, 16, 32).
var kernelWidths = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17, 26, 31, 33, 40, 67}

// TestKernelMatchesReference holds the batch kernel to the per-sample
// reference bit for bit, on every kernel path the host can run: both
// activations, batch sizes around the block boundary, arbitrary splits of
// the sample and row ranges, and deltas that are zero or negative zero. The
// first cases draw every width from 1 to 9; the wide ones draw widths with
// tails at every vector width the kernels step by; the special ones make one
// in eight weights, biases, inputs and deltas a special value (three in 512
// an infinity or NaN).
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	normal := func() float64 { return rng.NormFloat64() }
	special := func() float64 {
		switch r := rng.Intn(512); {
		case r < nonFinite:
			return specials[len(specials)-1-r]
		case r < 64:
			return specials[rng.Intn(len(specials)-nonFinite)]
		}
		return rng.NormFloat64()
	}
	for _, kind := range []string{"", "wide/", "special/"} {
		for _, act := range []Activation{ActTanh, ActReLU} {
			for _, n := range []int{1, 3, 4, 5, 63, 64, 65, 150} {
				sizes := make([]int, 2+rng.Intn(3))
				for i := range sizes {
					if kind == "" {
						sizes[i] = 1 + rng.Intn(9)
					} else {
						sizes[i] = kernelWidths[rng.Intn(len(kernelWidths))]
					}
				}
				if n%2 == 1 {
					sizes[rng.Intn(len(sizes))] = 1
				}
				draw := normal
				if kind == "special/" {
					draw = special
				}
				m := NewMLP(rng, act, sizes...)
				for l := range m.W {
					if kind == "special/" {
						for i := range m.W[l] {
							m.W[l][i] = draw()
						}
					}
					if kind != "" {
						for i := range m.B[l] {
							m.B[l][i] = draw()
						}
					}
				}
				t.Run(fmt.Sprintf("%sact=%d/n=%d/sizes=%v", kind, act, n, sizes), func(t *testing.T) {
					checkKernel(t, rng, m, n, draw)
				})
			}
		}
	}
}

// checkKernel draws n inputs and output deltas for m from draw, and from rng
// the splits of the samples and of every layer's rows, then holds every
// kernel path to refBatch on them.
func checkKernel(t *testing.T, rng *rand.Rand, m *MLP, n int, draw func() float64) {
	xs, dOuts := make([][]float64, n), make([][]float64, n)
	for s := range xs {
		xs[s], dOuts[s] = make([]float64, m.InputDim()), make([]float64, m.OutputDim())
		for i := range xs[s] {
			xs[s][i] = draw()
		}
		for i := range dOuts[s] {
			switch rng.Intn(4) {
			case 0:
				dOuts[s][i] = 0
			case 1:
				dOuts[s][i] = math.Copysign(0, -1)
			default:
				dOuts[s][i] = draw()
			}
		}
	}
	wantG, wantOut, wantIn := refBatch(m, xs, dOuts)
	fwd, bwd := cuts(rng, n), cuts(rng, n)
	rows := make([][]int, m.Layers())
	for l := range rows {
		rows[l] = cuts(rng, m.Sizes[l+1])
	}
	forEachKernel(t, func(t *testing.T) {
		ws := m.NewWorkspace(n)
		for s := range xs {
			copy(ws.Input(s), xs[s])
		}
		for c := fwd; len(c) > 1; c = c[1:] {
			m.ForwardBatch(ws, c[0], c[1])
		}
		for s := range xs {
			sameBits(t, fmt.Sprintf("output %d", s), ws.Output(s), wantOut[s])
			copy(ws.OutputDelta(s), dOuts[s])
		}
		for c := bwd; len(c) > 1; c = c[1:] {
			m.BackwardBatch(ws, c[0], c[1], true)
		}
		for s := range xs {
			sameBits(t, fmt.Sprintf("input gradient %d", s), ws.row(ws.d, 0, s), wantIn[s])
		}
		g := m.NewGrads()
		for l := range m.W {
			for c := rows[l]; len(c) > 1; c = c[1:] {
				m.AddGrads(ws, n, l, c[0], c[1], g)
			}
			sameBits(t, fmt.Sprintf("W[%d] gradient", l), g.W[l], wantG.W[l])
			sameBits(t, fmt.Sprintf("B[%d] gradient", l), g.B[l], wantG.B[l])
		}
	})
}

// TestPerSampleEntryPointsMatchReference holds ForwardCache and Backward — the
// kernel at n = 1 — to the reference, accumulating several samples into one
// Grads as the VAE's minibatch does.
func TestPerSampleEntryPointsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := NewMLP(rng, ActTanh, 5, 7, 1, 6)
	got, want := m.NewGrads(), m.NewGrads()
	for s := 0; s < 10; s++ {
		x, dOut := make([]float64, 5), make([]float64, 6)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range dOut {
			dOut[i] = rng.NormFloat64()
		}
		as := refForward(m, x)
		wantIn := refBackward(m, as, dOut, want)
		c := m.ForwardCache(x)
		sameBits(t, "output", c.Output(), as[len(as)-1])
		sameBits(t, "input gradient", m.Backward(c, dOut, got), wantIn)
	}
	for l := range m.W {
		sameBits(t, fmt.Sprintf("W[%d] gradient", l), got.W[l], want.W[l])
		sameBits(t, fmt.Sprintf("B[%d] gradient", l), got.B[l], want.B[l])
	}
}
