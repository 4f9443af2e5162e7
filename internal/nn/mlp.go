// Package nn is a small, dependency-free neural-network library: multi-layer
// perceptrons with tanh/ReLU hidden activations, manual backpropagation, the
// Adam optimizer, and the categorical helpers (masked softmax, sampling) that
// the RL agents in internal/rl are built from.
//
// Forward and backward passes are one batch kernel over a Workspace — the
// activations and deltas of n samples, one row each — filled by sample range
// (ForwardBatch, BackwardBatch) and by parameter row range (AddGrads) in a
// fixed summation order; ForwardCache and Backward are the kernel at n = 1.
//
// The library is deliberately minimal — dense layers only — because that is
// exactly what the paper's actor and critic networks are: "a large input
// layer matching the action space's size, followed by smaller fully-connected
// layers" (Section 5.1).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the hidden-layer nonlinearity of an MLP. The output
// layer is always linear (softmax, when needed, is applied by the caller).
type Activation uint8

const (
	// ActTanh uses tanh hidden units.
	ActTanh Activation = iota
	// ActReLU uses rectified linear hidden units.
	ActReLU
)

// MLP is a fully-connected feed-forward network. Weight matrices are stored
// row-major: W[l][o*in+i] is the weight from input i to output o of layer l.
// Fields are exported for gob serialization.
type MLP struct {
	Sizes []int // layer widths, input first
	Act   Activation
	W     [][]float64
	B     [][]float64
}

// NewMLP constructs a network with the given layer sizes (at least two:
// input and output), initialized with scaled Gaussian weights (Xavier for
// tanh, He for ReLU) drawn from rng.
func NewMLP(rng *rand.Rand, act Activation, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewMLP needs >= 2 layer sizes, got %v", sizes))
	}
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: invalid layer size in %v", sizes))
		}
	}
	m := &MLP{Sizes: append([]int(nil), sizes...), Act: act}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(1.0 / float64(in)) // Xavier
		if act == ActReLU {
			scale = math.Sqrt(2.0 / float64(in)) // He
		}
		w := make([]float64, in*out)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m
}

// Layers returns the number of weight layers.
func (m *MLP) Layers() int { return len(m.W) }

// InputDim returns the expected input width.
func (m *MLP) InputDim() int { return m.Sizes[0] }

// OutputDim returns the output width.
func (m *MLP) OutputDim() int { return m.Sizes[len(m.Sizes)-1] }

func (m *MLP) activate(z float64) float64 {
	if m.Act == ActReLU {
		if z > 0 {
			return z
		}
		return 0
	}
	return math.Tanh(z)
}

// activateGrad returns dA/dz given the post-activation value a.
func (m *MLP) activateGrad(a float64) float64 {
	if m.Act == ActReLU {
		if a > 0 {
			return 1
		}
		return 0
	}
	return 1 - a*a
}

// GradBlock is the number of consecutive samples whose parameter-gradient
// contributions are summed, from zero and in sample order, into one partial
// sum; the partial sums are then added in block order. Blocks — not workers,
// not chunk sizes — define the floating-point summation order of a batch
// gradient, so it is the same for every way of splitting the work.
const GradBlock = 64

// Workspace holds the activations and loss gradients of a batch of samples
// flowing through one network shape, row-major with one row per sample. It is
// the only buffer the forward and backward passes write, so a caller that
// keeps one per network runs updates without allocating.
type Workspace struct {
	sizes []int
	a     [][]float64 // a[l] is n × sizes[l]: a[0] the inputs, a[L] the linear outputs
	d     [][]float64 // d[l] is n × sizes[l]: the loss gradient at layer l's pre-activation (d[0]: at the input)
}

// NewWorkspace allocates a workspace for n samples of m's shape.
func (m *MLP) NewWorkspace(n int) *Workspace {
	ws := &Workspace{sizes: m.Sizes}
	ws.Resize(n)
	return ws
}

// Resize makes room for n samples. Growing discards the contents.
func (ws *Workspace) Resize(n int) {
	if len(ws.a) > 0 && len(ws.a[0]) >= n*ws.sizes[0] {
		return
	}
	width := 0
	for _, s := range ws.sizes {
		width += s
	}
	buf := make([]float64, 2*n*width)
	rows := make([][]float64, 2*len(ws.sizes))
	for i := range rows {
		w := n * ws.sizes[i%len(ws.sizes)]
		rows[i], buf = buf[:w:w], buf[w:]
	}
	ws.a, ws.d = rows[:len(ws.sizes)], rows[len(ws.sizes):]
}

func (ws *Workspace) row(m [][]float64, l, s int) []float64 {
	w := ws.sizes[l]
	return m[l][s*w : (s+1)*w : (s+1)*w]
}

// Input returns sample s's input row, for the caller to fill before ForwardBatch.
func (ws *Workspace) Input(s int) []float64 { return ws.row(ws.a, 0, s) }

// Output returns sample s's (linear) network output, as ForwardBatch left it.
func (ws *Workspace) Output(s int) []float64 { return ws.row(ws.a, len(ws.sizes)-1, s) }

// OutputDelta returns the row that holds the loss gradient at sample s's
// output, for the caller to fill before BackwardBatch.
func (ws *Workspace) OutputDelta(s int) []float64 { return ws.row(ws.d, len(ws.sizes)-1, s) }

// ForwardBatch runs samples [lo, hi) of ws from their input rows to their
// output rows. Every unit's sum is its bias, then its inputs in index order;
// four units are summed side by side so the adds overlap.
func (m *MLP) ForwardBatch(ws *Workspace, lo, hi int) {
	last := m.Layers() - 1
	for l, w := range m.W {
		in, out, b := m.Sizes[l], m.Sizes[l+1], m.B[l]
		for s := lo; s < hi; s++ {
			x, y := ws.row(ws.a, l, s), ws.row(ws.a, l+1, s)
			o := 0
			for ; o+4 <= out; o += 4 {
				r0, r1, r2, r3 := w[o*in:][:len(x)], w[(o+1)*in:][:len(x)], w[(o+2)*in:][:len(x)], w[(o+3)*in:][:len(x)]
				z0, z1, z2, z3 := b[o], b[o+1], b[o+2], b[o+3]
				for i, xi := range x {
					z0, z1, z2, z3 = z0+r0[i]*xi, z1+r1[i]*xi, z2+r2[i]*xi, z3+r3[i]*xi
				}
				y[o], y[o+1], y[o+2], y[o+3] = z0, z1, z2, z3
			}
			for ; o < out; o++ {
				row, z := w[o*in:][:len(x)], b[o]
				for i, xi := range x {
					z += row[i] * xi
				}
				y[o] = z
			}
			if l < last {
				for o, z := range y {
					y[o] = m.activate(z)
				}
			}
		}
	}
}

// BackwardBatch carries the output deltas of samples [lo, hi) down to every
// hidden layer's pre-activation — and to the input when input is set. A delta
// is the sum, from zero and in unit order, of the deltas above it times their
// weights.
func (m *MLP) BackwardBatch(ws *Workspace, lo, hi int, input bool) {
	for l := m.Layers() - 1; l > 0 || (l == 0 && input); l-- {
		in, out, w := m.Sizes[l], m.Sizes[l+1], m.W[l]
		for s := lo; s < hi; s++ {
			above, prev := ws.row(ws.d, l+1, s), ws.row(ws.d, l, s)
			clear(prev)
			o := 0
			for ; o+4 <= out; o += 4 {
				r0, r1, r2, r3 := w[o*in:][:len(prev)], w[(o+1)*in:][:len(prev)], w[(o+2)*in:][:len(prev)], w[(o+3)*in:][:len(prev)]
				d0, d1, d2, d3 := above[o], above[o+1], above[o+2], above[o+3]
				for i, p := range prev {
					prev[i] = p + d0*r0[i] + d1*r1[i] + d2*r2[i] + d3*r3[i]
				}
			}
			for ; o < out; o++ {
				row, d := w[o*in:][:len(prev)], above[o]
				for i := range prev {
					prev[i] += d * row[i]
				}
			}
			if l > 0 {
				for i, a := range ws.row(ws.a, l, s) {
					prev[i] *= m.activateGrad(a)
				}
			}
		}
	}
}

// Grads accumulates parameter gradients with the same shapes as the MLP.
type Grads struct {
	W [][]float64
	B [][]float64
}

// NewGrads allocates a zeroed gradient accumulator for m.
func (m *MLP) NewGrads() *Grads {
	g := &Grads{}
	for l := range m.W {
		g.W = append(g.W, make([]float64, len(m.W[l])))
		g.B = append(g.B, make([]float64, len(m.B[l])))
	}
	return g
}

// Zero resets all gradients to zero.
func (g *Grads) Zero() {
	for l := range g.W {
		clear(g.W[l])
		clear(g.B[l])
	}
}

// AddGrads adds to rows [lo, hi) of layer l of g the gradient of the first n
// samples of ws, whose deltas BackwardBatch has filled. Each element is summed
// on its own, GradBlock by GradBlock (see there), so any split of a layer's
// rows between callers yields the same bits, and distinct rows can be added
// concurrently.
func (m *MLP) AddGrads(ws *Workspace, n, l, lo, hi int, g *Grads) {
	in, out := m.Sizes[l], m.Sizes[l+1]
	acts, deltas := ws.a[l], ws.d[l+1]
	var col [GradBlock]float64
	for b0 := 0; b0 < n; b0 += GradBlock {
		d := col[:min(GradBlock, n-b0)]
		for o := lo; o < hi; o++ {
			var sum float64
			for k := range d {
				d[k] = deltas[(b0+k)*out+o]
				sum += d[k]
			}
			g.B[l][o] += sum
			row := g.W[l][o*in:][:in]
			i := 0
			for ; i+8 <= in; i += 8 {
				var s0, s1, s2, s3, s4, s5, s6, s7 float64
				at := b0*in + i
				for _, dk := range d {
					a := acts[at:][:8]
					s0, s1, s2, s3 = s0+dk*a[0], s1+dk*a[1], s2+dk*a[2], s3+dk*a[3]
					s4, s5, s6, s7 = s4+dk*a[4], s5+dk*a[5], s6+dk*a[6], s7+dk*a[7]
					at += in
				}
				r := row[i:][:8]
				r[0], r[1], r[2], r[3] = r[0]+s0, r[1]+s1, r[2]+s2, r[3]+s3
				r[4], r[5], r[6], r[7] = r[4]+s4, r[5]+s5, r[6]+s6, r[7]+s7
			}
			for ; i < in; i++ {
				var s float64
				for k, dk := range d {
					s += dk * acts[(b0+k)*in+i]
				}
				row[i] += s
			}
		}
	}
}

// Cache is the one-sample workspace of a ForwardCache call, for use by
// Backward.
type Cache Workspace

// Output returns the network output stored in the cache.
func (c *Cache) Output() []float64 { return (*Workspace)(c).Output(0) }

// Forward computes the network output for input x.
func (m *MLP) Forward(x []float64) []float64 {
	return m.ForwardCache(x).Output()
}

// ForwardCache computes the output, retaining activations for Backward: the
// batch kernel on a fresh workspace of one sample.
func (m *MLP) ForwardCache(x []float64) *Cache {
	if len(x) != m.InputDim() {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), m.InputDim()))
	}
	ws := m.NewWorkspace(1)
	copy(ws.Input(0), x)
	m.ForwardBatch(ws, 0, 1)
	return (*Cache)(ws)
}

// Backward backpropagates dOut (the gradient of the loss with respect to the
// network's linear output) through the cached forward pass, accumulating
// parameter gradients into g. It returns the gradient with respect to the
// input, which the cache owns.
func (m *MLP) Backward(c *Cache, dOut []float64, g *Grads) []float64 {
	if len(dOut) != m.OutputDim() {
		panic(fmt.Sprintf("nn: dOut dim %d, want %d", len(dOut), m.OutputDim()))
	}
	ws := (*Workspace)(c)
	copy(ws.OutputDelta(0), dOut)
	m.BackwardBatch(ws, 0, 1, true)
	for l := range m.W {
		m.AddGrads(ws, 1, l, 0, m.Sizes[l+1], g)
	}
	return ws.row(ws.d, 0, 0)
}

// CopyFrom copies parameters from src (shapes must match).
func (m *MLP) CopyFrom(src *MLP) {
	for l := range m.W {
		copy(m.W[l], src.W[l])
		copy(m.B[l], src.B[l])
	}
}
