package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	mW, vW, mB, vB        [][]float64
}

// NewAdam constructs an Adam optimizer for m with standard betas.
func NewAdam(m *MLP, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	for l := range m.W {
		a.mW = append(a.mW, make([]float64, len(m.W[l])))
		a.vW = append(a.vW, make([]float64, len(m.W[l])))
		a.mB = append(a.mB, make([]float64, len(m.B[l])))
		a.vB = append(a.vB, make([]float64, len(m.B[l])))
	}
	return a
}

// Step applies one Adam update (minimizing the loss whose gradient is g).
func (a *Adam) Step(m *MLP, g *Grads) {
	a.Tick()
	for l := range m.W {
		a.StepRows(m, g, l, 0, m.Sizes[l+1])
	}
}

// Tick begins the next update: StepRows calls until the following Tick belong
// to it and share its bias correction.
func (a *Adam) Tick() { a.t++ }

// StepRows applies the current update to rows [lo, hi) of layer l. The update
// is elementwise, so an update may be split by rows between concurrent callers,
// each row updated exactly once.
func (a *Adam) StepRows(m *MLP, g *Grads, l, lo, hi int) {
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	update := func(p, gr, mo, ve []float64) {
		for i := range p {
			mo[i] = a.Beta1*mo[i] + (1-a.Beta1)*gr[i]
			ve[i] = a.Beta2*ve[i] + (1-a.Beta2)*gr[i]*gr[i]
			mHat := mo[i] / c1
			vHat := ve[i] / c2
			p[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
	in := m.Sizes[l]
	update(m.W[l][lo*in:hi*in], g.W[l][lo*in:hi*in], a.mW[l][lo*in:hi*in], a.vW[l][lo*in:hi*in])
	update(m.B[l][lo:hi], g.B[l][lo:hi], a.mB[l][lo:hi], a.vB[l][lo:hi])
}
