package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, ActTanh, 4, 8, 3)
	out := m.Forward([]float64{1, 0, -1, 0.5})
	if len(out) != 3 {
		t.Fatalf("output dim = %d, want 3", len(out))
	}
	if m.InputDim() != 4 || m.OutputDim() != 3 || m.Layers() != 2 {
		t.Errorf("dims: in=%d out=%d layers=%d", m.InputDim(), m.OutputDim(), m.Layers())
	}
	if n := len(m.W[0]) + len(m.B[0]) + len(m.W[1]) + len(m.B[1]); n != 4*8+8+8*3+3 {
		t.Errorf("parameters = %d", n)
	}
}

func TestForwardDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, ActReLU, 3, 5, 2)
	x := []float64{0.2, -0.4, 0.9}
	a := m.Forward(x)
	b := m.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forward pass not deterministic")
		}
	}
}

func TestBadConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sizes := range [][]int{{3}, {}, {3, 0, 2}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMLP(%v) should panic", sizes)
				}
			}()
			NewMLP(rng, ActTanh, sizes...)
		}()
	}
}

func TestForwardWrongDimPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, ActTanh, 3, 2)
	defer func() {
		if recover() == nil {
			t.Error("wrong input dim should panic")
		}
	}()
	m.Forward([]float64{1, 2})
}

// TestGradientCheck verifies backprop against central finite differences for
// both activations.
func TestGradientCheck(t *testing.T) {
	for _, act := range []Activation{ActTanh, ActReLU} {
		rng := rand.New(rand.NewSource(42))
		m := NewMLP(rng, act, 5, 7, 4, 3)
		x := make([]float64, 5)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Loss: L = Σ c_o * y_o with random coefficients (linear in output,
		// so dL/dy = c exactly).
		c := make([]float64, 3)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		loss := func() float64 {
			y := m.Forward(x)
			var s float64
			for i := range y {
				s += c[i] * y[i]
			}
			return s
		}
		g := m.NewGrads()
		cache := m.ForwardCache(x)
		m.Backward(cache, c, g)

		const eps = 1e-5
		checkParam := func(p []float64, gp []float64, name string, l int) {
			// Spot-check a handful of parameters per layer.
			step := len(p)/5 + 1
			for i := 0; i < len(p); i += step {
				orig := p[i]
				p[i] = orig + eps
				up := loss()
				p[i] = orig - eps
				down := loss()
				p[i] = orig
				numeric := (up - down) / (2 * eps)
				if diff := math.Abs(numeric - gp[i]); diff > 1e-4*(1+math.Abs(numeric)) {
					t.Errorf("act=%v %s[%d][%d]: backprop %.8f vs numeric %.8f", act, name, l, i, gp[i], numeric)
				}
			}
		}
		for l := range m.W {
			checkParam(m.W[l], g.W[l], "W", l)
			checkParam(m.B[l], g.B[l], "B", l)
		}
	}
}

func TestInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, ActTanh, 4, 6, 2)
	x := []float64{0.1, -0.3, 0.7, 0.2}
	c := []float64{1.5, -0.8}
	loss := func(in []float64) float64 {
		y := m.Forward(in)
		return c[0]*y[0] + c[1]*y[1]
	}
	g := m.NewGrads()
	dIn := m.Backward(m.ForwardCache(x), c, g)
	const eps = 1e-5
	for i := range x {
		xp := append([]float64(nil), x...)
		xp[i] += eps
		xm := append([]float64(nil), x...)
		xm[i] -= eps
		numeric := (loss(xp) - loss(xm)) / (2 * eps)
		if diff := math.Abs(numeric - dIn[i]); diff > 1e-5*(1+math.Abs(numeric)) {
			t.Errorf("dIn[%d]: backprop %.8f vs numeric %.8f", i, dIn[i], numeric)
		}
	}
}

// TestTrainingRegression checks that Adam + backprop can fit a simple
// function (y = x1 - x2) to low error.
func TestTrainingRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMLP(rng, ActTanh, 2, 16, 1)
	opt := NewAdam(m, 0.01)
	g := m.NewGrads()
	var lastLoss float64
	for epoch := 0; epoch < 400; epoch++ {
		g.Zero()
		lastLoss = 0
		const batch = 32
		for i := 0; i < batch; i++ {
			x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
			target := x[0] - x[1]
			cache := m.ForwardCache(x)
			y := cache.Output()[0]
			diff := y - target
			lastLoss += diff * diff
			m.Backward(cache, []float64{2 * diff / batch}, g)
		}
		lastLoss /= batch
		opt.Step(m, g)
	}
	if lastLoss > 0.01 {
		t.Errorf("regression did not converge: final MSE %.5f", lastLoss)
	}
}

func TestGradsOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, ActTanh, 2, 3, 1)
	g1 := m.NewGrads()
	g1.W[0][0] = 2
	g1.Zero()
	if g1.W[0][0] != 0 {
		t.Errorf("Zero: got %v", g1.W[0][0])
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, ActTanh, 2, 3, 1)
	c := NewMLP(rng, ActTanh, 2, 3, 1)
	if m.W[0][0] == c.W[0][0] {
		t.Fatal("two draws from one rng gave the same weight")
	}
	m.CopyFrom(c)
	if m.W[0][0] != c.W[0][0] {
		t.Error("CopyFrom did not copy")
	}
	c.W[0][0] += 1
	if m.W[0][0] == c.W[0][0] {
		t.Error("the copy shares weights with its source")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			logits[i] = math.Mod(v, 10) // keep magnitudes sane
			if math.IsNaN(logits[i]) {
				logits[i] = 0
			}
		}
		p := make([]float64, len(logits))
		Softmax(p, logits, nil)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskedSoftmax(t *testing.T) {
	logits := []float64{1, 2, 3, 4}
	mask := []bool{true, false, true, false}
	p := make([]float64, 4)
	lse := Softmax(p, logits, mask)
	if p[1] != 0 || p[3] != 0 {
		t.Errorf("masked entries should be zero: %v", p)
	}
	if math.Abs(p[0]+p[2]-1) > 1e-9 {
		t.Errorf("valid mass should sum to 1: %v", p)
	}
	if want := LogSumExp([]float64{1, 3}, nil); lse != want {
		t.Errorf("masked log-sum-exp = %v, want %v", lse, want)
	}
	// All-masked yields zeros, in place too.
	none := []float64{1, 2, 3, 4}
	if lse := Softmax(none, none, []bool{false, false, false, false}); !math.IsInf(lse, -1) {
		t.Errorf("all-masked log-sum-exp = %v, want -Inf", lse)
	}
	for _, v := range none {
		if v != 0 {
			t.Errorf("all-masked softmax should be zero: %v", none)
		}
	}
}

func TestLogSumExpStability(t *testing.T) {
	// Large logits must not overflow.
	v := LogSumExp([]float64{1000, 1000}, nil)
	want := 1000 + math.Log(2)
	if math.Abs(v-want) > 1e-9 {
		t.Errorf("LogSumExp large = %v, want %v", v, want)
	}
	if !math.IsInf(LogSumExp([]float64{negInf, negInf}, nil), -1) {
		t.Error("all -Inf should be -Inf")
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := []float64{0.1, 0.6, 0.3}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(p, rng)]++
	}
	for i, want := range p {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("empirical p[%d] = %.3f, want %.3f", i, got, want)
		}
	}
}

func TestSampleCategoricalZeroMassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-mass distribution should panic")
		}
	}()
	SampleCategorical([]float64{0, 0}, rand.New(rand.NewSource(1)))
}

func TestSampleCategoricalNeverPicksZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := []float64{0, 1, 0}
	for i := 0; i < 100; i++ {
		if SampleCategorical(p, rng) != 1 {
			t.Fatal("sampled zero-probability index")
		}
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Error("argmax wrong")
	}
	if Argmax(nil) != -1 {
		t.Error("empty argmax should be -1")
	}
	if Argmax([]float64{2, 2, 1}) != 0 {
		t.Error("ties should pick first")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewMLP(rng, ActReLU, 3, 4, 2)
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, -0.5, 1}
	a, b := m.Forward(x), got.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded network differs from saved one")
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not gob data")); err == nil {
		t.Error("garbage input should fail")
	}
}
