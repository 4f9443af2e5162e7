package nn

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks at the shapes ASQP-RL actually uses: 26-dim coverage
// state → 64×64 hidden → 512-way action logits.

func benchNet() *MLP {
	return NewMLP(rand.New(rand.NewSource(1)), ActTanh, 26, 64, 64, 512)
}

func BenchmarkForward(b *testing.B) {
	m := benchNet()
	x := make([]float64, 26)
	for i := range x {
		x[i] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkForwardBackward(b *testing.B) {
	m := benchNet()
	g := m.NewGrads()
	x := make([]float64, 26)
	dOut := make([]float64, 512)
	dOut[3] = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := m.ForwardCache(x)
		m.Backward(cache, dOut, g)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	m := benchNet()
	g := m.NewGrads()
	opt := NewAdam(m, 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(m, g)
	}
}

func BenchmarkMaskedSoftmax(b *testing.B) {
	logits := make([]float64, 512)
	mask := make([]bool, 512)
	for i := range logits {
		logits[i] = float64(i%13) * 0.1
		mask[i] = i%3 != 0
	}
	p := make([]float64, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(p, logits, mask)
	}
}

// BenchmarkKernel is one epoch's worth of the batch kernel at the PPO
// update's shape: 86 samples forward, deltas back, every layer's gradient.
func BenchmarkKernel(b *testing.B) {
	const n = 86
	m := benchNet()
	g := m.NewGrads()
	ws := m.NewWorkspace(n)
	rng := rand.New(rand.NewSource(2))
	for s := 0; s < n; s++ {
		for i := range ws.Input(s) {
			ws.Input(s)[i] = rng.Float64()
		}
		for i := range ws.OutputDelta(s) {
			ws.OutputDelta(s)[i] = rng.NormFloat64()
		}
	}
	phases := []struct {
		name string
		run  func()
	}{
		{"forward", func() { m.ForwardBatch(ws, 0, n) }},
		{"backward", func() { m.BackwardBatch(ws, 0, n, false) }},
		{"grads", func() {
			for l := range m.W {
				m.AddGrads(ws, n, l, 0, m.Sizes[l+1], g)
			}
		}},
	}
	for _, phase := range phases {
		b.Run(phase.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				phase.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/sample")
		})
	}
}
