package rl

import (
	"math/rand"
	"testing"
)

// shapeEnv is an environment with the benchmark corpus's training shape — 26
// state dimensions, 512 actions of which 10 are masked — random states and
// rewards, and episodes of a fixed length.
type shapeEnv struct {
	rng        *rand.Rand
	length, at int
}

func (e *shapeEnv) observe() ([]float64, []bool) {
	state, mask := make([]float64, 26), make([]bool, 512)
	for i := range state {
		state[i] = e.rng.Float64()
	}
	for i := range mask {
		mask[i] = true
	}
	for i := 0; i < 10; i++ {
		mask[e.rng.Intn(len(mask))] = false
	}
	return state, mask
}

func (e *shapeEnv) Reset() ([]float64, []bool) {
	e.at = 0
	return e.observe()
}

func (e *shapeEnv) Step(int) ([]float64, []bool, float64, bool) {
	e.at++
	state, mask := e.observe()
	return state, mask, e.rng.Float64(), e.at >= e.length
}

func (e *shapeEnv) StateDim() int   { return 26 }
func (e *shapeEnv) NumActions() int { return 512 }
func (e *shapeEnv) Clone() Environment {
	return &shapeEnv{rng: rand.New(rand.NewSource(e.rng.Int63())), length: e.length}
}

// shapeBatch collects two episodes of steps/2 steps each with a fresh agent,
// on one goroutine (the environment's clones share its rng), and hands the
// agent back with the given worker count for the update.
func shapeBatch(tb testing.TB, workers, steps int) (*Agent, []trajectory) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Workers = 1
	agent, err := NewAgent(cfg, 26, 512)
	if err != nil {
		tb.Fatal(err)
	}
	env := &shapeEnv{rng: rand.New(rand.NewSource(2)), length: steps / 2}
	trajs := agent.collect(env, 2)
	agent.cfg.Workers = workers
	return agent, trajs
}

// BenchmarkPPOUpdate is one update at train_pipeline's mean shape: 86 steps,
// 26→64→64→512 actor, four epochs, a 98 % full action mask.
func BenchmarkPPOUpdate(b *testing.B) {
	const steps = 86
	agent, trajs := shapeBatch(b, 2, steps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.update(trajs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps, "ns/step")
}

// TestUpdateAllocatesPerCallNotPerStep checks that once the workspaces have
// grown to a batch size, an update's allocations do not depend on how many
// steps it optimizes.
func TestUpdateAllocatesPerCallNotPerStep(t *testing.T) {
	allocs := func(steps int) float64 {
		agent, trajs := shapeBatch(t, 2, steps)
		agent.update(trajs)
		return testing.AllocsPerRun(5, func() { agent.update(trajs) })
	}
	small, large := allocs(40), allocs(160)
	if small != large {
		t.Errorf("an update of 40 steps allocates %.0f objects, one of 160 steps %.0f; want the same", small, large)
	}
	t.Logf("%.0f allocations per update", small)
}
