package rl

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"asqprl/internal/faults"
	"asqprl/internal/nn"
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

// TestCollectedRowsMatchForwardPass checks what an update's first epoch
// restores instead of recomputing: every step's kept activations, masked policy
// and log-sum-exp equal, bit for bit, those of a fresh ForwardBatch of the same
// states under the same weights, over two collections by three workers (the
// second reuses the first's arenas).
func TestCollectedRowsMatchForwardPass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Workers = 3
	env := newCoverEnv()
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	for round := 0; round < 2; round++ {
		var steps []*step
		for _, tr := range agent.collect(env, 7) {
			for i := range tr.steps {
				steps = append(steps, &tr.steps[i])
			}
		}
		ws := agent.actor.NewWorkspace(len(steps))
		for i, s := range steps {
			copy(ws.Input(i), s.state)
		}
		agent.actor.ForwardBatch(ws, 0, len(steps))
		acts, dist := make([]float64, ws.Width()), make([]float64, agent.actions)
		for i, s := range steps {
			ws.CopyActivations(acts, i)
			lse := nn.Softmax(dist, ws.Output(i), s.mask)
			for what, pair := range map[string][2][]float64{
				"activations": {s.acts, acts},
				"policy":      {s.oldDist, dist},
				"lse":         {{s.lse}, {lse}},
			} {
				kept, fresh := pair[0], pair[1]
				if len(kept) != len(fresh) {
					t.Fatalf("round %d step %d: %d kept %s, want %d", round, i, len(kept), what, len(fresh))
				}
				for j := range kept {
					if math.Float64bits(kept[j]) != math.Float64bits(fresh[j]) {
						t.Fatalf("round %d step %d: kept %s[%d] = %v, fresh forward pass %v", round, i, what, j, kept[j], fresh[j])
					}
				}
			}
		}
	}
}

// TestPoisonedUpdateRollsBack arms the rl/update fault, which writes NaN into
// the actor's first weight between collection and update. The first epoch runs
// on the collection-time rows, so its losses stay finite and it is the
// parameters the watchdog finds non-finite; the update is rolled back all the
// same.
func TestPoisonedUpdateRollsBack(t *testing.T) {
	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:    faults.PointRLUpdate,
		Kind:     faults.KindError,
		After:    1,
		MaxFires: 1,
	}))
	defer faults.Disable()
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Workers = 2
	env := newCoverEnv()
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	stats := agent.TrainContext(context.Background(), env, 16, nil)
	faults.Disable()
	if stats.Recoveries != 1 || len(stats.History) < 2 {
		t.Fatalf("%d recoveries over %d iterations, want 1 and at least 2", stats.Recoveries, len(stats.History))
	}
	it := stats.History[1]
	if !it.Recovered || it.RecoveryReason != "non-finite actor parameters" {
		t.Fatalf("poisoned iteration: recovered %v, reason %q; want the non-finite actor parameters rolled back", it.Recovered, it.RecoveryReason)
	}
	for _, v := range []float64{it.PolicyLoss, it.ValueLoss, it.Entropy, it.MeanKL} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("poisoned iteration's first-epoch losses %+v are not finite", it)
		}
	}
	if !paramsFinite(agent.actor) || !paramsFinite(agent.critic) {
		t.Fatal("parameters are not finite after the rollback")
	}
}
