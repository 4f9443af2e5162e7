package rl

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"asqprl/internal/nn"
)

// trainRun trains a fresh agent on the cover environment for five iterations
// of 70 two-step episodes: 140 steps per update, i.e. two full gradient
// blocks and a partial third.
func trainRun(t *testing.T, workers int) (TrainStats, *Agent) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Workers = workers
	cfg.EpisodesPerIteration = 70
	env := newCoverEnv()
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	stats := agent.TrainContext(context.Background(), env, 350, nil)
	if stats.Iterations != 5 || stats.TotalSteps != 700 {
		t.Fatalf("fixture ran %d iterations, %d steps; want 5 and 700", stats.Iterations, stats.TotalSteps)
	}
	return stats, agent
}

// digest is the sha256 of the bit patterns of vals, in order.
func digest(vals ...[]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// paramDigest hashes every actor and critic parameter: unlike the loss
// series it sees the last iteration's update.
func paramDigest(a *Agent) string {
	var vals [][]float64
	for _, m := range []*nn.MLP{a.ActorParams(), a.CriticParams()} {
		for l := range m.W {
			vals = append(vals, m.W[l], m.B[l])
		}
	}
	return digest(vals...)
}

// lossDigest hashes the per-iteration telemetry.
func lossDigest(history []IterationStats) string {
	var vals []float64
	for _, it := range history {
		vals = append(vals, it.PolicyLoss, it.ValueLoss, it.Entropy, it.MeanKL, it.ClipFraction, it.MeanReturn)
	}
	return digest(vals)
}

// TestTrainWorkerCountDeterminism checks the PPO loss series and the final
// parameters are bit-identical across worker counts and GOMAXPROCS settings:
// episode seeds are pre-derived per index, gradient blocks fold in fixed index
// order and every gradient element has one owner, so neither knob may change
// a single float.
func TestTrainWorkerCountDeterminism(t *testing.T) {
	refStats, refAgent := trainRun(t, 1)
	refLoss, refParams := lossDigest(refStats.History), paramDigest(refAgent)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, workers := range []int{1, 2, 3, 8} {
				stats, agent := trainRun(t, workers)
				if got := lossDigest(stats.History); got != refLoss {
					for i := range stats.History {
						if g, r := stats.History[i], refStats.History[i]; g != r {
							t.Fatalf("workers=%d iter %d: %+v != reference %+v", workers, i, g, r)
						}
					}
				}
				if got := paramDigest(agent); got != refParams {
					t.Fatalf("workers=%d: final parameters %s != reference %s", workers, got, refParams)
				}
			}
		})
	}
}

// TestTrainPinned holds training to the bits it produced at ec7aac6, before
// the update became a batch kernel: the same loss series and the same final
// parameters. A change that is meant to move them prints the new values here.
func TestTrainPinned(t *testing.T) {
	const (
		wantLoss   = "c6d2ae407c048794253aead6d7eade782b3b831d4b55c3e4b5e2bc365f5c51b0"
		wantParams = "7f5321a2fc20acefedb00e0c22f10e463bfc2c8a334ae5b4e3381d3c4b31b768"
	)
	stats, agent := trainRun(t, 1)
	if got := lossDigest(stats.History); got != wantLoss {
		t.Errorf("loss series sha256 = %s, want %s", got, wantLoss)
	}
	if got := paramDigest(agent); got != wantParams {
		t.Errorf("final parameters sha256 = %s, want %s", got, wantParams)
	}
}

// TestWorkersDoNotSetBatchSize checks that the worker count is a wall-clock
// knob only: with EpisodesPerIteration unset, two agents differing in Workers
// alone collect the same batches and produce the same History.
func TestWorkersDoNotSetBatchSize(t *testing.T) {
	run := func(workers int) []IterationStats {
		cfg := DefaultConfig()
		cfg.Seed = 5
		cfg.Workers = workers
		cfg.EpisodesPerIteration = 0
		env := newCoverEnv()
		return mustAgent(t, cfg, env.StateDim(), env.NumActions()).TrainContext(context.Background(), env, 24, nil).History
	}
	a, b := run(2), run(3)
	if len(a) != len(b) {
		t.Fatalf("%d iterations with 2 workers, %d with 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration %d: %+v with 2 workers, %+v with 3", i, a[i], b[i])
		}
	}
}

// TestUpdateStatsMerge checks block-stat merging is a plain sum that
// finalizes to the same means as one flat aggregate.
func TestUpdateStatsMerge(t *testing.T) {
	var flat, a, b updateStats
	obs := [][5]float64{{1, 2, 3, 4, 0}, {5, 6, 7, 8, 1}, {9, 10, 11, 12, 1}}
	for i, o := range obs {
		flat.observe(o[0], o[1], o[2], o[3], o[4] != 0)
		if i < 2 {
			a.observe(o[0], o[1], o[2], o[3], o[4] != 0)
		} else {
			b.observe(o[0], o[1], o[2], o[3], o[4] != 0)
		}
	}
	var merged updateStats
	merged.merge(a)
	merged.merge(b)
	flat.finalize()
	merged.finalize()
	if flat != merged {
		t.Fatalf("merged stats %+v != flat %+v", merged, flat)
	}
}
