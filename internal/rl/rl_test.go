package rl

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"asqprl/internal/obs"
)

// banditEnv is a one-step environment with fixed per-arm rewards.
type banditEnv struct {
	rewards []float64
}

func (b *banditEnv) Reset() ([]float64, []bool) {
	return []float64{1}, nil
}

func (b *banditEnv) Step(action int) ([]float64, []bool, float64, bool) {
	return []float64{1}, nil, b.rewards[action], true
}

func (b *banditEnv) StateDim() int      { return 1 }
func (b *banditEnv) NumActions() int    { return len(b.rewards) }
func (b *banditEnv) Clone() Environment { return &banditEnv{rewards: b.rewards} }

// coverEnv is a small set-cover environment mimicking GSL's structure: each
// action covers some elements; reward is the marginal coverage; an element
// counts once. Episodes last exactly budget steps, and chosen actions are
// masked out (like ASQP-RL's action masking).
type coverEnv struct {
	sets    [][]int
	univ    int
	budget  int
	covered []bool
	chosen  []bool
	steps   int
}

func newCoverEnv() *coverEnv {
	return &coverEnv{
		// Action 0 covers a lot; greedy-optimal picks {0, 3}.
		sets: [][]int{
			{0, 1, 2, 3},
			{0, 1},
			{2},
			{4, 5, 6},
			{6},
			{}, // useless action
		},
		univ:   7,
		budget: 2,
	}
}

func (c *coverEnv) Reset() ([]float64, []bool) {
	c.covered = make([]bool, c.univ)
	c.chosen = make([]bool, len(c.sets))
	c.steps = 0
	return c.state(), c.mask()
}

func (c *coverEnv) state() []float64 {
	s := make([]float64, c.univ)
	for i, v := range c.covered {
		if v {
			s[i] = 1
		}
	}
	return s
}

func (c *coverEnv) mask() []bool {
	m := make([]bool, len(c.sets))
	for i := range m {
		m[i] = !c.chosen[i]
	}
	return m
}

func (c *coverEnv) Step(action int) ([]float64, []bool, float64, bool) {
	if c.chosen[action] {
		panic("coverEnv: masked action selected")
	}
	c.chosen[action] = true
	gained := 0
	for _, e := range c.sets[action] {
		if !c.covered[e] {
			c.covered[e] = true
			gained++
		}
	}
	c.steps++
	done := c.steps >= c.budget
	return c.state(), c.mask(), float64(gained) / float64(c.univ), done
}

func (c *coverEnv) StateDim() int      { return c.univ }
func (c *coverEnv) NumActions() int    { return len(c.sets) }
func (c *coverEnv) Clone() Environment { return newCoverEnv() }

func TestAgentLearnsBandit(t *testing.T) {
	env := &banditEnv{rewards: []float64{0.1, 0.9, 0.2, 0.05}}
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.LR = 0.01
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	stats := agent.TrainContext(context.Background(), env, 200, nil)
	if stats.Episodes != 200 {
		t.Fatalf("episodes = %d", stats.Episodes)
	}
	p := agent.Policy([]float64{1}, nil)
	if best := argmaxOf(p); best != 1 {
		t.Errorf("policy should prefer arm 1, got distribution %v", p)
	}
	if stats.FinalReturn < 0.6 {
		t.Errorf("final return = %.3f, want > 0.6", stats.FinalReturn)
	}
}

func argmaxOf(p []float64) int {
	best, bv := -1, math.Inf(-1)
	for i, v := range p {
		if v > bv {
			best, bv = i, v
		}
	}
	return best
}

// greedyRollout plays one episode with the argmax policy and returns the
// visited actions and the total reward.
func greedyRollout(a *Agent, env Environment, maxSteps int) ([]int, float64) {
	var actions []int
	var total float64
	state, mask := env.Reset()
	for steps := 0; steps < maxSteps; steps++ {
		action := a.SelectAction(state, mask, true, nil)
		if action < 0 {
			break
		}
		next, nextMask, reward, done := env.Step(action)
		actions = append(actions, action)
		total += reward
		state, mask = next, nextMask
		if done {
			break
		}
	}
	return actions, total
}

func TestAgentLearnsSetCover(t *testing.T) {
	env := newCoverEnv()
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.LR = 0.01
	cfg.EntropyCoef = 0.001
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	stats := agent.TrainContext(context.Background(), env, 300, nil)
	// Optimal return: cover all 7 elements = 1.0.
	actions, total := greedyRollout(agent, newCoverEnv(), 10)
	if total < 0.99 {
		t.Errorf("greedy rollout return = %.3f (actions %v), want 1.0; train stats %+v",
			total, actions, stats.FinalReturn)
	}
}

func TestAgentBeatsRandomOnCover(t *testing.T) {
	env := newCoverEnv()
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.LR = 0.01
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	agent.TrainContext(context.Background(), env, 300, nil)
	_, trained := greedyRollout(agent, newCoverEnv(), 10)

	// Random baseline.
	rng := rand.New(rand.NewSource(9))
	var randomTotal float64
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		e := newCoverEnv()
		_, mask := e.Reset()
		for {
			valid := validActions(mask)
			if len(valid) == 0 {
				break
			}
			_, m, r, done := e.Step(valid[rng.Intn(len(valid))])
			randomTotal += r
			mask = m
			if done {
				break
			}
		}
	}
	random := randomTotal / trials
	if trained <= random {
		t.Errorf("trained %.3f should beat random %.3f", trained, random)
	}
}

func validActions(mask []bool) []int {
	var out []int
	for i, ok := range mask {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

func TestMaskingNeverViolated(t *testing.T) {
	// coverEnv panics if a masked action is selected; run stochastic
	// training long enough to catch violations.
	env := newCoverEnv()
	cfg := DefaultConfig()
	cfg.Seed = 7
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	agent.TrainContext(context.Background(), env, 100, nil)
}

func TestAblationConfigsTrain(t *testing.T) {
	// All ablated variants must run and produce sane stats (Figure 3 rows).
	variants := map[string]func(*Config){
		"full":     func(c *Config) {},
		"-ppo":     func(c *Config) { c.ClipEpsilon = 0; c.KLCoef = 0 },
		"-ppo -ac": func(c *Config) { c.ClipEpsilon = 0; c.KLCoef = 0; c.UseCritic = false },
	}
	for name, mod := range variants {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.LR = 0.01
		mod(&cfg)
		env := newCoverEnv()
		agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
		stats := agent.TrainContext(context.Background(), env, 60, nil)
		if stats.Episodes != 60 || math.IsNaN(stats.FinalReturn) {
			t.Errorf("%s: bad stats %+v", name, stats)
		}
	}
}

func TestEpochsForcedToOneWithoutProximalTerm(t *testing.T) {
	cfg := Config{ClipEpsilon: 0, KLCoef: 0, Epochs: 8}
	if got := cfg.normalize().Epochs; got != 1 {
		t.Errorf("epochs = %d, want 1 when no clip/KL", got)
	}
	cfg = Config{ClipEpsilon: 0.2, Epochs: 8}
	if got := cfg.normalize().Epochs; got != 8 {
		t.Errorf("epochs = %d, want 8 with clipping", got)
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultConfig()
		cfg.Seed = 42
		cfg.Workers = 3
		env := newCoverEnv()
		agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
		stats := agent.TrainContext(context.Background(), env, 30, nil)
		return stats.ReturnHistory
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration %d: %v vs %v (training not deterministic)", i, a[i], b[i])
		}
	}
}

func TestEarlyStopCallback(t *testing.T) {
	env := newCoverEnv()
	cfg := DefaultConfig()
	cfg.Seed = 2
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	calls := 0
	stats := agent.TrainContext(context.Background(), env, 1000, func(iter, eps int, ret float64) bool {
		calls++
		return calls < 3
	})
	if !stats.EarlyStopped {
		t.Error("should have early-stopped")
	}
	if stats.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", stats.Iterations)
	}
}

func TestSelectActionGreedyAndMasked(t *testing.T) {
	env := &banditEnv{rewards: []float64{0, 1, 0}}
	cfg := DefaultConfig()
	cfg.Seed = 1
	agent := mustAgent(t, cfg, 1, 3)
	// With everything masked, no action is selectable.
	if got := agent.SelectAction([]float64{1}, []bool{false, false, false}, true, nil); got != -1 {
		t.Errorf("fully masked should return -1, got %d", got)
	}
	// With only one action valid it must be picked.
	if got := agent.SelectAction([]float64{1}, []bool{false, true, false}, false, nil); got != 1 {
		t.Errorf("only-valid action should be picked, got %d", got)
	}
	_ = env
}

func TestValueAndParamsAccessors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	agent := mustAgent(t, cfg, 2, 3)
	v := agent.CriticParams().Forward([]float64{0.5, -0.5})[0]
	if math.IsNaN(v) {
		t.Error("value NaN")
	}
	if agent.ActorParams().OutputDim() != 3 || agent.CriticParams().OutputDim() != 1 {
		t.Error("network shapes wrong")
	}
}

func TestZeroEpisodes(t *testing.T) {
	cfg := DefaultConfig()
	agent := mustAgent(t, cfg, 1, 2)
	stats := agent.TrainContext(context.Background(), &banditEnv{rewards: []float64{0, 1}}, 0, nil)
	if stats.Episodes != 0 || stats.Iterations != 0 {
		t.Errorf("zero-episode train produced work: %+v", stats)
	}
}

// mustAgent constructs an agent, failing the test on shape errors.
func mustAgent(t *testing.T, cfg Config, stateDim, numActions int) *Agent {
	t.Helper()
	agent, err := NewAgent(cfg, stateDim, numActions)
	if err != nil {
		t.Fatal(err)
	}
	return agent
}

func TestInvalidShapesError(t *testing.T) {
	for _, shape := range [][2]int{{1, 0}, {0, 3}, {-2, 4}, {4, -1}} {
		if _, err := NewAgent(DefaultConfig(), shape[0], shape[1]); err == nil {
			t.Errorf("shape %v should be rejected with an error", shape)
		}
	}
}

// TestTrainEmitsMetrics asserts the trainer records loss/entropy/return
// telemetry for every iteration in the extended TrainStats, their one home.
func TestTrainEmitsMetrics(t *testing.T) {
	env := newCoverEnv()
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Workers = 2
	cfg.EpisodesPerIteration = 4
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	stats := agent.TrainContext(context.Background(), env, 20, nil)

	if stats.Iterations == 0 {
		t.Fatal("no iterations ran")
	}
	if len(stats.History) != stats.Iterations {
		t.Fatalf("History has %d entries, want %d", len(stats.History), stats.Iterations)
	}
	for i, it := range stats.History {
		if it.Iteration != i+1 {
			t.Errorf("History[%d].Iteration = %d, want %d", i, it.Iteration, i+1)
		}
		if it.Episodes <= 0 || it.MeanEpisodeLen <= 0 {
			t.Errorf("History[%d] missing episode accounting: %+v", i, it)
		}
		if it.Entropy <= 0 {
			t.Errorf("History[%d].Entropy = %f, want > 0 for a stochastic policy", i, it.Entropy)
		}
		if it.ValueLoss <= 0 {
			t.Errorf("History[%d].ValueLoss = %f, want > 0 with a critic", i, it.ValueLoss)
		}
		if it.ClipFraction < 0 || it.ClipFraction > 1 {
			t.Errorf("History[%d].ClipFraction = %f out of [0,1]", i, it.ClipFraction)
		}
	}
	// Return history must agree between the flat and structured series.
	for i, r := range stats.ReturnHistory {
		if stats.History[i].MeanReturn != r {
			t.Fatalf("History[%d].MeanReturn = %f, ReturnHistory = %f", i, stats.History[i].MeanReturn, r)
		}
	}
}

// TestTrainHistoryWithoutObs checks the extended TrainStats is populated even
// when observability is off (it is cheap and callers rely on it).
func TestTrainHistoryWithoutObs(t *testing.T) {
	prevEnabled := obs.Enabled()
	obs.SetEnabled(false)
	defer obs.SetEnabled(prevEnabled)

	env := &banditEnv{rewards: []float64{0.1, 0.9}}
	cfg := DefaultConfig()
	cfg.Seed = 1
	agent := mustAgent(t, cfg, env.StateDim(), env.NumActions())
	stats := agent.TrainContext(context.Background(), env, 12, nil)
	if len(stats.History) != stats.Iterations || stats.Iterations == 0 {
		t.Fatalf("History len %d vs iterations %d", len(stats.History), stats.Iterations)
	}
}
