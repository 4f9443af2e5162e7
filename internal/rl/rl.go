// Package rl implements the reinforcement-learning framework of ASQP-RL
// (Section 5 of the paper): actor-critic policy-gradient agents with Proximal
// Policy Optimization (clipped surrogate), entropy regularization, an
// optional KL penalty against the pre-update policy, invalid-action masking,
// and parallel actor-learners that collect trajectories concurrently.
//
// The package is environment-agnostic: anything implementing Environment
// (masked discrete actions, episodic) can be trained. The ASQP-specific
// GSL/DRP environments live in internal/core.
//
// Ablation switches mirror the paper's Figure 3: setting Config.ClipEpsilon
// to zero disables the PPO clipping ("-ppo" rows), and Config.UseCritic =
// false falls back to REINFORCE-style returns ("-ppo -ac" rows).
package rl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"asqprl/internal/faults"
	"asqprl/internal/nn"
	"asqprl/internal/obs"
)

// Environment is a discrete-action, episodic environment with invalid-action
// masking. State vectors have a fixed dimension and masks have one entry per
// action.
type Environment interface {
	// Reset starts a new episode, returning the initial state and mask.
	Reset() (state []float64, mask []bool)
	// Step applies an action, returning the next state, next mask, reward,
	// and whether the episode has ended.
	Step(action int) (state []float64, mask []bool, reward float64, done bool)
	// StateDim returns the dimensionality of state vectors.
	StateDim() int
	// NumActions returns the size of the action space.
	NumActions() int
	// Clone returns an independent copy for a parallel actor-learner.
	Clone() Environment
}

// Config holds agent hyper-parameters. The defaults (applied by
// normalize) follow Section 6.1 of the paper: learning rate 5e-5 (scaled up
// here because our networks are far smaller), clip/KL coefficient 0.2,
// entropy coefficient 0.001.
type Config struct {
	// Hidden lists hidden-layer widths of both actor and critic.
	Hidden []int
	// LR is the Adam learning rate.
	LR float64
	// Gamma is the discount factor.
	Gamma float64
	// ClipEpsilon is the PPO clipping range ε; zero disables clipping
	// (the "-ppo" ablation).
	ClipEpsilon float64
	// EntropyCoef scales the entropy bonus encouraging exploration.
	EntropyCoef float64
	// KLCoef scales the penalty on KL(old || new) keeping updates proximal.
	KLCoef float64
	// ValueCoef scales the critic's squared-error loss.
	ValueCoef float64
	// UseCritic enables the critic baseline; false is the "-ac" ablation
	// (REINFORCE with batch-mean baseline).
	UseCritic bool
	// Epochs is the number of optimization passes per collected batch
	// (only meaningful with clipping or KL penalty; forced to 1 otherwise).
	Epochs int
	// Workers is the number of parallel actor-learners collecting episodes.
	Workers int
	// EpisodesPerIteration is the batch size in episodes; zero means
	// Workers episodes per iteration.
	EpisodesPerIteration int
	// GradClip bounds the global gradient norm (0 disables).
	GradClip float64
	// Seed makes training deterministic.
	Seed int64

	// Divergence watchdog (see TrainContext). Non-finite losses or
	// parameters always trigger a rollback; the thresholds below add
	// configurable triggers.

	// DivergeKL triggers a rollback when an iteration's mean KL exceeds it.
	// Zero means the default (5.0); negative disables the KL trigger.
	DivergeKL float64
	// EntropyFloor triggers a rollback when the mean policy entropy falls
	// below it (policy collapse). Zero disables.
	EntropyFloor float64
	// CheckpointEvery is how many healthy iterations pass between in-memory
	// checkpoints of the actor/critic. Zero means the default (5).
	CheckpointEvery int
	// MaxRecoveries bounds watchdog rollbacks per training run; once
	// exhausted, training stops at the last good checkpoint instead of
	// looping. Zero means the default (3).
	MaxRecoveries int
}

// normalize fills defaults in place and returns the config.
func (c Config) normalize() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.LR <= 0 {
		c.LR = 3e-3
	}
	if c.Gamma <= 0 || c.Gamma > 1 {
		c.Gamma = 0.99
	}
	if c.EntropyCoef < 0 {
		c.EntropyCoef = 0
	}
	if c.ValueCoef <= 0 {
		c.ValueCoef = 0.5
	}
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.ClipEpsilon <= 0 && c.KLCoef <= 0 {
		// Without a proximal term, re-walking the batch is invalid
		// off-policy; fall back to a single pass.
		c.Epochs = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.EpisodesPerIteration <= 0 {
		c.EpisodesPerIteration = c.Workers
	}
	if c.GradClip < 0 {
		c.GradClip = 0
	}
	if c.DivergeKL == 0 {
		c.DivergeKL = 5.0
	}
	if c.EntropyFloor < 0 {
		c.EntropyFloor = 0
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 5
	}
	if c.MaxRecoveries <= 0 {
		c.MaxRecoveries = 3
	}
	return c
}

// DefaultConfig returns the paper-default PPO configuration.
func DefaultConfig() Config {
	return Config{
		Hidden:      []int{64, 64},
		LR:          3e-3,
		Gamma:       0.99,
		ClipEpsilon: 0.2,
		EntropyCoef: 0.001,
		KLCoef:      0.2,
		ValueCoef:   0.5,
		UseCritic:   true,
		Epochs:      4,
		Workers:     4,
	}.normalize()
}

// Agent is an actor-critic PPO agent over a fixed environment shape.
type Agent struct {
	cfg       Config
	actor     *nn.MLP
	critic    *nn.MLP
	actorOpt  *nn.Adam
	criticOpt *nn.Adam
	rng       *rand.Rand
	stateDim  int
	actions   int
}

// NewAgent constructs an agent for environments with the given state
// dimension and action count. A malformed shape is a returned error, not a
// panic: agent construction sits on the serve path of model restore, where a
// corrupt snapshot must degrade into a diagnosable failure.
func NewAgent(cfg Config, stateDim, numActions int) (*Agent, error) {
	cfg = cfg.normalize()
	if stateDim <= 0 || numActions <= 0 {
		return nil, fmt.Errorf("rl: invalid network shape: state dim %d, actions %d (both must be positive)", stateDim, numActions)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	actorSizes := append(append([]int{stateDim}, cfg.Hidden...), numActions)
	criticSizes := append(append([]int{stateDim}, cfg.Hidden...), 1)
	a := &Agent{
		cfg:      cfg,
		actor:    nn.NewMLP(rng, nn.ActTanh, actorSizes...),
		critic:   nn.NewMLP(rng, nn.ActTanh, criticSizes...),
		rng:      rng,
		stateDim: stateDim,
		actions:  numActions,
	}
	a.actorOpt = nn.NewAdam(a.actor, cfg.LR)
	a.criticOpt = nn.NewAdam(a.critic, cfg.LR)
	return a, nil
}

// Config returns the agent's (normalized) configuration.
func (a *Agent) Config() Config { return a.cfg }

// Policy returns the masked action distribution for a state.
func (a *Agent) Policy(state []float64, mask []bool) []float64 {
	logits := a.actor.Forward(state)
	return nn.Softmax(nn.MaskLogits(logits, mask))
}

// Value returns the critic's state-value estimate.
func (a *Agent) Value(state []float64) float64 {
	return a.critic.Forward(state)[0]
}

// SelectAction samples from the masked policy (or takes the argmax when
// greedy). It returns -1 if no action is valid.
func (a *Agent) SelectAction(state []float64, mask []bool, greedy bool, rng *rand.Rand) int {
	p := a.Policy(state, mask)
	var mass float64
	for _, v := range p {
		mass += v
	}
	if mass <= 0 {
		return -1
	}
	if greedy {
		return nn.Argmax(p)
	}
	if rng == nil {
		rng = a.rng
	}
	return nn.SampleCategorical(p, rng)
}

// step is one transition within a trajectory.
type step struct {
	state   []float64
	mask    []bool
	action  int
	reward  float64
	logProb float64
	oldDist []float64 // masked policy at collection time (for KL)
	ret     float64   // discounted return-to-go, filled by finishEpisode
	adv     float64   // advantage, filled by the updater
}

// trajectory is one collected episode.
type trajectory struct {
	steps  []step
	reward float64 // undiscounted episode return
}

// IterationStats is the telemetry of one training iteration (one collected
// batch plus its optimization passes). Loss terms are measured during the
// first optimization epoch, i.e. against the policy the batch was collected
// with.
type IterationStats struct {
	// Iteration is the 1-based iteration index.
	Iteration int
	// Episodes is the number of episodes collected this iteration.
	Episodes int
	// MeanReturn is the mean undiscounted episode return.
	MeanReturn float64
	// MeanEpisodeLen is the mean episode length in steps.
	MeanEpisodeLen float64
	// PolicyLoss is the mean (clipped) surrogate policy loss.
	PolicyLoss float64
	// ValueLoss is the mean critic squared-error loss (0 without a critic).
	ValueLoss float64
	// Entropy is the mean policy entropy over visited states.
	Entropy float64
	// ClipFraction is the fraction of steps whose importance ratio fell
	// outside the PPO clip range (0 when clipping is disabled).
	ClipFraction float64
	// MeanKL is the mean KL(old || new) over visited states.
	MeanKL float64
	// Recovered is true when the divergence watchdog rolled this iteration
	// back to the last good checkpoint (its update was discarded).
	Recovered bool
	// RecoveryReason names the divergence signal that triggered the
	// rollback (empty when Recovered is false).
	RecoveryReason string
	// LR is the learning rate in effect after this iteration (halved by
	// each recovery).
	LR float64
}

// TrainStats reports the outcome of Train.
type TrainStats struct {
	Episodes       int
	Iterations     int
	FinalReturn    float64 // mean undiscounted return of the last iteration
	BestReturn     float64 // best single-episode return observed
	ReturnHistory  []float64
	EarlyStopped   bool
	TotalSteps     int
	MeanFinalSteps float64
	// Recoveries counts divergence-watchdog rollbacks during the run.
	Recoveries int
	// Canceled is true when training stopped early because the context was
	// canceled; the stats (and the agent) reflect the completed iterations.
	Canceled bool
	// History holds one entry per iteration with the full telemetry
	// (loss, entropy, clip fraction, KL, return, episode length, and any
	// watchdog recovery).
	History []IterationStats
}

// ProgressFunc observes training; returning false stops early. meanReturn is
// the mean undiscounted return of the iteration's episodes.
type ProgressFunc func(iteration, episodes int, meanReturn float64) bool

// Train runs up to maxEpisodes episodes of collection + PPO updates against
// env. Parallel workers each use an independent clone of env. progress may
// be nil.
func (a *Agent) Train(env Environment, maxEpisodes int, progress ProgressFunc) TrainStats {
	return a.TrainContext(context.Background(), env, maxEpisodes, progress)
}

// TrainContext is Train with cooperative cancellation and a divergence
// watchdog. Cancellation is honored between iterations: the stats of the
// completed iterations are returned with Canceled set, leaving the agent in
// its last consistent state (partial but usable). After every update the
// watchdog inspects the loss telemetry and network parameters; on NaN/Inf
// loss, KL blow-up past cfg.DivergeKL, entropy collapse below
// cfg.EntropyFloor, or non-finite parameters it rolls actor and critic back
// to the last good in-memory checkpoint, halves the learning rate, and
// resumes. Every recovery is recorded in the iteration's History entry.
func (a *Agent) TrainContext(ctx context.Context, env Environment, maxEpisodes int, progress ProgressFunc) TrainStats {
	stats := TrainStats{BestReturn: math.Inf(-1)}
	if maxEpisodes <= 0 {
		return stats
	}
	perIter := a.cfg.EpisodesPerIteration
	good := a.snapshot(0) // pre-training state is the first rollback target
	sinceCkpt := 0
	for stats.Episodes < maxEpisodes {
		if ctx != nil && ctx.Err() != nil {
			stats.Canceled = true
			break
		}
		n := perIter
		if rem := maxEpisodes - stats.Episodes; n > rem {
			n = rem
		}
		trajs := a.collect(env, n)
		var sum, steps float64
		for _, tr := range trajs {
			sum += tr.reward
			steps += float64(len(tr.steps))
			if tr.reward > stats.BestReturn {
				stats.BestReturn = tr.reward
			}
		}
		mean := sum / float64(len(trajs))
		stats.Episodes += n
		stats.Iterations++
		stats.TotalSteps += int(steps)
		stats.FinalReturn = mean
		stats.MeanFinalSteps = steps / float64(len(trajs))
		stats.ReturnHistory = append(stats.ReturnHistory, mean)

		if faults.Active() && faults.Triggered(faults.PointRLUpdate) {
			// Injected numeric fault: corrupt the actor so this update
			// diverges and the watchdog must recover.
			a.poison()
		}
		us := a.update(trajs)
		iter := IterationStats{
			Iteration:      stats.Iterations,
			Episodes:       n,
			MeanReturn:     mean,
			MeanEpisodeLen: stats.MeanFinalSteps,
			PolicyLoss:     us.policyLoss,
			ValueLoss:      us.valueLoss,
			Entropy:        us.entropy,
			ClipFraction:   us.clipFraction,
			MeanKL:         us.meanKL,
			LR:             a.cfg.LR,
		}

		if reason := a.divergence(us); reason != "" {
			iter.Recovered = true
			iter.RecoveryReason = reason
			stats.Recoveries++
			if err := a.restore(good); err != nil {
				// No viable checkpoint: stop rather than train on garbage.
				stats.History = append(stats.History, iter)
				break
			}
			a.halveLR()
			iter.LR = a.cfg.LR
			recordRecovery(stats.Iterations, reason, a.cfg.LR)
			stats.History = append(stats.History, iter)
			recordIteration(iter, stats.BestReturn)
			if stats.Recoveries >= a.cfg.MaxRecoveries {
				// Persistent divergence: keep the last good state instead of
				// burning the remaining budget on a doomed run.
				break
			}
			continue
		}

		sinceCkpt++
		if sinceCkpt >= a.cfg.CheckpointEvery {
			if ck := a.snapshot(stats.Iterations); ck != nil {
				good = ck
			}
			sinceCkpt = 0
		}
		stats.History = append(stats.History, iter)
		recordIteration(iter, stats.BestReturn)

		if progress != nil && !progress(stats.Iterations, stats.Episodes, mean) {
			stats.EarlyStopped = true
			break
		}
	}
	return stats
}

// recordIteration counts one iteration on the default obs registry and logs
// its telemetry at debug level; the learning curve itself is
// TrainStats.History.
func recordIteration(it IterationStats, bestReturn float64) {
	if obs.Enabled() {
		reg := obs.Default()
		reg.Counter("rl/iterations").Inc()
		reg.Counter("rl/episodes").Add(int64(it.Episodes))
		reg.Gauge("rl/best_return").Set(bestReturn)
	}
	obs.Logger().Debug("rl iteration",
		"iter", it.Iteration,
		"episodes", it.Episodes,
		"mean_return", it.MeanReturn,
		"policy_loss", it.PolicyLoss,
		"value_loss", it.ValueLoss,
		"entropy", it.Entropy,
		"clip_fraction", it.ClipFraction,
		"kl", it.MeanKL)
}

// collect gathers n episodes using cfg.Workers parallel actor-learners. The
// actor network is only read during collection, so sharing it across
// goroutines is safe; each worker owns an environment clone and rng.
func (a *Agent) collect(env Environment, n int) []trajectory {
	workers := a.cfg.Workers
	if workers > n {
		workers = n
	}
	trajs := make([]trajectory, n)
	// Pre-derive deterministic per-episode seeds from the agent rng.
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = a.rng.Int63()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wenv := env.Clone()
			for i := w; i < n; i += workers {
				trajs[i] = a.runEpisode(wenv, rand.New(rand.NewSource(seeds[i])))
			}
		}(w)
	}
	wg.Wait()
	return trajs
}

// runEpisode plays one episode with the current stochastic policy.
func (a *Agent) runEpisode(env Environment, rng *rand.Rand) trajectory {
	var tr trajectory
	state, mask := env.Reset()
	for {
		logits := a.actor.Forward(state)
		dist := nn.Softmax(nn.MaskLogits(logits, mask))
		var mass float64
		for _, p := range dist {
			mass += p
		}
		if mass <= 0 {
			break // no valid action: terminal
		}
		action := nn.SampleCategorical(dist, rng)
		next, nextMask, reward, done := env.Step(action)
		tr.steps = append(tr.steps, step{
			state:   state,
			mask:    mask,
			action:  action,
			reward:  reward,
			logProb: math.Log(math.Max(dist[action], 1e-12)),
			oldDist: dist,
		})
		tr.reward += reward
		state, mask = next, nextMask
		if done {
			break
		}
	}
	a.finishEpisode(&tr)
	return tr
}

// finishEpisode computes discounted returns-to-go.
func (a *Agent) finishEpisode(tr *trajectory) {
	ret := 0.0
	for i := len(tr.steps) - 1; i >= 0; i-- {
		ret = tr.steps[i].reward + a.cfg.Gamma*ret
		tr.steps[i].ret = ret
	}
}

// updateStats aggregates per-step loss telemetry over one optimization pass.
type updateStats struct {
	policyLoss   float64
	valueLoss    float64
	entropy      float64
	clipFraction float64
	meanKL       float64
	n            int
}

// observe folds one step's contributions into the aggregate.
func (u *updateStats) observe(policyLoss, valueLoss, entropy, kl float64, clipped bool) {
	u.policyLoss += policyLoss
	u.valueLoss += valueLoss
	u.entropy += entropy
	u.meanKL += kl
	if clipped {
		u.clipFraction++
	}
	u.n++
}

// merge folds another aggregate (one block's raw sums) into u. Both sides
// must hold pre-finalize sums.
func (u *updateStats) merge(o updateStats) {
	u.policyLoss += o.policyLoss
	u.valueLoss += o.valueLoss
	u.entropy += o.entropy
	u.meanKL += o.meanKL
	u.clipFraction += o.clipFraction
	u.n += o.n
}

// finalize converts sums to means.
func (u *updateStats) finalize() {
	if u.n == 0 {
		return
	}
	inv := 1.0 / float64(u.n)
	u.policyLoss *= inv
	u.valueLoss *= inv
	u.entropy *= inv
	u.meanKL *= inv
	u.clipFraction *= inv
}

// gradBlockSize is the number of consecutive batch steps whose gradient
// contributions are accumulated into one block buffer. Blocks — not workers —
// define the floating-point summation order: each block is summed serially
// into its own buffer and the buffers are merged in block index order, so the
// gradients (and therefore the whole loss series) are bit-identical for every
// Workers setting and GOMAXPROCS. The serial path walks the same blocks for
// exactly this reason.
const gradBlockSize = 64

// parallelFor calls fn(i) for every i in [0, n), fanning out across
// cfg.Workers; with one worker (or one item) it runs fn inline, in order. fn
// must touch only item i's state, so parallelism never changes the outcome.
func (a *Agent) parallelFor(n int, fn func(i int)) {
	workers := a.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// update applies the PPO (or ablated) optimization over a batch of
// trajectories and returns loss telemetry measured during the first epoch
// (against the collection-time policy). Gradient accumulation is
// data-parallel across fixed step blocks (see gradBlockSize); the networks
// are only read until the merged gradients are applied, so sharing them
// across workers is safe.
func (a *Agent) update(trajs []trajectory) updateStats {
	var us updateStats
	var steps []*step
	for ti := range trajs {
		for si := range trajs[ti].steps {
			steps = append(steps, &trajs[ti].steps[si])
		}
	}
	if len(steps) == 0 {
		return us
	}

	// Advantages.
	if a.cfg.UseCritic {
		a.parallelFor(len(steps), func(i int) {
			steps[i].adv = steps[i].ret - a.critic.Forward(steps[i].state)[0]
		})
	} else {
		// REINFORCE ablation: batch-mean baseline only.
		var mean float64
		for _, s := range steps {
			mean += s.ret
		}
		mean /= float64(len(steps))
		for _, s := range steps {
			s.adv = s.ret - mean
		}
	}
	normalizeAdvantages(steps)

	numBlocks := (len(steps) + gradBlockSize - 1) / gradBlockSize
	actorBufs := make([]*nn.Grads, numBlocks)
	criticBufs := make([]*nn.Grads, numBlocks)
	for i := range actorBufs {
		actorBufs[i] = a.actor.NewGrads()
		criticBufs[i] = a.critic.NewGrads()
	}
	blockStats := make([]updateStats, numBlocks)
	actorGrads := a.actor.NewGrads()
	criticGrads := a.critic.NewGrads()
	inv := 1.0 / float64(len(steps))

	for epoch := 0; epoch < a.cfg.Epochs; epoch++ {
		first := epoch == 0
		a.parallelFor(numBlocks, func(bi int) {
			lo := bi * gradBlockSize
			hi := lo + gradBlockSize
			if hi > len(steps) {
				hi = len(steps)
			}
			actorBufs[bi].Zero()
			criticBufs[bi].Zero()
			var collect *updateStats
			if first {
				blockStats[bi] = updateStats{}
				collect = &blockStats[bi]
			}
			for _, s := range steps[lo:hi] {
				a.accumulateStep(s, actorBufs[bi], criticBufs[bi], inv, collect)
			}
		})
		actorGrads.Zero()
		criticGrads.Zero()
		for bi := 0; bi < numBlocks; bi++ {
			actorGrads.Add(actorBufs[bi])
			criticGrads.Add(criticBufs[bi])
		}
		if first {
			for bi := 0; bi < numBlocks; bi++ {
				us.merge(blockStats[bi])
			}
		}
		if a.cfg.GradClip > 0 {
			nn.ClipGrads(actorGrads, a.cfg.GradClip)
			nn.ClipGrads(criticGrads, a.cfg.GradClip)
		}
		a.actorOpt.Step(a.actor, actorGrads)
		if a.cfg.UseCritic {
			a.criticOpt.Step(a.critic, criticGrads)
		}
	}
	us.finalize()
	return us
}

// accumulateStep adds the gradient contribution of one transition. When
// stats is non-nil it also folds the step's loss telemetry into it.
func (a *Agent) accumulateStep(s *step, actorGrads, criticGrads *nn.Grads, scale float64, stats *updateStats) {
	cache := a.actor.ForwardCache(s.state)
	logits := nn.MaskLogits(cache.Output(), s.mask)
	logp := nn.LogSoftmax(logits)
	p := nn.Softmax(logits)

	newLogp := logp[s.action]
	ratio := math.Exp(newLogp - s.logProb)

	// Policy-gradient coefficient g = dL/d(logp_action); L is minimized.
	var g, surrogateLoss float64
	clipped := false
	if a.cfg.ClipEpsilon > 0 {
		lo, hi := 1-a.cfg.ClipEpsilon, 1+a.cfg.ClipEpsilon
		surr1 := ratio * s.adv
		surr2 := math.Max(math.Min(ratio, hi), lo) * s.adv
		surrogateLoss = -math.Min(surr1, surr2)
		clipped = ratio < lo || ratio > hi
		if surr1 <= surr2 {
			g = -ratio * s.adv // unclipped branch active
		} else {
			g = 0 // clipped: constant w.r.t. parameters
		}
	} else {
		g = -ratio * s.adv // plain importance-weighted policy gradient
		surrogateLoss = g
	}

	// dLoss/dlogits via d logp_a / dz_i = δ_ai − p_i.
	dLogits := make([]float64, len(p))
	for i := range dLogits {
		if s.mask != nil && !s.mask[i] {
			continue
		}
		d := -p[i]
		if i == s.action {
			d += 1
		}
		dLogits[i] += g * d
	}

	// Entropy bonus: maximize H, i.e. subtract entCoef·dH/dz.
	if a.cfg.EntropyCoef > 0 {
		h := nn.Entropy(p)
		for i := range dLogits {
			if p[i] <= 0 {
				continue
			}
			dH := -p[i] * (math.Log(p[i]) + h)
			dLogits[i] -= a.cfg.EntropyCoef * dH
		}
	}

	// KL(old || new) penalty: d/dz_i = p_i − pOld_i.
	if a.cfg.KLCoef > 0 {
		for i := range dLogits {
			if s.mask != nil && !s.mask[i] {
				continue
			}
			dLogits[i] += a.cfg.KLCoef * (p[i] - s.oldDist[i])
		}
	}

	for i := range dLogits {
		dLogits[i] *= scale
	}
	a.actor.Backward(cache, dLogits, actorGrads)

	var vLoss float64
	if a.cfg.UseCritic {
		cCache := a.critic.ForwardCache(s.state)
		v := cCache.Output()[0]
		dV := 2 * (v - s.ret) * a.cfg.ValueCoef * scale
		a.critic.Backward(cCache, []float64{dV}, criticGrads)
		vLoss = a.cfg.ValueCoef * (v - s.ret) * (v - s.ret)
	}

	if stats != nil {
		var kl float64
		for i := range p {
			if s.mask != nil && !s.mask[i] {
				continue
			}
			if s.oldDist[i] <= 0 {
				continue
			}
			kl += s.oldDist[i] * (math.Log(s.oldDist[i]) - logp[i])
		}
		stats.observe(surrogateLoss, vLoss, nn.Entropy(p), kl, clipped)
	}
}

// normalizeAdvantages standardizes advantages to zero mean / unit variance,
// the usual PPO stabilization.
func normalizeAdvantages(steps []*step) {
	if len(steps) < 2 {
		return
	}
	var mean float64
	for _, s := range steps {
		mean += s.adv
	}
	mean /= float64(len(steps))
	var variance float64
	for _, s := range steps {
		d := s.adv - mean
		variance += d * d
	}
	variance /= float64(len(steps))
	std := math.Sqrt(variance)
	if std < 1e-8 {
		return
	}
	for _, s := range steps {
		s.adv = (s.adv - mean) / std
	}
}

// Greedy rolls out one episode with the deterministic (argmax) policy and
// returns the visited actions and total reward. Useful for inference-time
// set construction and tests.
func (a *Agent) Greedy(env Environment, maxSteps int) ([]int, float64) {
	var actions []int
	var total float64
	state, mask := env.Reset()
	for steps := 0; maxSteps <= 0 || steps < maxSteps; steps++ {
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

// ActorParams exposes the actor network for serialization by callers.
func (a *Agent) ActorParams() *nn.MLP { return a.actor }

// CriticParams exposes the critic network for serialization by callers.
func (a *Agent) CriticParams() *nn.MLP { return a.critic }
