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
	"time"

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
	// UseCritic enables the critic baseline; false is the "-ac" ablation
	// (REINFORCE with batch-mean baseline).
	UseCritic bool
	// Epochs is the number of optimization passes per collected batch
	// (only meaningful with clipping or KL penalty; forced to 1 otherwise).
	Epochs int
	// Workers is the number of goroutines that collect episodes and share an
	// update. It changes wall-clock time only, never a result.
	Workers int
	// EpisodesPerIteration is the batch size in episodes; zero means 4.
	EpisodesPerIteration int
	// Seed makes training deterministic.
	Seed int64
}

// valueCoef scales the critic's squared-error loss.
const valueCoef = 0.5

// The divergence watchdog (see TrainContext). Non-finite losses or parameters
// always trigger a rollback, and so does an iteration whose mean KL exceeds
// divergeKL. A checkpoint is taken every checkpointEvery healthy iterations,
// and after maxRecoveries rollbacks training stops at the last good
// checkpoint instead of looping.
const (
	divergeKL       = 5.0
	checkpointEvery = 5
	maxRecoveries   = 3
)

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
		c.EpisodesPerIteration = 4
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

	buf updateBuffers
}

// updateBuffers is what an update works in: made by a training run's first
// update and grown to the largest batch seen, so a steady-state update
// allocates nothing per step; dropped when the run ends.
type updateBuffers struct {
	steps                   []*step
	stepStats               []stepStats
	actorWS, criticWS       *nn.Workspace
	actorGrads, criticGrads *nn.Grads
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

// Policy returns the masked action distribution for a state.
func (a *Agent) Policy(state []float64, mask []bool) []float64 {
	p := a.actor.Forward(state)
	nn.Softmax(p, p, mask)
	return p
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
	// CollectTime and UpdateTime split the run's wall-clock time between
	// rolling out episodes and optimizing on them, summed over iterations.
	CollectTime, UpdateTime time.Duration
	// History holds one entry per iteration with the full telemetry
	// (loss, entropy, clip fraction, KL, return, episode length, and any
	// watchdog recovery).
	History []IterationStats
}

// ProgressFunc observes training; returning false stops early. meanReturn is
// the mean undiscounted return of the iteration's episodes.
type ProgressFunc func(iteration, episodes int, meanReturn float64) bool

// TrainContext runs up to maxEpisodes episodes of collection + PPO updates
// against env, with cooperative cancellation and a divergence watchdog.
// Parallel workers each use an independent clone of env; progress may be nil.
// Cancellation is honored between iterations: the stats of the
// completed iterations are returned with Canceled set, leaving the agent in
// its last consistent state (partial but usable). After every update the
// watchdog inspects the loss telemetry and network parameters; on NaN/Inf
// loss, KL blow-up past divergeKL, or non-finite parameters it rolls actor
// and critic back to the last good in-memory checkpoint, halves the learning
// rate, and resumes. Every recovery is recorded in the iteration's History
// entry.
func (a *Agent) TrainContext(ctx context.Context, env Environment, maxEpisodes int, progress ProgressFunc) TrainStats {
	stats := TrainStats{BestReturn: math.Inf(-1)}
	if maxEpisodes <= 0 {
		return stats
	}
	defer func() { a.buf = updateBuffers{} }()
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
		collectStart := time.Now()
		trajs := a.collect(env, n)
		stats.CollectTime += time.Since(collectStart)
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
		updateStart := time.Now()
		us := a.update(trajs)
		stats.UpdateTime += time.Since(updateStart)
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
			logRecovery(stats.Iterations, reason, a.cfg.LR)
			stats.History = append(stats.History, iter)
			logIteration(iter)
			if stats.Recoveries >= maxRecoveries {
				// Persistent divergence: keep the last good state instead of
				// burning the remaining budget on a doomed run.
				break
			}
			continue
		}

		sinceCkpt++
		if sinceCkpt >= checkpointEvery {
			if ck := a.snapshot(stats.Iterations); ck != nil {
				good = ck
			}
			sinceCkpt = 0
		}
		stats.History = append(stats.History, iter)
		logIteration(iter)

		if progress != nil && !progress(stats.Iterations, stats.Episodes, mean) {
			stats.EarlyStopped = true
			break
		}
	}
	return stats
}

// logIteration logs one iteration's telemetry at debug level; the learning
// curve itself is TrainStats.History.
func logIteration(it IterationStats) {
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
			wenv, ws := env.Clone(), a.actor.NewWorkspace(1)
			for i := w; i < n; i += workers {
				trajs[i] = a.runEpisode(wenv, rand.New(rand.NewSource(seeds[i])), ws)
			}
		}(w)
	}
	wg.Wait()
	return trajs
}

// runEpisode plays one episode with the current stochastic policy, forwarding
// through the worker's one-sample workspace ws.
func (a *Agent) runEpisode(env Environment, rng *rand.Rand, ws *nn.Workspace) trajectory {
	var tr trajectory
	state, mask := env.Reset()
	for {
		copy(ws.Input(0), state)
		a.actor.ForwardBatch(ws, 0, 1)
		dist := make([]float64, a.actions)
		nn.Softmax(dist, ws.Output(0), mask)
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

// stepStats is one step's loss telemetry, kept during the first epoch.
type stepStats struct {
	policyLoss, valueLoss, entropy, kl float64
	clipped                            bool
}

// An update is split between workers two ways, neither of which can reach a
// float: by sample (stepChunk steps forward and back through the networks,
// each writing only its own workspace rows) and by parameter (gradRowChunk
// rows of one layer, each gradient element summed and applied by one worker).
// An element's summation order is nn.GradBlock's, so the loss series and the
// parameters are bit-identical for every Workers setting and GOMAXPROCS.
const (
	stepChunk    = 8
	gradRowChunk = 16
)

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
// (against the collection-time policy). The batch is one matrix per network:
// its states are copied into the workspaces once, and every epoch runs the
// steps forward and back by sample chunk, then sums and applies the gradients
// by row chunk. The networks are only read while the workspaces are written,
// and only written row by row once they are not.
func (a *Agent) update(trajs []trajectory) updateStats {
	var us updateStats
	b := &a.buf
	steps := b.steps[:0]
	for ti := range trajs {
		for si := range trajs[ti].steps {
			steps = append(steps, &trajs[ti].steps[si])
		}
	}
	b.steps = steps
	n := len(steps)
	if n == 0 {
		return us
	}
	if b.actorWS == nil {
		b.actorWS, b.criticWS = a.actor.NewWorkspace(n), a.critic.NewWorkspace(n)
		b.actorGrads, b.criticGrads = a.actor.NewGrads(), a.critic.NewGrads()
	}
	b.actorWS.Resize(n)
	b.criticWS.Resize(n)
	if len(b.stepStats) < n {
		b.stepStats = make([]stepStats, n)
	}
	for i, s := range steps {
		copy(b.actorWS.Input(i), s.state)
		copy(b.criticWS.Input(i), s.state)
	}
	chunks := (n + stepChunk - 1) / stepChunk

	// Advantages.
	if a.cfg.UseCritic {
		a.parallelFor(chunks, func(ci int) {
			lo, hi := ci*stepChunk, min((ci+1)*stepChunk, n)
			a.critic.ForwardBatch(b.criticWS, lo, hi)
			for i := lo; i < hi; i++ {
				steps[i].adv = steps[i].ret - b.criticWS.Output(i)[0]
			}
		})
	} else {
		// REINFORCE ablation: batch-mean baseline only.
		var mean float64
		for _, s := range steps {
			mean += s.ret
		}
		mean /= float64(n)
		for _, s := range steps {
			s.adv = s.ret - mean
		}
	}
	normalizeAdvantages(steps)

	inv := 1.0 / float64(n)
	for epoch := 0; epoch < a.cfg.Epochs; epoch++ {
		first := epoch == 0
		a.parallelFor(chunks, func(ci int) {
			lo, hi := ci*stepChunk, min((ci+1)*stepChunk, n)
			a.actor.ForwardBatch(b.actorWS, lo, hi)
			for i := lo; i < hi; i++ {
				var st *stepStats
				if first {
					st = &b.stepStats[i]
				}
				a.policyStep(steps[i], b.actorWS.Output(i), b.actorWS.OutputDelta(i), inv, st)
			}
			a.actor.BackwardBatch(b.actorWS, lo, hi, false)
			if !a.cfg.UseCritic {
				return
			}
			if !first {
				// The first epoch's values are the advantage pass's.
				a.critic.ForwardBatch(b.criticWS, lo, hi)
			}
			for i := lo; i < hi; i++ {
				v, ret := b.criticWS.Output(i)[0], steps[i].ret
				b.criticWS.OutputDelta(i)[0] = 2 * (v - ret) * valueCoef * inv
				if first {
					b.stepStats[i].valueLoss = valueCoef * (v - ret) * (v - ret)
				}
			}
			a.critic.BackwardBatch(b.criticWS, lo, hi, false)
		})
		if first {
			for b0 := 0; b0 < n; b0 += nn.GradBlock {
				var block updateStats
				for _, st := range b.stepStats[b0:min(b0+nn.GradBlock, n)] {
					block.observe(st.policyLoss, st.valueLoss, st.entropy, st.kl, st.clipped)
				}
				us.merge(block)
			}
		}
		a.apply(a.actor, b.actorWS, b.actorGrads, a.actorOpt, n)
		if a.cfg.UseCritic {
			a.apply(a.critic, b.criticWS, b.criticGrads, a.criticOpt, n)
		}
	}
	us.finalize()
	return us
}

// apply sums the gradient of the n steps whose deltas ws holds into g and
// takes one optimizer step on net, both by row chunk.
func (a *Agent) apply(net *nn.MLP, ws *nn.Workspace, g *nn.Grads, opt *nn.Adam, n int) {
	var rows [][3]int // layer, first row, end row
	for l, out := range net.Sizes[1:] {
		for lo := 0; lo < out; lo += gradRowChunk {
			rows = append(rows, [3]int{l, lo, min(lo+gradRowChunk, out)})
		}
	}
	g.Zero()
	a.parallelFor(len(rows), func(k int) { net.AddGrads(ws, n, rows[k][0], rows[k][1], rows[k][2], g) })
	opt.Tick()
	a.parallelFor(len(rows), func(k int) { opt.StepRows(net, g, rows[k][0], rows[k][1], rows[k][2]) })
}

// policyStep turns one step's actor logits into the loss gradient at those
// logits, scaled and written to delta; logits is overwritten (with log p, as
// scratch). When st is non-nil it also records the step's loss telemetry. The
// masked softmax is computed once: p into delta, log p into logits, and the
// entropy from both.
func (a *Agent) policyStep(s *step, logits, delta []float64, scale float64, st *stepStats) {
	valid := func(i int) bool { return s.mask == nil || s.mask[i] }
	lse := nn.Softmax(delta, logits, s.mask)
	logp := func(i int) float64 {
		if !valid(i) || math.IsInf(logits[i], -1) || math.IsInf(lse, -1) {
			return math.Inf(-1)
		}
		return logits[i] - lse
	}
	ratio := math.Exp(logp(s.action) - s.logProb)

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

	// Entropy H = −Σ p log p and, in the first epoch, KL(old || new). Each
	// log p is taken once and kept for the gradient below.
	var h, kl float64
	if st != nil || a.cfg.EntropyCoef > 0 {
		for i, p := range delta {
			if st != nil && valid(i) && s.oldDist[i] > 0 {
				kl += s.oldDist[i] * (math.Log(s.oldDist[i]) - logp(i))
			}
			if p > 0 {
				logits[i] = math.Log(p)
				h -= p * logits[i]
			}
		}
	}
	if st != nil {
		*st = stepStats{policyLoss: surrogateLoss, entropy: h, kl: kl, clipped: clipped}
	}

	for i, p := range delta {
		if !valid(i) {
			delta[i] = 0
			continue
		}
		// dLoss/dlogits via d logp_a / dz_i = δ_ai − p_i.
		d := -p
		if i == s.action {
			d += 1
		}
		var dz float64
		dz += g * d // from zero, as the gradient always was: a clipped step's −0 is +0
		// Entropy bonus: maximize H, i.e. subtract entCoef·dH/dz.
		if a.cfg.EntropyCoef > 0 && p > 0 {
			dH := -p * (logits[i] + h)
			dz -= a.cfg.EntropyCoef * dH
		}
		// KL(old || new) penalty: d/dz_i = p_i − pOld_i.
		if a.cfg.KLCoef > 0 {
			dz += a.cfg.KLCoef * (p - s.oldDist[i])
		}
		delta[i] = dz * scale
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

// ActorParams exposes the actor network for serialization by callers.
func (a *Agent) ActorParams() *nn.MLP { return a.actor }

// CriticParams exposes the critic network for serialization by callers.
func (a *Agent) CriticParams() *nn.MLP { return a.critic }
