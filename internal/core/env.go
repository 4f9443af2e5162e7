package core

import (
	"math"
	"math/rand"

	"asqprl/internal/metrics"
	"asqprl/internal/rl"
	"asqprl/internal/table"
)

// SetEnvironment is an rl.Environment that also exposes the approximation
// set built during the episode.
type SetEnvironment interface {
	rl.Environment
	// Subset returns the set of rows chosen so far in the current episode.
	Subset() *table.Subset
	// Score returns the tracker's current blended Equation-1 score.
	Score() float64
}

// NewEnvironment constructs the environment selected by cfg.Environment over
// a preprocessed pipeline output. budget overrides cfg.K when positive
// (used by Algorithm 2's req_size).
func NewEnvironment(pre *Preprocessed, cfg Config, budget int) SetEnvironment {
	cfg = cfg.normalize()
	if budget <= 0 {
		budget = cfg.K
	}
	switch cfg.Environment {
	case EnvDRP:
		return newDRPEnv(pre, cfg, budget)
	case EnvHybrid:
		return newHybridEnv(pre, cfg, budget)
	default:
		return newGSLEnv(pre, cfg, budget)
	}
}

// envShape computes the fixed state/action dimensions from the config, so
// fine-tuned models stay weight-compatible across preprocessing runs.
func envShape(cfg Config) (stateDim, actions int) {
	return cfg.NumRepresentatives + 2, cfg.ActionSpaceSize
}

// envBase is what the three environments share: the preprocessed inputs, the
// reward tracker over pre.Cover, which candidates are in the set, and the
// observation layout (one blended coverage score per representative, the
// filled share of the budget, a phase slot).
type envBase struct {
	pre     *Preprocessed
	cfg     Config
	budget  int
	tracker *metrics.Tracker
	chosen  []bool
	state   []float64
}

func newEnvBase(pre *Preprocessed, cfg Config, budget int) envBase {
	stateDim, _ := envShape(cfg)
	return envBase{pre: pre, cfg: cfg, budget: budget, state: make([]float64, stateDim)}
}

// reset empties the set.
func (e *envBase) reset() {
	e.tracker = e.pre.Cover.NewTracker()
	e.chosen = make([]bool, len(e.pre.Candidates))
}

// add puts candidate i into the set; drop takes it out again (rows another
// chosen candidate shares stay).
func (e *envBase) add(i int) {
	e.chosen[i] = true
	e.tracker.Add(e.pre.Candidates[i].Rows)
}

func (e *envBase) drop(i int) {
	e.chosen[i] = false
	e.tracker.Remove(e.pre.Candidates[i].Rows)
}

// queryScore returns the blended coverage score of rep q: the original
// query's Equation-1 term weighted (1 − w) plus the relaxed variant's term
// weighted w = RelaxRewardWeight (training on generalized queries, Section
// 4.2).
func (e *envBase) queryScore(q int) float64 {
	rep := &e.pre.Reps[q]
	orig := e.tracker.Term(rep.Orig)
	if rep.Rel < 0 {
		return orig
	}
	w := e.cfg.RelaxRewardWeight
	return (1-w)*orig + w*e.tracker.Term(rep.Rel)
}

// score returns the weighted blended score over the representatives: the
// reward signal. (The tracker's own Score is the same sum up to rounding; this
// one is the sum of what observe shows the agent.)
func (e *envBase) score() float64 {
	var s float64
	for q := range e.pre.Reps {
		s += e.pre.Reps[q].Weight * e.queryScore(q)
	}
	return s
}

// observe writes the state: per-representative scores (zero-padded beyond the
// live representatives), budget share, phase.
func (e *envBase) observe(phase float64) []float64 {
	n := len(e.state)
	reps := e.state[:n-2]
	for i := range reps {
		reps[i] = 0
	}
	for q := range e.pre.Reps {
		if q < len(reps) {
			reps[q] = e.queryScore(q)
		}
	}
	e.state[n-2] = math.Min(1, float64(e.tracker.Size())/float64(e.budget))
	e.state[n-1] = phase
	return append([]float64(nil), e.state...)
}

func (e *envBase) StateDim() int {
	d, _ := envShape(e.cfg)
	return d
}

func (e *envBase) NumActions() int {
	_, a := envShape(e.cfg)
	return a
}

// Score implements SetEnvironment.
func (e *envBase) Score() float64 {
	if e.tracker == nil {
		return 0
	}
	return e.score()
}

// Subset implements SetEnvironment.
func (e *envBase) Subset() *table.Subset {
	if e.tracker == nil {
		return table.NewSubset()
	}
	return e.tracker.Subset()
}

// --- GSL: gradual-set-learning (Section 5.2) ---

// gslEnv starts from the empty set; every action adds one candidate tuple
// group. The reward is the score delta, and an episode ends when the memory
// budget k is reached or every candidate has been chosen.
type gslEnv struct {
	envBase
	remaining int
	lastScore float64
}

func newGSLEnv(pre *Preprocessed, cfg Config, budget int) *gslEnv {
	return &gslEnv{envBase: newEnvBase(pre, cfg, budget)}
}

func (e *gslEnv) Reset() ([]float64, []bool) {
	e.reset()
	e.remaining = len(e.pre.Candidates)
	e.lastScore = e.score()
	return e.observe(0), e.mask()
}

// mask marks the valid actions: unchosen candidates that would add at least
// one new row. Action masking "constrains the RL algorithm to valid tuple
// selections" (Section 4.2) — a candidate fully subsumed by the current set
// is not a valid selection.
func (e *gslEnv) mask() []bool {
	m := make([]bool, e.NumActions())
	for i := range e.pre.Candidates {
		if i >= len(m) || e.chosen[i] {
			continue
		}
		for _, id := range e.pre.Candidates[i].Rows {
			if !e.tracker.Has(id) {
				m[i] = true
				break
			}
		}
	}
	return m
}

func (e *gslEnv) Step(action int) ([]float64, []bool, float64, bool) {
	if action >= 0 && action < len(e.pre.Candidates) && !e.chosen[action] {
		e.remaining--
		e.add(action)
	}
	score := e.score()
	reward := score - e.lastScore
	e.lastScore = score
	done := e.tracker.Size() >= e.budget || e.remaining == 0
	return e.observe(0), e.mask(), reward, done
}

func (e *gslEnv) Clone() rl.Environment { return newGSLEnv(e.pre, e.cfg, e.budget) }

// --- DRP: drop-one (Section 5.2) ---

// drpEnv starts from a random budget-filling set. Steps alternate between a
// removal phase (pick a chosen candidate to drop, or no-op) and an addition
// phase (pick a new candidate, or no-op). The reward, granted after the
// addition phase, is the score delta over the swap. Episodes run for a fixed
// horizon. The paper reports this environment is prone to poor local optima
// and unstable initialization — reproduced in the Figure 3 ablation.
type drpEnv struct {
	envBase
	seed      int64
	resets    int64
	phase     int // 0 remove, 1 add
	stepsLeft int
	preSwap   float64
}

func newDRPEnv(pre *Preprocessed, cfg Config, budget int) *drpEnv {
	return &drpEnv{envBase: newEnvBase(pre, cfg, budget), seed: cfg.Seed}
}

// noopAction is the extra action index meaning "leave the set unchanged".
// It is mapped onto the last candidate slot when the candidate list is
// shorter than the action space, or sacrificed otherwise.
func (e *drpEnv) noopAction() int { return e.NumActions() - 1 }

func (e *drpEnv) Reset() ([]float64, []bool) {
	e.resets++
	rng := rand.New(rand.NewSource(e.seed + e.resets*7919))
	e.reset()
	// Random initialization up to the budget.
	for _, i := range rng.Perm(len(e.pre.Candidates)) {
		if e.tracker.Size() >= e.budget {
			break
		}
		if i == e.noopAction() {
			continue
		}
		e.add(i)
	}
	e.phase = 0
	e.stepsLeft = e.cfg.DRPHorizon
	e.preSwap = e.score()
	return e.observe(float64(e.phase)), e.mask()
}

func (e *drpEnv) mask() []bool {
	m := make([]bool, e.NumActions())
	noop := e.noopAction()
	for i := range e.pre.Candidates {
		if i >= len(m) || i == noop {
			continue
		}
		if e.phase == 0 {
			m[i] = e.chosen[i]
		} else {
			m[i] = !e.chosen[i] && e.tracker.Size() < e.budget+len(e.pre.Candidates[i].Rows)
		}
	}
	m[noop] = true
	return m
}

func (e *drpEnv) Step(action int) ([]float64, []bool, float64, bool) {
	noop := e.noopAction()
	if action != noop && action >= 0 && action < len(e.pre.Candidates) {
		if e.phase == 0 && e.chosen[action] {
			e.drop(action)
		} else if e.phase == 1 && !e.chosen[action] {
			e.add(action)
		}
	}
	var reward float64
	if e.phase == 1 {
		score := e.score()
		reward = score - e.preSwap
		e.preSwap = score
	}
	e.phase = 1 - e.phase
	e.stepsLeft--
	done := e.stepsLeft <= 0
	return e.observe(float64(e.phase)), e.mask(), reward, done
}

func (e *drpEnv) Clone() rl.Environment {
	c := newDRPEnv(e.pre, e.cfg, e.budget)
	c.seed = e.seed + 104729
	return c
}

// --- Hybrid: GSL fill followed by DRP refinement ---

// hybridEnv first behaves like GSL until the budget is filled, then switches
// to DRP-style swap refinement for the remaining horizon.
type hybridEnv struct {
	*drpEnv
	filling bool
}

func newHybridEnv(pre *Preprocessed, cfg Config, budget int) *hybridEnv {
	return &hybridEnv{drpEnv: newDRPEnv(pre, cfg, budget)}
}

func (e *hybridEnv) Reset() ([]float64, []bool) {
	e.resets++
	e.reset()
	e.filling = true
	e.phase = 1 // additions only while filling
	e.stepsLeft = e.cfg.DRPHorizon
	e.preSwap = e.score()
	return e.observe(float64(e.phase)), e.mask()
}

func (e *hybridEnv) Step(action int) ([]float64, []bool, float64, bool) {
	if e.filling {
		noop := e.noopAction()
		if action != noop && action >= 0 && action < len(e.pre.Candidates) && !e.chosen[action] {
			e.add(action)
		}
		score := e.score()
		reward := score - e.preSwap
		e.preSwap = score
		e.stepsLeft--
		if e.tracker.Size() >= e.budget {
			e.filling = false
			e.phase = 0
		}
		done := e.stepsLeft <= 0 || (e.filling && e.allChosen())
		return e.observe(float64(e.phase)), e.mask(), reward, done
	}
	return e.drpEnv.Step(action)
}

func (e *hybridEnv) allChosen() bool {
	for i := range e.pre.Candidates {
		if !e.chosen[i] && i != e.noopAction() {
			return false
		}
	}
	return true
}

func (e *hybridEnv) Clone() rl.Environment {
	c := newHybridEnv(e.pre, e.cfg, e.budget)
	c.seed = e.seed + 104729
	return c
}
