// Package core implements ASQP-RL itself: the preprocessing pipeline that
// turns a database and query workload into an RL action space (Section 4.2),
// the GSL/DRP/hybrid tabular environments (Section 5.2), training
// (Algorithm 1) and inference (Algorithm 2), the answerability estimator and
// interest-drift detection (Section 4.4), the statistics-driven query
// generator for unknown workloads (Section 4.5), and the ASQP-Light
// configuration.
package core

import "asqprl/internal/rl"

// EnvironmentKind selects the tabular RL environment (Section 5.2).
type EnvironmentKind uint8

const (
	// EnvGSL is gradual-set-learning: start empty, add tuple groups.
	EnvGSL EnvironmentKind = iota
	// EnvDRP is drop-one: start full, swap tuple groups.
	EnvDRP
	// EnvHybrid fills with GSL and then refines with DRP swaps.
	EnvHybrid
)

// String names the environment kind as in the paper's Figure 3.
func (k EnvironmentKind) String() string {
	switch k {
	case EnvGSL:
		return "GSL"
	case EnvDRP:
		return "DRP"
	case EnvHybrid:
		return "DRP+GSL"
	default:
		return "unknown"
	}
}

// Config holds every tunable of the ASQP-RL pipeline. Zero values are filled
// with the paper's defaults (Section 6.1) by normalize.
type Config struct {
	// K is the memory budget: the maximum number of tuples in the
	// approximation set (paper default 1000).
	K int
	// F is the frame size: the number of result rows a user inspects
	// (paper default 50).
	F int
	// NumRepresentatives is the number of query representatives selected by
	// clustering the embedded, relaxed workload. It also fixes the state
	// dimension, so it stays constant across fine-tuning.
	NumRepresentatives int
	// TrainFraction is the portion of representatives whose queries are
	// actually executed during preprocessing (Figure 10's sweep); ASQP-Light
	// uses 0.25.
	TrainFraction float64
	// ActionSpaceSize is the number of candidate tuple groups after
	// variational subsampling; it fixes the action dimension.
	ActionSpaceSize int
	// ActionGroupSize is how many result tuples of one representative are
	// bundled into a single action ("an action encompasses multiple tuples
	// sourced from different tables", Section 4.3). Larger groups shorten
	// episodes and make the coverage state more informative per action.
	ActionGroupSize int
	// MaxTrackedPerQuery caps the result tuples tracked per representative
	// for reward computation; larger results are sampled (coverage is then
	// estimated by scaling).
	MaxTrackedPerQuery int
	// RelaxFactor is the numeric widening factor for query relaxation.
	RelaxFactor float64
	// RelaxDrop also drops the most selective conjunct during relaxation.
	RelaxDrop bool
	// Environment selects GSL (default), DRP or the hybrid.
	Environment EnvironmentKind
	// DRPHorizon is the episode length for the DRP environment.
	DRPHorizon int
	// Episodes is the RL training budget in episodes.
	Episodes int
	// EarlyStopPatience stops training after this many iterations without
	// improvement in mean return (0 disables; ASQP-Light enables it).
	EarlyStopPatience int
	// RL configures the agent (clip/KL/entropy coefficients, workers, ...).
	RL rl.Config
	// EmbedDim is the embedding dimensionality.
	EmbedDim int
	// DriftConfidence and DriftCount configure interest-drift detection:
	// fine-tuning triggers after DriftCount queries deviate from the
	// training workload with confidence above DriftConfidence.
	DriftConfidence float64
	// DriftCount is the number of deviating queries that triggers
	// fine-tuning.
	DriftCount int
	// Parallelism is the worker count of workload scoring (training reward,
	// validation, Score; 0 = one worker per CPU, <0 = serial). It does not
	// change any result — scoring is per-query independent — only wall-clock.
	// Query execution does not read it: every operator is serial.
	Parallelism int
	// Seed drives every random choice for reproducibility.
	Seed int64
}

// relaxRewardWeight is the share of each representative's reward given to
// covering its relaxed variant's results (the rest rewards the original
// results). It implements training on generalized queries.
const relaxRewardWeight = 0.3

// EstimatorThreshold is the predicted score at or above which a query is
// answered from the approximation set; estimatorNeighbors is how many
// nearest training queries vote in that prediction.
const (
	EstimatorThreshold = 0.5
	estimatorNeighbors = 5
)

// DefaultConfig returns the paper-default configuration (Section 6.1),
// scaled to the laptop-size synthetic datasets of this reproduction.
func DefaultConfig() Config {
	return Config{
		K:                  1000,
		F:                  50,
		NumRepresentatives: 24,
		TrainFraction:      1.0,
		ActionSpaceSize:    512,
		ActionGroupSize:    8,
		MaxTrackedPerQuery: 200,
		RelaxFactor:        0.25,
		RelaxDrop:          true,
		Environment:        EnvGSL,
		DRPHorizon:         160,
		Episodes:           96,
		RL: rl.Config{
			Hidden:      []int{64, 64},
			LR:          5e-3,
			Gamma:       0.995,
			ClipEpsilon: 0.2,
			EntropyCoef: 0.001,
			KLCoef:      0.2,
			UseCritic:   true,
			Epochs:      4,
			Workers:     4,
		},
		EmbedDim: 64,
		// The paper uses 0.8 with sentence-BERT embeddings; our hash
		// embeddings put in-distribution queries near similarity 0.95 and
		// out-of-distribution ones below 0.5, so deviation 0.5 separates
		// the same populations.
		DriftConfidence: 0.5,
		DriftCount:      3,
		Seed:            1,
	}
}

// LightConfig returns ASQP-Light (Section 4.5): a reduced training workload
// fraction, a higher learning rate, and aggressive early stopping. It trades
// roughly 10% of quality for about half the setup time.
func LightConfig() Config {
	c := DefaultConfig()
	c.TrainFraction = 0.25
	c.Episodes = c.Episodes / 2
	c.EarlyStopPatience = 4
	c.RL.LR = 1e-2
	return c
}

// normalize fills zero fields with defaults and clamps invalid values.
func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.K <= 0 {
		c.K = d.K
	}
	if c.F <= 0 {
		c.F = d.F
	}
	if c.NumRepresentatives <= 0 {
		c.NumRepresentatives = d.NumRepresentatives
	}
	if c.TrainFraction <= 0 || c.TrainFraction > 1 {
		c.TrainFraction = 1
	}
	if c.ActionSpaceSize <= 0 {
		c.ActionSpaceSize = d.ActionSpaceSize
	}
	if c.ActionGroupSize <= 0 {
		c.ActionGroupSize = d.ActionGroupSize
	}
	if c.MaxTrackedPerQuery <= 0 {
		c.MaxTrackedPerQuery = d.MaxTrackedPerQuery
	}
	if c.RelaxFactor <= 0 {
		c.RelaxFactor = d.RelaxFactor
	}
	if c.DRPHorizon <= 0 {
		c.DRPHorizon = d.DRPHorizon
	}
	if c.Episodes <= 0 {
		c.Episodes = d.Episodes
	}
	if c.EmbedDim <= 0 {
		c.EmbedDim = d.EmbedDim
	}
	if c.DriftConfidence <= 0 {
		c.DriftConfidence = d.DriftConfidence
	}
	if c.DriftCount <= 0 {
		c.DriftCount = d.DriftCount
	}
	if c.RL.Seed == 0 {
		c.RL.Seed = c.Seed
	}
	return c
}
