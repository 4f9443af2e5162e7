// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) over the synthetic datasets of internal/datagen (see
// DESIGN.md for the paper-vs-built substitutions and the per-experiment
// index). Most experiments are a list of methods and a list of columns over
// one evaluator (evaluate.go), which owns the seed loop and returns typed
// samples; a number stays a number until Table.Render prints it (render.go),
// for the terminal and for EXPERIMENTS.md alike. cmd/asqp-bench exposes the
// runners on the command line.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"asqprl/internal/core"
)

// Params sizes an experiment run. Full() matches the shapes of the paper's
// figures at laptop scale; Fast() shrinks everything for tests and smoke
// benches.
type Params struct {
	// Scale is the dataset scale factor passed to internal/datagen.
	Scale float64
	// WorkloadSize is the number of workload queries per dataset: 70 % of
	// them train; loadDataset adds a larger held-out draw to the rest.
	WorkloadSize int
	// K is the memory budget (tuples in the approximation set).
	K int
	// F is the frame size.
	F int
	// Episodes is the RL training budget.
	Episodes int
	// Reps is the number of query representatives.
	Reps int
	// Actions is the RL action-space size.
	Actions int
	// Seeds is how many independent repetitions (paired across methods)
	// every table over samples stands on.
	Seeds int
	// BaselineBudget caps BRT/GRE search time.
	BaselineBudget time.Duration
	// Parallelism is the worker count for workload scoring
	// (0 = one worker per CPU, <0 = serial). Results are identical for
	// every setting; only wall-clock changes.
	Parallelism int
	// Seed is the base random seed.
	Seed int64
}

// Full returns the default experiment sizing.
func Full() Params {
	return Params{
		Scale:          0.15,
		WorkloadSize:   36,
		K:              400,
		F:              50,
		Episodes:       320,
		Reps:           24,
		Actions:        512,
		Seeds:          10,
		BaselineBudget: 2 * time.Second,
		Seed:           1,
	}
}

// Fast returns a miniature sizing for tests and smoke benchmarks.
func Fast() Params {
	return Params{
		Scale:          0.02,
		WorkloadSize:   14,
		K:              120,
		F:              25,
		Episodes:       12,
		Reps:           8,
		Actions:        64,
		Seeds:          1,
		BaselineBudget: 150 * time.Millisecond,
		Seed:           1,
	}
}

// asqpConfig derives the ASQP-RL configuration from the params.
func (p Params) asqpConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = p.K
	cfg.F = p.F
	cfg.Episodes = p.Episodes
	cfg.NumRepresentatives = p.Reps
	cfg.ActionSpaceSize = p.Actions
	cfg.Seed = seed
	cfg.RL.Seed = seed
	cfg.Parallelism = p.Parallelism
	return cfg
}

// Result is what an experiment produces: its tables and the samples they were
// computed from. Every experiment stands on the evaluator except fig4, which
// compares no methods, and fig12, whose score is not Equation 1; those two
// return tables only.
type Result struct {
	Tables  []*Table
	Samples []Sample
}

func (r *Result) add(o Result) {
	r.Tables = append(r.Tables, o.Tables...)
	r.Samples = append(r.Samples, o.Samples...)
}

// Runner is one experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(Params) (Result, error)
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig2", "Overall evaluation: score, setup and per-query time for ASQP-RL, ASQP-Light and all baselines on IMDB and MAS", Fig2Overall},
		{"fig3", "RL ablation: environments (GSL/DRP/hybrid) x agents (full/-ppo/-ppo-ac)", Fig3Ablation},
		{"fig4", "Problem justification: cumulative average direct-query latency vs database blow-up", Fig4ProblemJustification},
		{"fig5", "Answerability estimator: precision/recall vs training fraction; full-system fallback variants", Fig5Estimator},
		{"fig6", "Unknown workload on FLIGHTS: quality per refinement iteration vs RAN and QRD", Fig6NoWorkload},
		{"fig7", "Interest drift: quality per phase of a stale, a fine-tuned and a retrained learner", Fig7Drift},
		{"fig8", "Memory budget sweep: score vs k", Fig8MemorySweep},
		{"fig9", "Frame size sweep: score vs F", Fig9FrameSweep},
		{"fig10", "Training-set size: score and training time vs executed fraction", Fig10TrainingSetSize},
		{"fig11", "RL hyper-parameter sweeps: entropy, learning rate, KL coefficient", Fig11Hyperparams},
		{"fig12", "Aggregate queries: relative error by operator vs VAE (gAQP) and SPN (DeepDB)", Fig12Aggregates},
		{"div", "Diversity of approximate answers vs baselines (pairwise Jaccard)", DiversityComparison},
		{"abl-reps", "Ablation: medoid representative selection vs uniform query sampling", AblationRepSelection},
		{"abl-relax", "Ablation: query relaxation on/off for generalization", AblationRelaxation},
		{"crossover", "Scale crossover: score and setup vs dataset scale under fixed budgets (reproduction extension)", ScaleCrossover},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, error) {
	var ids []string
	for _, r := range Registry() {
		if r.ID == id {
			return r, nil
		}
		ids = append(ids, r.ID)
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}
