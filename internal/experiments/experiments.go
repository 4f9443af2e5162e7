// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each runner produces the same rows/series the
// paper reports, over the synthetic datasets of internal/datagen (see
// DESIGN.md for the paper-vs-built substitutions and the per-experiment
// index). cmd/asqp-bench exposes the runners on the command line and
// bench_test.go wraps each one in a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/obs"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// Params sizes an experiment run. Full() matches the shapes of the paper's
// figures at laptop scale; Fast() shrinks everything for tests and smoke
// benches.
type Params struct {
	// Scale is the dataset scale factor passed to internal/datagen.
	Scale float64
	// WorkloadSize is the number of workload queries per dataset.
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
	// Seeds is how many independent repetitions feed the ± columns.
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
		Seeds:          2,
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

// lightConfig derives the ASQP-Light configuration.
func (p Params) lightConfig(seed int64) core.Config {
	cfg := p.asqpConfig(seed)
	light := core.LightConfig()
	cfg.TrainFraction = light.TrainFraction
	cfg.Episodes = p.Episodes / 2
	cfg.EarlyStopPatience = light.EarlyStopPatience
	cfg.RL.LR = light.RL.LR
	return cfg
}

// Table is a rendered experiment artifact: a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render pretty-prints the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// Runner is one experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(Params) ([]*Table, error)
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig2", "Overall evaluation: score, setup and per-query time for ASQP-RL, ASQP-Light and all baselines on IMDB and MAS", Fig2Overall},
		{"fig3", "RL ablation: environments (GSL/DRP/hybrid) x agents (full/-ppo/-ppo-ac)", Fig3Ablation},
		{"fig4", "Problem justification: cumulative average direct-query latency vs database blow-up", Fig4ProblemJustification},
		{"fig5", "Answerability estimator: precision/recall vs training fraction; full-system fallback variants", Fig5Estimator},
		{"fig6", "Unknown workload on FLIGHTS: quality per refinement iteration vs RAN and QRD", Fig6NoWorkload},
		{"fig7", "Interest drift: quality per phase with fine-tuning", Fig7Drift},
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
	for _, r := range Registry() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(ids(), ", "))
}

func ids() []string {
	var out []string
	for _, r := range Registry() {
		out = append(out, r.ID)
	}
	sort.Strings(out)
	return out
}

// --- shared helpers ---

// dataset bundles a database with its workload and a reference-count cache
// bound to the full database: every baseline scored on this dataset reuses
// the same |q(𝒯)| counts instead of re-executing each reference query.
type dataset struct {
	name  string
	db    *table.Database
	train workload.Workload
	test  workload.Workload
	ref   *metrics.ReferenceCache
}

// scoreOpts returns scoring options carrying the dataset's reference cache
// and the run's parallelism.
func (ds dataset) scoreOpts(p Params) metrics.ScoreOptions {
	return metrics.ScoreOptions{Parallelism: p.Parallelism, Cache: ds.ref}
}

// score evaluates Equation 1 for approx against the dataset's full database,
// sharing cached reference counts across baselines.
func (ds dataset) score(approx *table.Database, w workload.Workload, frameSize int, p Params) (float64, error) {
	return metrics.ScoreWith(ds.db, approx, w, frameSize, ds.scoreOpts(p))
}

// loadDataset builds one of the named datasets with a train/test split.
func loadDataset(name string, p Params, seed int64) dataset {
	var db *table.Database
	var w workload.Workload
	switch name {
	case "MAS":
		db = datagen.MAS(p.Scale, seed)
		w = workload.MAS(p.WorkloadSize, seed+100)
	case "FLIGHTS":
		db = datagen.Flights(p.Scale, seed)
		w = workload.Flights(p.WorkloadSize, seed+100)
	default:
		db = datagen.IMDB(p.Scale, seed)
		w = workload.IMDB(p.WorkloadSize, seed+100)
	}
	rng := rand.New(rand.NewSource(seed + 200))
	train, test := w.Split(0.7, rng)
	obs.Logger().Info("dataset loaded",
		"dataset", name,
		"tables", len(db.TableNames()),
		"rows", db.TotalRows(),
		"train_queries", len(train),
		"test_queries", len(test),
		"k", p.K,
		"frame", p.F,
		"seed", seed)
	return dataset{name: name, db: db, train: train, test: test, ref: metrics.NewReferenceCache(db)}
}

// queryAvg measures the mean execution time of up to n test queries on db.
func queryAvg(db *table.Database, w workload.Workload, n int) time.Duration {
	if n > len(w) {
		n = len(w)
	}
	if n == 0 {
		return 0
	}
	start := time.Now()
	for _, q := range w[:n] {
		res, err := engine.ExecuteWith(db, q.Stmt, engine.Options{})
		_ = res
		_ = err
	}
	return time.Since(start) / time.Duration(n)
}

// fmtScore renders mean±std of a score sample.
func fmtScore(vals []float64) string {
	if len(vals) == 1 {
		return fmt.Sprintf("%.3f", vals[0])
	}
	return fmt.Sprintf("%.3f±%.3f", metrics.Mean(vals), metrics.StdDev(vals))
}

// fmtDur renders a duration in milliseconds.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// fmtDurs renders mean±std of duration samples in milliseconds.
func fmtDurs(ds []time.Duration) string {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d.Microseconds()) / 1000
	}
	if len(vals) == 1 {
		return fmt.Sprintf("%.1fms", vals[0])
	}
	return fmt.Sprintf("%.1f±%.1fms", metrics.Mean(vals), metrics.StdDev(vals))
}

// workloadCopy clones a workload slice (weights included).
func workloadCopy(w workload.Workload) workload.Workload {
	return append(workload.Workload(nil), w...)
}
