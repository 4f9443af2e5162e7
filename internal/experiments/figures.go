package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"asqprl/internal/baselines"
	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/table"
)

// The experiments in this file are a method list and a column list over
// evaluate's samples.

const asqp = "ASQP-RL"

// Fig2Overall regenerates Figure 2: approximation quality (Equation 1 on the
// held-out test workload), setup time, and average per-query time for
// ASQP-RL, ASQP-Light, the VAE, every subset baseline and the two floors on
// IMDB and MAS.
func Fig2Overall(p Params) (Result, error) {
	methods := []method{trained(asqp, nil), trained("ASQP-Light", light), vae}
	methods = append(methods, subsets(baselines.All()...)...)
	methods = append(methods, floors...)
	return perDataset(p, "Figure 2 (%s): quality and running time", "Baseline", methods,
		colTest, colTally, colSetup, colQueryAvg)
}

// Fig3Ablation regenerates Figure 3: the RL ablation over environments
// (GSL, DRP, DRP+GSL) and agent variants (full ASQP-RL, without PPO
// clipping, and additionally without the actor-critic baseline) on IMDB and
// MAS, reporting score and total time, above the two floors.
func Fig3Ablation(p Params) (Result, error) {
	agents := []struct {
		name    string
		variant func(*core.Config)
	}{
		{asqp, func(c *core.Config) {}},
		{"ASQP-RL - ppo", func(c *core.Config) {
			c.RL.ClipEpsilon = 0
			c.RL.KLCoef = 0
		}},
		{"ASQP-RL - ppo - ac", func(c *core.Config) {
			c.RL.ClipEpsilon = 0
			c.RL.KLCoef = 0
			c.RL.UseCritic = false
		}},
	}
	var methods []method
	for _, env := range []core.EnvironmentKind{core.EnvGSL, core.EnvDRP, core.EnvHybrid} {
		for _, a := range agents {
			methods = append(methods, trained(env.String()+" / "+a.name, func(c *core.Config) {
				c.Environment = env
				// The ablation compares nine variants per dataset; run
				// each at half the episode budget, and keep DRP episodes
				// (horizon-long, with two phases per swap) in the same
				// wall-clock ballpark as GSL's budget-bounded episodes.
				c.Episodes /= 2
				c.DRPHorizon = c.K / 4
				a.variant(c)
			}))
		}
	}
	methods = append(methods, floors...)
	return perDataset(p, "Figure 3 (%s): reinforcement learning ablation", "Environment / Agent", methods,
		colTrain, colTest, colTally, colSetup)
}

// perDataset is one table on IMDB and one on MAS, every row paired against
// the first method.
func perDataset(p Params, titleFormat, methodHeader string, methods []method, cols ...column) (Result, error) {
	var res Result
	for _, name := range []string{"IMDB", "MAS"} {
		r, err := oneTable(fmt.Sprintf(titleFormat, name), "", methodHeader, methods[0].name, on(p, name), methods, cols...)
		if err != nil {
			return Result{}, err
		}
		res.add(r)
	}
	return res, nil
}

// oneTable evaluates methods under conds and tabulates all samples together,
// every row paired against the method named ref under the same condition.
// pointHeader heads the column of swept values; it is empty outside sweeps.
func oneTable(title, pointHeader, methodHeader, ref string, conds []condition, methods []method, cols ...column) (Result, error) {
	samples, err := evaluate(conds, methods)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Tables:  []*Table{tabulate(title, pointHeader, methodHeader, ref, samples, cols...)},
		Samples: samples,
	}, nil
}

// sweepBaselines are the comparison methods shown in the k and F sweeps.
var sweepBaselines = subsets(baselines.Random{}, baselines.TopQueried{}, baselines.QRD{}, baselines.Skyline{}, baselines.Greedy{})

// Fig8MemorySweep regenerates Figure 8: quality as the memory budget k
// grows. ASQP-RL trains at the largest k and rebuilds the set per requested
// size (Algorithm 2's req_size); baselines rebuild per k.
func Fig8MemorySweep(p Params) (Result, error) {
	ks := []int{p.K / 4, p.K / 2, p.K, p.K * 3 / 2}
	var points []condition
	for _, k := range ks {
		pk := p
		pk.K = k
		points = append(points, condition{point: strconv.Itoa(k), dataset: "IMDB", p: pk})
	}
	atLargest := trained(asqp, func(c *core.Config) { c.K = ks[len(ks)-1] })
	return oneTable("Figure 8: score vs memory budget k (IMDB)", "k", "Method", asqp, points,
		append([]method{atLargest}, sweepBaselines...), colTest, colTally)
}

// Fig9FrameSweep regenerates Figure 9: quality as the frame size F grows
// while the memory budget stays fixed (harder problem: each query needs more
// covered tuples).
func Fig9FrameSweep(p Params) (Result, error) {
	var points []condition
	for _, f := range []int{p.F / 2, p.F, p.F * 3 / 2, p.F * 2} {
		pf := p
		pf.F = f
		points = append(points, condition{point: strconv.Itoa(f), dataset: "IMDB", p: pf})
	}
	return oneTable("Figure 9: score vs frame size F (IMDB)", "F", "Method", asqp, points,
		append([]method{trained(asqp, nil)}, sweepBaselines...), colTest, colTally)
}

// ScaleCrossover is this reproduction's addition to the paper's evaluation:
// it grows the IMDB dataset while holding every method's time budget fixed,
// exposing where the classical competitors' costs cross ASQP-RL's. The
// paper's GRE ran out of a 48-hour budget at 34M tuples; this experiment
// shows the same mechanism in miniature — GRE's per-candidate metric
// re-execution is priced out almost immediately, and GRE+'s full-workload
// lineage pass grows with the data while ASQP-RL's preprocessing executes
// only the query representatives.
func ScaleCrossover(p Params) (Result, error) {
	var points []condition
	for _, factor := range []float64{1, 2, 4} {
		ps := p
		ps.Scale = p.Scale * factor
		points = append(points, condition{point: fmt.Sprintf("x%g", factor), dataset: "IMDB", p: ps})
	}
	methods := append([]method{trained(asqp, nil)}, subsets(baselines.Greedy{}, baselines.GreedyExec{}, baselines.Verdict{})...)
	return oneTable("Scale crossover: test score and setup vs dataset scale, fixed budgets (IMDB)", "Scale", "Method", asqp, points,
		methods, colTest, colTally, colSetup)
}

// Fig10TrainingSetSize regenerates Figure 10a/b: quality and training time
// as the fraction of executed representative queries shrinks.
func Fig10TrainingSetSize(p Params) (Result, error) {
	var methods []method
	for _, frac := range []float64{1.0, 0.75, 0.5, 0.25} {
		methods = append(methods, trained(fmt.Sprintf("%.0f%%", frac*100), func(c *core.Config) { c.TrainFraction = frac }))
	}
	// At the paper's scale, executing the training queries dominates setup,
	// so the fraction knob cuts total time; at this reproduction's scale RL
	// training dominates, so the query-execution (preprocessing) share is
	// reported separately to expose the same effect.
	return oneTable("Figure 10: score and setup time vs executed training fraction (IMDB)", "", "Fraction", methods[0].name, on(p, "IMDB"),
		methods, colTrain, colTest, colTally, colPreprocess, colSetup)
}

// Fig11Hyperparams regenerates Figure 11: sweeps of the entropy coefficient,
// the learning rate, and the KL coefficient. Hyper-parameter effects act on
// the optimization itself, so the sweeps report the training-objective score
// alongside the (noisier) test score; each row is paired against the default
// value's (for the learning rate, default 0.005, its nearest neighbour's).
func Fig11Hyperparams(p Params) (Result, error) {
	sweeps := []struct {
		title, knob string
		values      []float64
		ref         float64
		set         func(*core.Config, float64)
	}{
		{"Figure 11a: entropy coefficient sweep (IMDB)", "EntropyCoef", []float64{0, 0.001, 0.01, 0.02}, 0.001,
			func(c *core.Config, v float64) { c.RL.EntropyCoef = v }},
		{"Figure 11b: learning rate sweep (IMDB)", "LearningRate", []float64{5e-4, 3e-3, 1e-2, 5e-2}, 3e-3,
			func(c *core.Config, v float64) { c.RL.LR = v }},
		{"Figure 11c: KL coefficient sweep (IMDB)", "KLCoef", []float64{0.2, 0.5, 0.9}, 0.2,
			func(c *core.Config, v float64) { c.RL.KLCoef = v }},
	}
	var res Result
	for _, sw := range sweeps {
		name := func(v float64) string { return fmt.Sprintf("%s %g", sw.knob, v) }
		var methods []method
		for _, v := range sw.values {
			methods = append(methods, trained(name(v), func(c *core.Config) { sw.set(c, v) }))
		}
		r, err := oneTable(sw.title, "", "Setting", name(sw.ref), on(p, "IMDB"), methods, colTrain, colTest, colTally)
		if err != nil {
			return Result{}, err
		}
		res.add(r)
	}
	return res, nil
}

// AblationRepSelection compares medoid-based representative selection
// (the pipeline default) against uniformly sampling the same number of
// training queries — the DESIGN.md ablation on representative selection.
func AblationRepSelection(p Params) (Result, error) {
	medoid := trained("medoid clustering (default)", nil)
	// Uniform: train on a random subset of queries of the same size as the
	// representative set, bypassing the clustering's coverage.
	uniform := method{"uniform query sample", func(ds *dataset, p Params, seed int64) (built, error) {
		idx := rand.New(rand.NewSource(seed + 5)).Perm(len(ds.train))
		return trainOn(ds, ds.train.Subset(idx[:min(p.Reps, len(idx))]), p.asqpConfig(seed), p.K)
	}}
	return oneTable("Ablation: representative selection (IMDB)", "", "Selection", medoid.name, on(p, "IMDB"),
		[]method{medoid, uniform}, colTest, colTally)
}

// AblationRelaxation compares relaxation settings: effectively off, the
// default factor, and aggressive relaxation with conjunct dropping — showing
// relaxation's contribution to generalization on unseen queries.
func AblationRelaxation(p Params) (Result, error) {
	relax := func(name string, factor float64, drop bool) method {
		return trained(name, func(c *core.Config) {
			c.RelaxFactor = factor
			c.RelaxDrop = drop
		})
	}
	methods := []method{
		relax("off (factor 1e-6)", 1e-6, false),
		relax("default (factor 0.25)", 0.25, false),
		relax("aggressive (0.5 + drop)", 0.5, true),
	}
	return oneTable("Ablation: query relaxation (IMDB)", "", "Relaxation", methods[1].name, on(p, "IMDB"),
		methods, colTrain, colTest, colTally)
}

// DiversityComparison regenerates the Section 6.2 diversity study: pairwise
// Jaccard diversity of approximate answers (queries run with LIMIT 100)
// for the full database, ASQP-RL, and the subset baselines.
func DiversityComparison(p Params) (Result, error) {
	fullDB := method{"FullDB", func(ds *dataset, _ Params, _ int64) (built, error) { return built{db: ds.db}, nil }}
	methods := append([]method{fullDB, trained(asqp, nil)},
		subsets(baselines.Random{}, baselines.TopQueried{}, baselines.QRD{}, baselines.Skyline{}, baselines.Verdict{})...)
	imdb := condition{dataset: "IMDB", p: p, probe: answerDiversity}
	return oneTable("Section 6.2: diversity of approximate answers (IMDB, LIMIT 100)", "", "Method", asqp, []condition{imdb},
		methods, colDiversity, colTest, colTally)
}

// answerDiversity is diversity as in Section 6.2: the mean pairwise Jaccard
// distance among the rows of each test query's LIMIT 100 answer on approx,
// for the queries with at least two result rows.
func answerDiversity(ds *dataset, approx *table.Database, s *Sample) error {
	for _, q := range ds.test {
		limited := q.Stmt.Clone()
		limited.Limit = 100
		res, err := engine.ExecuteWith(approx, limited, engine.Options{})
		if err != nil {
			return err
		}
		if res.Table.NumRows() >= 2 {
			s.Diversity = append(s.Diversity, metrics.IntraResultDiversity(res.Table, 100))
		}
	}
	return nil
}
