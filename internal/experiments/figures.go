package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"asqprl/internal/baselines"
	"asqprl/internal/cluster"
	"asqprl/internal/core"
	"asqprl/internal/embed"
	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/workload"
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
// grows. ASQP-RL trains once per seed, at the largest k, and rebuilds its set
// at every requested size (Algorithm 2's req_size); baselines rebuild per k.
func Fig8MemorySweep(p Params) (Result, error) {
	points, methods := memorySweep(p)
	return oneTable("Figure 8: score vs memory budget k (IMDB)", "k", "Method", asqp, points, methods, colTest, colTally)
}

func memorySweep(p Params) ([]condition, []method) {
	ks := []int{p.K / 4, p.K / 2, p.K, p.K * 3 / 2}
	var points []condition
	for _, k := range ks {
		pk := p
		pk.K = k
		points = append(points, condition{point: strconv.Itoa(k), dataset: "IMDB", p: pk})
	}
	learner := trained(asqp, func(c *core.Config) { c.K = ks[len(ks)-1] })
	learner.next = func(prev built, _ *dataset, p Params, _ int64) (built, error) {
		_, err := prev.sys.BuildSet(p.K)
		return builtOf(prev.sys), err
	}
	return points, append([]method{learner}, sweepBaselines...)
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

// fractions is ASQP-RL as the fraction of executed representative queries
// shrinks, full first.
func fractions() []method {
	var methods []method
	for _, frac := range []float64{1.0, 0.75, 0.5, 0.25} {
		methods = append(methods, trained(fmt.Sprintf("%.0f%%", frac*100), func(c *core.Config) { c.TrainFraction = frac }))
	}
	return methods
}

// Fig10TrainingSetSize regenerates Figure 10a/b: quality and training time
// as the fraction of executed representative queries shrinks.
func Fig10TrainingSetSize(p Params) (Result, error) {
	methods := fractions()
	// At the paper's scale, executing the training queries dominates setup,
	// so the fraction knob cuts total time; at this reproduction's scale RL
	// training dominates, so the query-execution (preprocessing) share is
	// reported separately to expose the same effect.
	return oneTable("Figure 10: score and setup time vs executed training fraction (IMDB)", "", "Fraction", methods[0].name, on(p, "IMDB"),
		methods, colTrain, colTest, colTally, colPreprocess, colSetup)
}

// Fig5Estimator regenerates Figure 5 and the "Answers Estimation Quality"
// discussion of Section 6.2 over Figure 10's methods: the answerability
// estimator's precision and recall as the training fraction shrinks, judged
// on a mix of familiar (training) and unseen (test) statements with the
// paper's 0.5 threshold on both sides, and the score of the full system that
// sends a statement predicted below 0.6 or 0.8 to the database instead.
func Fig5Estimator(p Params) (Result, error) {
	methods := fractions()
	imdb := condition{dataset: "IMDB", p: p, probe: func(ds *dataset, b built, s *Sample) error {
		for _, q := range workload.Merge(ds.train, ds.test) {
			pred, _ := b.sys.Estimator().Estimate(q.Stmt)
			s.Predicted = append(s.Predicted, pred)
		}
		return nil
	}}
	return oneTable("Figure 5 and Section 6.2: answerability estimator and database fallback vs training fraction (IMDB)", "", "TrainFraction",
		methods[0].name, []condition{imdb}, methods, colPrecision, colRecall, colTest, fallbackColumn(0.6), fallbackColumn(0.8), colTally)
}

// Fig6NoWorkload regenerates Figure 6: the unknown-query-workload mode on
// FLIGHTS (Section 4.5). ASQP-RL trains on a statistics-generated workload;
// at each refinement the (simulated) user reveals five statements of a hidden
// interest, and ASQP-RL fine-tunes on them and as many generated statements
// aligned alongside. Every phase is scored on the whole interest. RAN and QRD,
// which need no workload, are built once per seed.
func Fig6NoWorkload(p Params) (Result, error) {
	phases, methods := refinements(p)
	return oneTable("Figure 6: unknown workload on FLIGHTS — quality on the user's interest per refinement", "UserQueriesSeen", "Method", asqp,
		phases, methods, colTest, colTally)
}

func refinements(p Params) ([]condition, []method) {
	const reveal = 5
	var phases []condition
	for i := 0; i*reveal <= interestStatements; i++ {
		phases = append(phases, condition{point: strconv.Itoa(i * reveal), dataset: "FLIGHTS", p: p, phase: func(ds *dataset, seed int64) (*dataset, error) {
			interest := delayedFlightsInterest(seed)
			n, seen := p.WorkloadSize, workload.Workload(nil)
			if i > 0 {
				n, seen = reveal, interest[(i-1)*reveal:i*reveal]
			}
			generated, err := core.GenerateWorkload(ds.db, core.GenOptions{N: n, Seed: seed + int64(i)})
			if err != nil {
				return nil, err
			}
			return &dataset{db: ds.db, train: workload.Merge(seen, generated), test: interest, ref: ds.ref}, nil
		}})
	}
	learner := trained(asqp, nil)
	learner.next = func(prev built, ds *dataset, p Params, _ int64) (built, error) {
		err := prev.sys.FineTune(ds.train, p.Episodes/3)
		return builtOf(prev.sys), err
	}
	static := subsets(baselines.Random{}, baselines.QRD{})
	return phases, []method{learner, frozen(static[0]), frozen(static[1])}
}

const interestStatements = 20

// delayedFlightsInterest generates the narrow "delayed long-haul" interest
// Figure 6's user hides: one the statistics-driven bootstrap cannot
// anticipate.
func delayedFlightsInterest(seed int64) workload.Workload {
	rng := rand.New(rand.NewSource(seed + 77))
	var sqls []string
	seen := map[string]bool{}
	for len(sqls) < interestStatements {
		var q string
		switch rng.Intn(4) {
		case 0:
			q = fmt.Sprintf("SELECT * FROM flights WHERE dep_delay > %d AND distance > %d",
				50+rng.Intn(60), 1200+rng.Intn(1200))
		case 1:
			q = fmt.Sprintf("SELECT carrier, origin, dep_delay FROM flights WHERE dep_delay > %d",
				80+rng.Intn(80))
		case 2:
			q = fmt.Sprintf("SELECT * FROM flights WHERE arr_delay > %d AND distance > %d",
				40+rng.Intn(60), 1500+rng.Intn(1000))
		default:
			q = fmt.Sprintf("SELECT * FROM flights WHERE dep_delay BETWEEN %d AND %d AND month = %d",
				50+rng.Intn(30), 150+rng.Intn(100), 1+rng.Intn(12))
		}
		if !seen[q] {
			seen[q] = true
			sqls = append(sqls, q)
		}
	}
	return workload.MustNew(sqls...)
}

// Fig7Drift regenerates Figure 7: the seed's statements are clustered into
// three interests over their embeddings, and each phase reveals the next
// cluster's training side and is scored on its held-out side. Per phase it
// compares ASQP-RL trained on the first cluster and never adapted (stale),
// fine-tuned on each new cluster in turn (fine-tune), and trained from scratch
// at the same episode budget on every cluster revealed so far (retrain).
func Fig7Drift(p Params) (Result, error) {
	var phases []condition
	for i := range 3 {
		phases = append(phases, condition{point: strconv.Itoa(i + 1), dataset: "IMDB", p: p, phase: driftPhase(i)})
	}
	// Fine-tuning is "tailored to the specific characteristics" of the
	// drifted statements (Section 4.4): merged into the training workload,
	// they weigh double. Retraining sees the same merged workload.
	drifted := func(w workload.Workload) workload.Workload {
		w = append(workload.Workload(nil), w...)
		for i := range w {
			w[i].Weight *= 2
		}
		return w
	}
	fineTune := trained("fine-tune", nil)
	fineTune.next = func(prev built, ds *dataset, p Params, _ int64) (built, error) {
		err := prev.sys.FineTune(drifted(ds.train), p.Episodes)
		return builtOf(prev.sys), err
	}
	retrain := trained("retrain", nil)
	retrain.next = func(prev built, ds *dataset, p Params, seed int64) (built, error) {
		return trainOn(ds, workload.Merge(prev.sys.TrainingWorkload(), drifted(ds.train)), p.asqpConfig(seed), p.K)
	}
	return oneTable("Figure 7: interest drift (IMDB, 3 workload clusters)", "ActiveCluster", "Method", fineTune.name, phases,
		[]method{frozen(trained("stale", nil)), fineTune, retrain}, colTest, colTally, colSetup)
}

// driftPhase is the view of Figure 7's phase i: the seed's training and test
// statements clustered into three interests, each split 70/30, and cluster
// i's two sides as the training and the test workload.
func driftPhase(i int) func(ds *dataset, seed int64) (*dataset, error) {
	return func(ds *dataset, seed int64) (*dataset, error) {
		all := workload.Merge(ds.train, ds.test)
		vecs := make([][]float64, len(all))
		for j, q := range all {
			vecs[j] = embed.Embedder{}.Query(q.Stmt)
		}
		rng := rand.New(rand.NewSource(seed))
		clusters := make([]workload.Workload, 3)
		for j, c := range cluster.KMeans(vecs, 3, 30, rng).Assignments {
			clusters[c] = append(clusters[c], all[j])
		}
		var view *dataset
		for c, w := range clusters {
			if len(w) == 0 {
				return nil, fmt.Errorf("fig7: cluster %d empty; increase workload size", c+1)
			}
			train, test := w.Split(0.7, rng)
			if len(test) == 0 {
				return nil, fmt.Errorf("fig7: cluster %d has no held-out statement; increase workload size", c+1)
			}
			if c == i {
				view = &dataset{db: ds.db, train: train, test: test, ref: ds.ref}
			}
		}
		return view, nil
	}
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
	uniform := method{name: "uniform query sample", build: func(ds *dataset, p Params, seed int64) (built, error) {
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
	fullDB := method{name: "FullDB", build: func(ds *dataset, _ Params, _ int64) (built, error) { return built{db: ds.db}, nil }}
	methods := append([]method{fullDB, trained(asqp, nil)},
		subsets(baselines.Random{}, baselines.TopQueried{}, baselines.QRD{}, baselines.Skyline{}, baselines.Verdict{})...)
	imdb := condition{dataset: "IMDB", p: p, probe: answerDiversity}
	return oneTable("Section 6.2: diversity of approximate answers (IMDB, LIMIT 100)", "", "Method", asqp, []condition{imdb},
		methods, colDiversity, colTest, colTally)
}

// answerDiversity is diversity as in Section 6.2: the mean pairwise Jaccard
// distance among the rows of each test query's LIMIT 100 answer on approx,
// for the queries with at least two result rows.
func answerDiversity(ds *dataset, b built, s *Sample) error {
	for _, q := range ds.test {
		limited := q.Stmt.Clone()
		limited.Limit = 100
		res, err := engine.ExecuteWith(b.db, limited, engine.Options{})
		if err != nil {
			return err
		}
		if res.Table.NumRows() >= 2 {
			s.Diversity = append(s.Diversity, metrics.IntraResultDiversity(res.Table, 100))
		}
	}
	return nil
}
