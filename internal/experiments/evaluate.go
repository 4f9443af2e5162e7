package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"asqprl/internal/baselines"
	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/generative"
	"asqprl/internal/metrics"
	"asqprl/internal/obs"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// dataset bundles a database with its workloads and a reference-count cache
// bound to the full database: every method scored on this dataset reuses the
// same |q(𝒯)| counts instead of re-executing each reference query.
type dataset struct {
	db    *table.Database
	train workload.Workload
	test  workload.Workload
	ref   *metrics.ReferenceCache
}

// scoreOpts carries the dataset's reference cache and the run's parallelism.
func (ds *dataset) scoreOpts(p Params) metrics.ScoreOptions {
	return metrics.ScoreOptions{Parallelism: p.parallelism, Cache: ds.ref}
}

// heldOutFactor times WorkloadSize further statements are drawn for the test
// workload, so a test score is a mean over hundreds of statements and its own
// sampling error is below the differences the tables are read for.
const heldOutFactor = 10

// loadDataset builds one of the named datasets. The training workload is the
// 70 % side of a split of WorkloadSize generated statements; the test workload
// is the other side plus the larger draw, less any statement already seen.
func loadDataset(name string, p Params, seed int64) *dataset {
	gen, newDB := workload.IMDB, datagen.IMDB
	switch name {
	case "MAS":
		gen, newDB = workload.MAS, datagen.MAS
	case "FLIGHTS":
		gen, newDB = workload.Flights, datagen.Flights
	}
	db, w := newDB(p.Scale, seed), gen(p.WorkloadSize, seed+100)
	train, test := w.Split(0.7, rand.New(rand.NewSource(seed+200)))
	seen := map[string]bool{}
	for _, q := range w {
		seen[q.SQL] = true
	}
	for _, q := range gen(p.WorkloadSize*heldOutFactor, seed+300) {
		if !seen[q.SQL] {
			seen[q.SQL] = true
			test = append(test, q)
		}
	}
	test.Normalize()
	obs.Logger().Info("dataset loaded",
		"dataset", name,
		"tables", len(db.TableNames()),
		"rows", db.TotalRows(),
		"train_queries", len(train),
		"test_queries", len(test),
		"k", p.K,
		"frame", p.F,
		"seed", seed)
	return &dataset{db: db, train: train, test: test, ref: metrics.NewReferenceCache(db)}
}

// queryAvg measures the mean execution time of up to n test queries on db.
func queryAvg(db *table.Database, w workload.Workload, n int) (time.Duration, error) {
	n = min(n, len(w))
	if n == 0 {
		return 0, nil
	}
	start := time.Now()
	for _, q := range w[:n] {
		if _, err := engine.ExecuteWith(db, q.Stmt, engine.Options{}); err != nil {
			return 0, fmt.Errorf("query %q: %w", q.SQL, err)
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// A method is one way of turning a dataset's training workload into an
// approximation database of p.K tuples: ASQP-RL under some configuration, a
// subset baseline, the VAE, a floor. A method with next continues: at every
// condition of a seed after the first, next is handed the method's own build
// at the previous condition instead of build starting over.
type method struct {
	name  string
	build func(ds *dataset, p Params, seed int64) (built, error)
	next  func(prev built, ds *dataset, p Params, seed int64) (built, error)
}

// built is what a method hands back: the approximation database, the learner
// that chose it (nil for the other methods), and for methods that preprocess,
// the share of the build spent executing queries.
type built struct {
	db         *table.Database
	sys        *core.System
	preprocess time.Duration
}

func builtOf(sys *core.System) built {
	return built{db: sys.SetDB(), sys: sys, preprocess: sys.Stats().PreprocessTime}
}

// trainOn trains ASQP-RL on w. A configuration that trains at another budget
// than k has its set rebuilt at k afterwards (Algorithm 2's req_size): one
// model serves every size.
func trainOn(ds *dataset, w workload.Workload, cfg core.Config, k int) (built, error) {
	sys, err := core.Train(ds.db, w, cfg)
	if err != nil {
		return built{}, err
	}
	if cfg.K != k {
		if _, err := sys.BuildSet(k); err != nil {
			return built{}, err
		}
	}
	return builtOf(sys), nil
}

// trained is ASQP-RL on the dataset's training workload under a variant of
// the run's configuration (nil: the configuration itself).
func trained(name string, variant func(*core.Config)) method {
	return method{name: name, build: func(ds *dataset, p Params, seed int64) (built, error) {
		cfg := p.asqpConfig(seed)
		if variant != nil {
			variant(&cfg)
		}
		return trainOn(ds, ds.train, cfg, p.K)
	}}
}

// light is the ASQP-Light variant: half the episodes on a fraction of the
// representatives, stopping early.
func light(cfg *core.Config) {
	l := core.LightConfig()
	cfg.TrainFraction = l.TrainFraction
	cfg.Episodes /= 2
	cfg.EarlyStopPatience = l.EarlyStopPatience
	cfg.RL.LR = l.RL.LR
}

// subsets are subset baselines under the run's budgets.
func subsets(bs ...baselines.Builder) []method {
	out := make([]method, len(bs))
	for i, b := range bs {
		out[i] = method{name: b.Name(), build: func(ds *dataset, p Params, seed int64) (built, error) {
			sub, err := b.Build(ds.db, ds.train, p.K, baselines.Options{F: p.F, Seed: seed, TimeBudget: p.BaselineBudget})
			if err != nil {
				return built{}, err
			}
			return built{db: sub.Materialize(ds.db)}, nil
		}}
	}
	return out
}

// frozen is m built at a seed's first condition and never adapted after.
func frozen(m method) method {
	m.next = func(prev built, _ *dataset, _ Params, _ int64) (built, error) { return prev, nil }
	return m
}

// vae is gAQP: p.K generated tuples, queried directly.
var vae = method{name: "VAE", build: func(ds *dataset, p Params, seed int64) (built, error) {
	gen, err := generative.GenerateDatabase(ds.db, p.K, generative.Options{Epochs: 12, BatchRows: 2000, Seed: seed})
	return built{db: gen}, err
}}

// floors are the two reference points a learned policy is read against. Both
// stand on the learner's own preprocessing — the same candidate pool, the same
// reward tracker — so neither measures anything but the policy.
var floors = []method{
	// What PPO must clear: a policy that picks uniformly among the valid
	// actions of the learner's own environment. Like System.rebuildSet it
	// keeps the best of eight rollouts by the environment's score.
	{name: "floor: random policy", build: func(ds *dataset, p Params, seed int64) (built, error) {
		cfg := p.asqpConfig(seed)
		pre, err := core.Preprocess(ds.db, ds.train, cfg)
		if err != nil {
			return built{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		var best *table.Subset
		bestScore := math.Inf(-1)
		for range 8 {
			env := core.NewEnvironment(pre, cfg, 0)
			_, mask := env.Reset()
			for done := false; !done; {
				var valid []int
				for a, ok := range mask {
					if ok {
						valid = append(valid, a)
					}
				}
				if len(valid) == 0 {
					break
				}
				_, mask, _, done = env.Step(valid[rng.Intn(len(valid))])
			}
			if score := env.Score(); score > bestScore {
				best, bestScore = env.Subset(), score
			}
		}
		return built{db: best.Materialize(ds.db)}, nil
	}},
	// What any policy could do with this pool: add, until the budget is full,
	// the candidate that raises the tracked score most.
	{name: "floor: greedy on pool", build: func(ds *dataset, p Params, seed int64) (built, error) {
		pre, err := core.Preprocess(ds.db, ds.train, p.asqpConfig(seed))
		if err != nil {
			return built{}, err
		}
		tr := pre.Cover.NewTracker()
		for tr.Size() < p.K {
			best, bestGain, base := -1, -1.0, tr.Score()
			for i, c := range pre.Candidates {
				grew := tr.Add(c.Rows) > 0
				gain := tr.Score() - base
				tr.Remove(c.Rows)
				if grew && gain > bestGain {
					best, bestGain = i, gain
				}
			}
			if best < 0 {
				break
			}
			tr.Add(pre.Candidates[best].Rows)
		}
		return built{db: tr.Subset().Materialize(ds.db)}, nil
	}},
}

// condition is one (dataset, sizing) an experiment evaluates its methods
// under: one (see on), or in a sweep or a sequence one per swept value or
// phase. The conditions of one experiment share Seed and Seeds.
type condition struct {
	point   string // the swept value's or the phase's label; else empty
	dataset string
	p       Params
	// phase, when set, derives the condition's view of the seed's dataset: the
	// same database and reference cache, its own training and test workloads.
	phase func(ds *dataset, seed int64) (*dataset, error)
	// probe, when set, measures something more of each build.
	probe func(ds *dataset, b built, s *Sample) error
}

// on is the named dataset at the run's own sizing.
func on(p Params, dataset string) []condition {
	return []condition{{dataset: dataset, p: p}}
}

// Sample is one method's result on one dataset under one seed.
type Sample struct {
	Dataset string
	Point   string // the swept value or the phase ("100" in Figure 8), else empty
	Method  string
	Seed    int64
	// Train and Test are the per-query terms of Equation 1 on the training
	// and the held-out workload.
	Train, Test []float64
	// Setup is the wall-clock of building the set, Preprocess the share of
	// it a learner spent executing representatives, QueryAvg the mean time
	// of a test query on the set.
	Setup, Preprocess, QueryAvg time.Duration
	// Diversity is the per-query answer diversity (the div experiment only).
	Diversity []float64
	// Predicted is the answerability estimator's prediction for each training
	// and then each test statement (Figure 5 only).
	Predicted []float64
}

// evaluate owns the package's seed loop. Per seed it loads each dataset once,
// for every condition with the same dataset, Scale and WorkloadSize, and hands
// the same value to every method, so the seeds of two methods are paired by
// construction; a method with next continues from its own build at the
// seed's previous condition.
func evaluate(conds []condition, methods []method) ([]Sample, error) {
	type sizing struct {
		dataset string
		scale   float64
		size    int
	}
	var out []Sample
	for i := 0; i < conds[0].p.Seeds; i++ {
		seed := conds[0].p.Seed + int64(i)*1000
		loaded := map[sizing]*dataset{}
		prev := make([]*built, len(methods))
		for _, c := range conds {
			key := sizing{c.dataset, c.p.Scale, c.p.WorkloadSize}
			ds := loaded[key]
			if ds == nil {
				ds = loadDataset(c.dataset, c.p, seed)
				loaded[key] = ds
			}
			if c.phase != nil {
				var err error
				if ds, err = c.phase(ds, seed); err != nil {
					return nil, fmt.Errorf("%s %s seed %d: %w", c.dataset, c.point, seed, err)
				}
			}
			for j, m := range methods {
				s, b, err := c.sample(ds, m, seed, prev[j])
				if err != nil {
					return nil, fmt.Errorf("%s on %s %s seed %d: %w", m.name, c.dataset, c.point, seed, err)
				}
				if m.next != nil {
					prev[j] = &b
				}
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// sample times one build, continued from prev when the method continues and
// there is one, and scores the set per query on the training and the
// held-out workload.
func (c condition) sample(ds *dataset, m method, seed int64, prev *built) (Sample, built, error) {
	s := Sample{Dataset: c.dataset, Point: c.point, Method: m.name, Seed: seed}
	start := time.Now()
	var b built
	var err error
	if prev != nil {
		b, err = m.next(*prev, ds, c.p, seed)
	} else {
		b, err = m.build(ds, c.p, seed)
	}
	if err != nil {
		return s, b, err
	}
	s.Setup, s.Preprocess = time.Since(start), b.preprocess
	if s.Train, err = metrics.PerQueryScoresWith(ds.db, b.db, ds.train, c.p.F, ds.scoreOpts(c.p)); err != nil {
		return s, b, err
	}
	if s.Test, err = metrics.PerQueryScoresWith(ds.db, b.db, ds.test, c.p.F, ds.scoreOpts(c.p)); err != nil {
		return s, b, err
	}
	if s.QueryAvg, err = queryAvg(b.db, ds.test, 10); err != nil {
		return s, b, err
	}
	if c.probe != nil {
		err = c.probe(ds, b, &s)
	}
	return s, b, err
}
