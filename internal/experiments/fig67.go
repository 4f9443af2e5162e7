package experiments

import (
	"fmt"
	"math/rand"

	"asqprl/internal/baselines"
	"asqprl/internal/cluster"
	"asqprl/internal/core"
	"asqprl/internal/embed"
	"asqprl/internal/metrics"
	"asqprl/internal/workload"
)

// Fig6NoWorkload regenerates Figure 6: the unknown-query-workload mode on
// FLIGHTS. The system starts from a statistics-generated workload; at each
// iteration the (simulated) user contributes five queries of their hidden
// interest, the system fine-tunes, and the quality on the user's interest is
// measured. RAN and QRD — which can run without a workload — are the static
// comparison lines.
func Fig6NoWorkload(p Params) (Result, error) {
	ds := loadDataset("FLIGHTS", p, p.Seed)
	// Hidden user interest: a narrow topic (heavily delayed long-haul
	// flights) the statistics-driven bootstrap cannot anticipate. The user
	// reveals interest queries five at a time; quality is measured on the
	// whole interest.
	interest := delayedFlightsInterest(p.Seed)

	// Bootstrap from generated queries only.
	genW, err := core.GenerateWorkload(ds.db, core.GenOptions{N: p.WorkloadSize, Seed: p.Seed})
	if err != nil {
		return Result{}, err
	}
	sys, err := core.Train(ds.db, genW, p.asqpConfig(p.Seed))
	if err != nil {
		return Result{}, err
	}

	// The static lines: RAN and QRD need no workload.
	var static []Cell
	for _, b := range []baselines.Builder{baselines.Random{}, baselines.QRD{}} {
		sub, err := b.Build(ds.db, nil, p.K, baselines.Options{F: p.F, Seed: p.Seed, TimeBudget: p.BaselineBudget})
		if err != nil {
			return Result{}, err
		}
		score, err := metrics.ScoreWith(ds.db, sub.Materialize(ds.db), interest, p.F, ds.scoreOpts(p))
		if err != nil {
			return Result{}, err
		}
		static = append(static, Value(score))
	}

	t := &Table{
		Title:  "Figure 6: unknown workload on FLIGHTS — quality per refinement iteration",
		Header: []string{"Iteration", "UserQueriesSeen", "ASQP-RL", "RAN", "QRD"},
	}
	const perStep = 5
	for iter := 0; iter*perStep <= len(interest); iter++ {
		seen := iter * perStep
		if iter > 0 {
			// The user's next five queries, with as many generated ones
			// aligned alongside (Section 4.5); fine-tune on both.
			aligned, err := core.GenerateWorkload(ds.db, core.GenOptions{N: perStep, Seed: p.Seed + int64(iter)})
			if err != nil {
				return Result{}, err
			}
			if err := sys.FineTune(workload.Merge(interest[seen-perStep:seen], aligned), p.Episodes/3); err != nil {
				return Result{}, err
			}
		}
		score, err := sys.ScoreOn(interest)
		if err != nil {
			return Result{}, err
		}
		t.AddRow(Count(iter), Count(seen), Value(score), static[0], static[1])
	}
	return Result{Tables: []*Table{t}}, nil
}

// delayedFlightsInterest generates the narrow "delayed long-haul" user
// interest for the unknown-workload experiment.
func delayedFlightsInterest(seed int64) workload.Workload {
	rng := rand.New(rand.NewSource(seed + 77))
	var sqls []string
	seen := map[string]bool{}
	for len(sqls) < 20 {
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

// Fig7Drift regenerates Figure 7: the workload is clustered into three
// interest clusters over query embeddings; the system trains on the first,
// then each new cluster arrives as drifted user queries and fine-tuning is
// triggered, with quality on the active cluster measured before and after.
func Fig7Drift(p Params) (Result, error) {
	ds := loadDataset("IMDB", p, p.Seed)
	all := workload.Merge(ds.train, ds.test)

	// Cluster the embedded queries into three interests.
	emb := embed.Embedder{}
	vecs := make([][]float64, len(all))
	for i, q := range all {
		vecs[i] = emb.Query(q.Stmt)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	res := cluster.KMeans(vecs, 3, 30, rng)
	clusters := make([]workload.Workload, 3)
	for i, q := range all {
		c := res.Assignments[i]
		clusters[c] = append(clusters[c], q)
	}
	for i := range clusters {
		if len(clusters[i]) == 0 {
			return Result{}, fmt.Errorf("fig7: cluster %d empty; increase workload size", i)
		}
		clusters[i].Normalize()
	}

	// Split each cluster into train/test.
	type split struct{ train, test workload.Workload }
	splits := make([]split, 3)
	for i := range clusters {
		tr, te := clusters[i].Split(0.7, rng)
		if len(te) == 0 {
			te = tr
		}
		splits[i] = split{tr, te}
	}

	sys, err := core.Train(ds.db, splits[0].train, p.asqpConfig(p.Seed))
	if err != nil {
		return Result{}, err
	}

	t := &Table{
		Title:  "Figure 7: interest drift and fine-tuning (IMDB, 3 workload clusters)",
		Header: []string{"Phase", "ActiveCluster", "ScoreBeforeFineTune", "ScoreAfterFineTune"},
	}
	s0, err := sys.ScoreOn(splits[0].test)
	if err != nil {
		return Result{}, err
	}
	t.AddRow(Count(0), Count(1), Value(s0), Text("-"))

	for phase := 1; phase <= 2; phase++ {
		sp := splits[phase]
		before, err := sys.ScoreOn(sp.test)
		if err != nil {
			return Result{}, err
		}
		// Fine-tuning is "tailored to the specific characteristics" of the
		// drifted queries (Section 4.4): they receive double weight in the
		// merged workload, and a full training budget re-aligns the policy.
		boosted := workloadCopy(sp.train)
		for i := range boosted {
			boosted[i].Weight *= 2
		}
		if err := sys.FineTune(boosted, p.Episodes); err != nil {
			return Result{}, err
		}
		after, err := sys.ScoreOn(sp.test)
		if err != nil {
			return Result{}, err
		}
		t.AddRow(Count(phase), Count(phase+1), Value(before), Value(after))
	}
	return Result{Tables: []*Table{t}}, nil
}
