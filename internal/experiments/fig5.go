package experiments

import (
	"fmt"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/workload"
)

// Fig5Estimator regenerates Figure 5 and the "Answers Estimation Quality"
// discussion of Section 6.2: the answerability estimator's precision and
// recall on held-out queries as the training fraction shrinks, plus the
// full-system variants that fall back to the database below prediction
// thresholds 0.6 and 0.8, reporting the resulting score and per-query time.
func Fig5Estimator(p Params) (Result, error) {
	t := &Table{
		Title:  "Figure 5: answerability estimator quality vs training fraction (IMDB)",
		Header: []string{"TrainFraction", "Precision", "Recall"},
	}
	ds := loadDataset("IMDB", p, p.Seed)
	// The estimator's job is separating answerable from unanswerable
	// queries; evaluate it over a mix that contains both populations —
	// familiar (train) and unseen (test) queries.
	evalSet := workload.Merge(ds.train, ds.test)

	var fullSys *core.System
	for _, frac := range []float64{1.0, 0.75, 0.5} {
		cfg := p.asqpConfig(p.Seed)
		cfg.TrainFraction = frac
		sys, err := core.Train(ds.db, ds.train, cfg)
		if err != nil {
			return Result{}, err
		}
		if frac == 1.0 {
			fullSys = sys
		}
		// Ground truth: actual per-query score on the approximation set,
		// thresholded at 0.5 as in the paper.
		actualScores, err := metrics.PerQueryScoresWith(ds.db, sys.SetDB(), evalSet, p.F, ds.scoreOpts(p))
		if err != nil {
			return Result{}, err
		}
		actual := make([]bool, len(evalSet))
		predicted := make([]bool, len(evalSet))
		for i, q := range evalSet {
			actual[i] = actualScores[i] >= 0.5
			pred, _ := sys.Estimator().Estimate(q.Stmt)
			predicted[i] = pred >= 0.5
		}
		precision, recall := metrics.PrecisionRecall(predicted, actual)
		t.AddRow(Text(fmt.Sprintf("%.0f%%", frac*100)), Value(precision), Value(recall))
	}

	// Full-system fallback variants: a query predicted below the threshold
	// is answered exactly by the database, the rest by the set.
	t2 := &Table{
		Title:  "Section 6.2: full system with database fallback below prediction threshold (IMDB)",
		Header: []string{"FallbackThreshold", "Score", "QueryAvg"},
	}
	onSet, err := metrics.PerQueryScoresWith(ds.db, fullSys.SetDB(), ds.test, p.F, ds.scoreOpts(p))
	if err != nil {
		return Result{}, err
	}
	for _, thr := range []float64{0.0, 0.6, 0.8} {
		scores := make([]float64, len(ds.test))
		var times Durations
		for i, q := range ds.test {
			pred, _ := fullSys.Estimator().Estimate(q.Stmt)
			target, score := fullSys.SetDB(), onSet[i]
			if pred < thr {
				target, score = ds.db, 1
			}
			start := time.Now()
			if _, err := engine.ExecuteWith(target, q.Stmt, engine.Options{}); err != nil {
				return Result{}, err
			}
			times = append(times, time.Since(start))
			scores[i] = score
		}
		label := "none"
		if thr > 0 {
			label = fmt.Sprintf("%.1f", thr)
		}
		t2.AddRow(Text(label), Score{scores}, times)
	}
	return Result{Tables: []*Table{t, t2}}, nil
}
