package experiments

import (
	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/generative"
	"asqprl/internal/metrics"
	"asqprl/internal/spn"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// aggCategory buckets a query as in Figure 12: G+SUM, SUM, G+AVG, AVG,
// G+CNT, CNT.
func aggCategory(stmt *sqlparse.Select) string {
	var fn string
	for _, it := range stmt.Items {
		sqlparse.Walk(it.Expr, func(e sqlparse.Expr) {
			if c, ok := e.(*sqlparse.Call); ok && fn == "" {
				fn = c.Name
			}
		})
	}
	short := map[string]string{"COUNT": "CNT", "SUM": "SUM", "AVG": "AVG"}[fn]
	if short == "" {
		short = fn
	}
	if len(stmt.GroupBy) > 0 {
		return "G+" + short
	}
	return short
}

// Fig12Aggregates regenerates Figure 12: relative error per aggregate
// operator category on FLIGHTS for ASQP-RL (aggregates over the
// approximation set, scaled), the VAE (gAQP: aggregates over generated
// tuples, scaled) and the SPN (DeepDB: model-based estimation). Memory is 1%
// of the data, as in Section 6.4.
func Fig12Aggregates(p Params) (Result, error) {
	db := loadDataset("FLIGHTS", p, p.Seed).db
	flights := db.Table("flights")
	// 1% memory as in Section 6.4, floored at 400 tuples: the paper's 1%
	// of their FLIGHTS data is thousands of rows, and no sampling-based
	// method is meaningful from a few dozen tuples.
	k := max(400, flights.NumRows()/100)
	aggW := workload.FlightsAggregates(p.WorkloadSize*2, p.Seed+300)
	train := aggW[:len(aggW)/2]
	test := aggW[len(aggW)/2:]
	train.Normalize()
	test.Normalize()

	// ASQP-RL trained on the SPJ rewrites of the aggregate training set.
	cfg := p.asqpConfig(p.Seed)
	cfg.K = k
	sys, err := core.Train(db, train, cfg)
	if err != nil {
		return Result{}, err
	}

	// VAE with a 1% generation budget.
	gen, err := generative.GenerateDatabase(db, k, generative.Options{
		Epochs: 15, BatchRows: 3000, Seed: p.Seed,
	})
	if err != nil {
		return Result{}, err
	}

	// SPN over the fact table.
	model, err := spn.Learn(flights, spn.Options{Seed: p.Seed})
	if err != nil {
		return Result{}, err
	}

	// scaled answers on a sample database with core's COUNT/SUM scale-up.
	// ASQP-RL answers from the set itself, never through the estimator's
	// routing: the figure measures the set.
	scaled := func(sample *table.Database) func(*sqlparse.Select) (map[string]float64, error) {
		return func(stmt *sqlparse.Select) (map[string]float64, error) {
			res, err := engine.ExecuteWith(sample, stmt, engine.Options{})
			if err != nil {
				return nil, err
			}
			out := res.Table.GroupValues(len(stmt.GroupBy) > 0)
			core.ScaleAggregate(db, sample, stmt, out)
			return out, nil
		}
	}
	estimators := []struct {
		name     string
		estimate func(*sqlparse.Select) (map[string]float64, error)
	}{
		{"ASQP-RL", scaled(sys.SetDB())},
		{"VAE (gAQP)", scaled(gen)},
		{"SPN (DeepDB)", func(stmt *sqlparse.Select) (map[string]float64, error) { return model.Estimate(stmt) }},
	}
	// Relative errors per operator category and estimator; a query an
	// estimator cannot answer counts as error 1.
	errs := map[string][][]float64{}
	for _, q := range test {
		truth, err := sys.ExactAggregate(q.Stmt)
		if err != nil {
			return Result{}, err
		}
		if len(truth) == 0 {
			continue
		}
		cat := aggCategory(q.Stmt)
		if errs[cat] == nil {
			errs[cat] = make([][]float64, len(estimators))
		}
		for i, e := range estimators {
			relErr := 1.0
			if est, err := e.estimate(q.Stmt); err == nil {
				relErr = metrics.GroupRelativeError(est, truth)
			}
			errs[cat][i] = append(errs[cat][i], relErr)
		}
	}

	t := &Table{
		Title:  "Figure 12: aggregate relative error by operator (FLIGHTS, 1% memory)",
		Header: []string{"Operator"},
	}
	for _, e := range estimators {
		t.Header = append(t.Header, e.name)
	}
	for _, cat := range []string{"G+SUM", "SUM", "G+AVG", "AVG", "G+CNT", "CNT"} {
		row := []Cell{Text(cat)}
		for i := range estimators {
			if errs[cat] == nil {
				row = append(row, Text("-"))
			} else {
				row = append(row, Score{errs[cat][i]})
			}
		}
		t.AddRow(row...)
	}
	return Result{Tables: []*Table{t}}, nil
}
