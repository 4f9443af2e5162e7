package experiments

import (
	"fmt"
	"time"

	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/workload"
)

// Fig4ProblemJustification regenerates Figure 4: the motivation experiment
// showing how the cumulative average time of answering exploratory queries
// directly on the database grows with database size. The IMDB database is
// blown up by increasing factors and the workload replayed against each.
func Fig4ProblemJustification(p Params) (Result, error) {
	base := datagen.IMDB(p.Scale, p.Seed)
	w := workload.IMDB(min(10, p.WorkloadSize), p.Seed+100)
	t := &Table{
		Title:  "Figure 4: cumulative average direct-query time vs database size",
		Header: []string{"BlowupFactor", "Rows", "Queries", "CumAvgPerQuery"},
	}
	for _, f := range []int{1, 2, 4, 8} {
		db := datagen.Blowup(base, f)
		var times Durations
		for _, q := range w {
			start := time.Now()
			if _, err := engine.ExecuteWith(db, q.Stmt, engine.Options{MaxIntermediateRows: 20_000_000}); err != nil {
				return Result{}, fmt.Errorf("fig4: query %q at factor %d: %w", q.SQL, f, err)
			}
			times = append(times, time.Since(start))
		}
		t.AddRow(Text(fmt.Sprintf("x%d", f)), Count(db.TotalRows()), Count(len(w)), times)
	}
	return Result{Tables: []*Table{t}}, nil
}
