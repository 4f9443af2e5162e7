// Aggregate queries over the approximation set (Section 6.4): although
// ASQP-RL targets non-aggregate queries, aggregates computed over the set —
// with the standard COUNT/SUM sample scale-up — come surprisingly close to
// exact answers, competitive with dedicated AQP models (see the fig12
// experiment for the full comparison against the VAE and SPN substitutes).
//
//	go run ./examples/aggregates
package main

import (
	"fmt"
	"log"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/metrics"
	"asqprl/internal/sqlparse"
	"asqprl/internal/workload"
)

func main() {
	db := datagen.Flights(0.2, 4)
	flights := db.Table("flights").NumRows()

	// Train on aggregate queries — the pipeline rewrites them to SPJ form.
	train := workload.FlightsAggregates(20, 6)
	cfg := core.DefaultConfig()
	cfg.K = flights / 50 // 2% memory
	cfg.Episodes = 36
	sys, err := core.Train(db, train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ratio := float64(flights) / float64(sys.SetDB().Table("flights").NumRows())
	fmt.Printf("FLIGHTS: %d rows; approximation set keeps %d (scale-up factor %.1f)\n\n",
		flights, sys.SetDB().Table("flights").NumRows(), ratio)

	queries := []string{
		"SELECT COUNT(*) FROM flights WHERE dep_delay > 30",
		"SELECT AVG(dep_delay) FROM flights WHERE carrier = 'AA'",
		"SELECT SUM(distance) FROM flights WHERE month = 7",
		"SELECT carrier, COUNT(*) FROM flights WHERE dep_delay > 20 GROUP BY carrier",
	}
	for _, q := range queries {
		stmt := sqlparse.MustParse(q)
		// The public API: QueryAggregate answers through the same
		// degradation ladder as every other query and applies the COUNT/SUM
		// sample scale-up when the approximation set answered.
		approx, err := sys.QueryAggregate(q)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := sys.ExactAggregate(stmt)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("> %s\n", q)
		source := "approximation set"
		if !approx.FromApproximation {
			source = "full database (estimator fallback; exact)"
		}
		if len(stmt.GroupBy) == 0 {
			fmt.Printf("  exact %.1f, approximate %.1f (relative error %.3f, scale x%.1f, %s)\n\n",
				truth[""], approx.Values[""],
				metrics.RelativeError(approx.Values[""], truth[""]),
				approx.ScaleFactor, source)
			continue
		}
		fmt.Printf("  %d exact groups, %d approximated; group relative error %.3f (%s)\n\n",
			len(truth), len(approx.Values),
			metrics.GroupRelativeError(approx.Values, truth), source)
	}
}
