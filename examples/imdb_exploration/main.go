// IMDB exploration session: reproduces the paper's motivating scenario — an
// analyst iteratively explores a movie database with complex SPJ queries,
// comparing direct execution on the full database against the ASQP-RL
// approximation set, and comparing result quality against random sampling.
//
//	go run ./examples/imdb_exploration
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"asqprl/internal/baselines"
	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/workload"
)

func main() {
	db := datagen.IMDB(0.25, 7)
	fmt.Printf("IMDB-shaped database: %d tuples\n", db.TotalRows())

	// A 30-query exploration history; 70% trains the system, 30% simulates
	// the analyst's future session.
	history := workload.IMDB(30, 11)
	rng := rand.New(rand.NewSource(3))
	train, future := history.Split(0.7, rng)

	cfg := core.DefaultConfig()
	cfg.K = 800
	cfg.Episodes = 48
	start := time.Now()
	sys, err := core.Train(db, train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline training: %s → %d-tuple approximation set\n",
		time.Since(start).Round(time.Millisecond), sys.Set().Size())

	// Random baseline of the same size for comparison.
	ranSub, err := (baselines.Random{}).Build(db, train, sys.Set().Size(), baselines.Options{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	ranDB := ranSub.Materialize(db)

	fmt.Println("\nfuture exploration session (held-out queries):")
	fmt.Printf("%-74s %10s %10s %8s\n", "query", "full-time", "approx-t", "coverage")
	var asqpScores, ranScores []float64
	for _, q := range future {
		fullStart := time.Now()
		fullRes, err := engine.ExecuteWith(db, q.Stmt, engine.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fullTime := time.Since(fullStart)

		apStart := time.Now()
		res, err := engine.ExecuteWith(sys.SetDB(), q.Stmt, engine.Options{})
		if err != nil {
			log.Fatal(err)
		}
		apTime := time.Since(apStart)

		one := workload.Workload{q}
		one.Normalize()
		s, _ := metrics.PerQueryScores(db, sys.SetDB(), one, cfg.F)
		r, _ := metrics.PerQueryScores(db, ranDB, one, cfg.F)
		asqpScores = append(asqpScores, s[0])
		ranScores = append(ranScores, r[0])

		sql := q.SQL
		if len(sql) > 72 {
			sql = sql[:69] + "..."
		}
		fmt.Printf("%-74s %10s %10s %7.0f%%\n", sql,
			fullTime.Round(time.Microsecond), apTime.Round(time.Microsecond), s[0]*100)
		_ = fullRes
		_ = res
	}
	fmt.Printf("\nmean coverage of future queries: ASQP-RL %.1f%%, random sample %.1f%%\n",
		100*metrics.Mean(asqpScores), 100*metrics.Mean(ranScores))
}
