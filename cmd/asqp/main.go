// Command asqp is the end-to-end ASQP-RL tool: it loads a database (CSV
// files or a built-in synthetic dataset), trains an approximation set from a
// workload file (or a generated workload), and then answers queries against
// it — falling back to the full database when the answerability estimator
// says the approximation set cannot serve a query.
//
// Usage:
//
//	# Train on the synthetic IMDB dataset with a generated workload and
//	# answer two queries:
//	asqp -dataset imdb -scale 0.1 -k 500 \
//	     -query "SELECT * FROM title WHERE genre = 'drama' AND rating > 7" \
//	     -query "SELECT name FROM name WHERE birth_year > 1990"
//
//	# Load CSVs from a directory and a workload file (one query per line):
//	asqp -data ./data -workload queries.sql -k 1000 -query "..."
//
//	# Observability: serve metrics, kept traces and pprof while training and
//	# emit structured logs (see the Observability section of README.md):
//	asqp -dataset imdb -debug-addr localhost:6060 -log info -query "..."
//
//	# Robustness: bound training time and per-query cost; queries that trip
//	# a guard return a typed error or a result marked "degraded":
//	asqp -dataset imdb -train-timeout 2m -query-timeout 500ms -max-rows 10000 \
//	     -query "SELECT * FROM title t JOIN cast_info c ON t.id = c.title_id"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/obs"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

type queryList []string

func (q *queryList) String() string { return strings.Join(*q, "; ") }

func (q *queryList) Set(v string) error {
	*q = append(*q, v)
	return nil
}

func main() {
	dataset := flag.String("dataset", "imdb", "built-in dataset: imdb, mas or flights")
	scale := flag.Float64("scale", 0.1, "synthetic dataset scale")
	dataDir := flag.String("data", "", "directory of CSV tables (alternative to -dataset)")
	workloadFile := flag.String("workload", "", "file with one SQL query per line (omit to generate)")
	k := flag.Int("k", 1000, "memory budget: tuples in the approximation set")
	frame := flag.Int("f", 50, "frame size F")
	episodes := flag.Int("episodes", 0, "RL training episodes (0 = default)")
	light := flag.Bool("light", false, "use the ASQP-Light configuration")
	seed := flag.Int64("seed", 1, "random seed")
	saveFile := flag.String("save", "", "save the trained system to this file")
	loadFile := flag.String("load", "", "load a previously saved system instead of training")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /tracez and /debug/pprof on this address (e.g. localhost:6060); also enables metric and span recording")
	logLevel := flag.String("log", "", "emit structured logs to stderr at this level (debug, info, warn, error)")
	trainTimeout := flag.Duration("train-timeout", 0, "wall-clock bound on training; on expiry the partially trained system is still used (0 = none)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline; an expired query returns a deadline error (0 = none)")
	maxRows := flag.Int("max-rows", 0, "per-query result-row budget; on a trip the partial rows are returned marked degraded (0 = unlimited)")
	traceDir := flag.String("trace-dir", "", "export tail-sampled query traces as rotated JSONL files in this directory (also enables tracing)")
	traceSlow := flag.Duration("trace-slow", 500*time.Millisecond, "latency above which a trace counts as slow and is always kept")
	var queries queryList
	flag.Var(&queries, "query", "query to answer after training (repeatable)")
	flag.Parse()

	if *logLevel != "" {
		obs.EnableLogging(os.Stderr, obs.ParseLevel(*logLevel))
	}
	if *debugAddr != "" {
		debug, err := obs.StartDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug server on http://%s (/metrics, /tracez, /debug/pprof)\n", debug.Addr())
	}
	if *debugAddr != "" || *traceDir != "" {
		// Batch CLI traces are few and all interesting: keep everything.
		tracing := obs.TracingConfig{SampleRate: 1, SlowThreshold: *traceSlow}
		if *traceDir != "" {
			exporter, err := obs.NewJSONLExporter(*traceDir)
			if err != nil {
				fatal(err)
			}
			tracing.Exporter = exporter
			defer func() {
				obs.DisableTracing()
				if err := exporter.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "asqp: trace export:", err)
				}
			}()
		}
		obs.ConfigureTracing(tracing)
	}

	var db *table.Database
	var err error
	if *dataDir != "" {
		db, err = table.ReadCSVDir(*dataDir)
	} else {
		db, err = datagen.ByName(*dataset, *scale, *seed)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("database: %d tables, %d tuples\n", len(db.TableNames()), db.TotalRows())

	var sys *core.System
	if *loadFile != "" {
		sys, err = core.LoadFile(db, *loadFile)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded system from %s: approximation set of %d tuples\n",
			*loadFile, sys.Set().Size())
	} else {
		var w workload.Workload
		if *workloadFile != "" {
			w, err = workload.ReadFile(*workloadFile)
		} else {
			// No workload given: generate one from database statistics
			// (Section 4.5 of the paper).
			w, err = core.GenerateWorkload(db, core.GenOptions{N: 30, Seed: *seed})
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload: %d queries\n", len(w))

		cfg := core.DefaultConfig()
		if *light {
			cfg = core.LightConfig()
		}
		cfg.K = *k
		cfg.F = *frame
		cfg.Seed = *seed
		if *episodes > 0 {
			cfg.Episodes = *episodes
		}

		ctx := context.Background()
		if *trainTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *trainTimeout)
			defer cancel()
		}
		start := time.Now()
		sys, err = core.TrainContext(ctx, db, w, cfg)
		if err != nil {
			fatal(err)
		}
		stats := sys.Stats()
		ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
		fmt.Printf("trained in %s (preprocess %s, RL %s = collect %s + update %s, build set %s, estimator %s): approximation set of %d tuples, %d representatives, %d actions\n",
			ms(time.Since(start)), ms(stats.PreprocessTime), ms(stats.TrainTime),
			ms(stats.RL.CollectTime), ms(stats.RL.UpdateTime), ms(stats.BuildSetTime), ms(stats.EstimatorTime),
			stats.SetSize, stats.Representatives, stats.Candidates)
		if stats.RL.Canceled {
			fmt.Println("note: training stopped at the -train-timeout; the set was built from the partially trained agent")
		}
		if stats.RL.Recoveries > 0 {
			fmt.Printf("note: the divergence watchdog rolled training back %d time(s)\n", stats.RL.Recoveries)
		}

		if trainScore, err := sys.ScoreOn(w); err == nil {
			fmt.Printf("training-workload score: %.3f\n", trainScore)
		}
	}

	if *saveFile != "" {
		// Atomic: a crash mid-save leaves any previous snapshot intact.
		if err := sys.SaveFile(*saveFile); err != nil {
			fatal(err)
		}
		fmt.Printf("saved system to %s\n", *saveFile)
	}

	qopts := core.QueryOptions{Timeout: *queryTimeout, MaxRows: *maxRows}
	for _, q := range queries {
		fmt.Printf("\n> %s\n", q)
		start := time.Now()
		res, err := sys.QueryContext(context.Background(), q, qopts)
		if err != nil {
			fmt.Printf("  error: %v\n", err)
			continue
		}
		source := "approximation set"
		if !res.FromApproximation {
			source = "full database (estimator fallback)"
		}
		if res.Degraded {
			source += fmt.Sprintf(" [degraded: %s]", res.DegradedReason)
		}
		fmt.Printf("  %d rows in %s from %s (predicted score %.2f, confidence %.2f)\n",
			res.Table.NumRows(), time.Since(start).Round(time.Microsecond), source,
			res.PredictedScore, res.Confidence)
		limit := 5
		if res.Table.NumRows() < limit {
			limit = res.Table.NumRows()
		}
		for i := 0; i < limit; i++ {
			cells := make([]string, len(res.Table.Rows[i]))
			for j, v := range res.Table.Rows[i] {
				cells[j] = v.String()
			}
			fmt.Printf("  | %s\n", strings.Join(cells, " | "))
		}
		if res.Table.NumRows() > limit {
			fmt.Printf("  ... (%d more rows)\n", res.Table.NumRows()-limit)
		}
		if res.DriftTriggered {
			fmt.Println("  [interest drift detected — consider fine-tuning]")
		}
	}

	if *debugAddr != "" {
		fmt.Println("\ndebug server still running; press Ctrl-C to exit")
		select {}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asqp:", err)
	os.Exit(1)
}
