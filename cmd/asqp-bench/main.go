// Command asqp-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	asqp-bench -run fig2            # one experiment at full sizing
//	asqp-bench -run all -fast      # every experiment at smoke sizing
//	asqp-bench -list               # list experiment ids
//
// Experiment ids map to the paper's artifacts; see DESIGN.md for the
// per-experiment index.
//
// Observability: -debug-addr serves /metrics, /tracez and /debug/pprof while
// experiments run, and -timing-json writes a machine-readable artifact with
// per-experiment wall-clock, the metrics registry snapshot (per-phase
// latency histograms, RL learning curves), and the kept traces' span trees
// (the most recent 128) — the perf trajectory future optimization PRs diff
// against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"asqprl/internal/experiments"
	"asqprl/internal/obs"
)

// timingArtifact is the JSON document written by -timing-json.
type timingArtifact struct {
	GeneratedAt time.Time          `json:"generated_at"`
	Fast        bool               `json:"fast"`
	Params      experiments.Params `json:"params"`
	Experiments []experimentTiming `json:"experiments"`
	Metrics     obs.Snapshot       `json:"metrics"`
	Spans       []obs.SpanSnapshot `json:"spans"`
}

type experimentTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

func main() {
	run := flag.String("run", "", "experiment id to run (or 'all')")
	list := flag.Bool("list", false, "list available experiments")
	fast := flag.Bool("fast", false, "use smoke-test sizing instead of full sizing")
	scale := flag.Float64("scale", 0, "override dataset scale factor")
	seeds := flag.Int("seeds", 0, "override repetition count")
	seed := flag.Int64("seed", 0, "override base random seed")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /tracez and /debug/pprof on this address while experiments run")
	timingJSON := flag.String("timing-json", "", "write a per-phase timing artifact (durations, metrics snapshot, span trees) to this file")
	parallelism := flag.Int("parallelism", 0, "worker count for workload scoring (0 = one per CPU, <0 = serial; query execution is serial); recorded in -timing-json, results are identical for every setting")
	logLevel := flag.String("log", "", "emit structured logs to stderr at this level (debug, info, warn, error)")
	expTimeout := flag.Duration("train-timeout", 0, "watchdog: abort with a diagnostic if any single experiment exceeds this wall-clock bound (0 = none)")
	flag.Parse()

	if *logLevel != "" {
		obs.EnableLogging(os.Stderr, obs.ParseLevel(*logLevel))
	}
	if *debugAddr != "" {
		debug, err := obs.StartDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("debug server on http://%s (/metrics, /tracez, /debug/pprof)\n", debug.Addr())
	}
	if *debugAddr != "" || *timingJSON != "" {
		// The artifact and /tracez want every span tree, and metrics with or
		// without a debug server.
		obs.ConfigureTracing(obs.TracingConfig{SampleRate: 1})
	}

	if *list || *run == "" {
		fmt.Println("Available experiments:")
		for _, r := range experiments.Registry() {
			fmt.Printf("  %-10s %s\n", r.ID, r.Description)
		}
		if *run == "" {
			fmt.Println("\nRun with: asqp-bench -run <id> [-fast]")
		}
		return
	}

	params := experiments.Full()
	if *fast {
		params = experiments.Fast()
	}
	if *scale > 0 {
		params.Scale = *scale
	}
	if *seeds > 0 {
		params.Seeds = *seeds
	}
	if *seed != 0 {
		params.Seed = *seed
	}
	params.Parallelism = *parallelism

	var runners []experiments.Runner
	if *run == "all" {
		runners = experiments.Registry()
	} else {
		r, err := experiments.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runners = []experiments.Runner{r}
	}

	var timings []experimentTiming
	for _, r := range runners {
		fmt.Printf("# %s — %s\n", r.ID, r.Description)
		start := time.Now()
		// The experiment runners take no context, so the timeout is a
		// watchdog: a run that exceeds it fails loudly with the experiment
		// named, instead of hanging a CI job until its global kill.
		var watchdog *time.Timer
		if *expTimeout > 0 {
			id := r.ID
			watchdog = time.AfterFunc(*expTimeout, func() {
				fmt.Fprintf(os.Stderr, "asqp-bench: experiment %s exceeded -train-timeout %s\n", id, *expTimeout)
				os.Exit(2)
			})
		}
		tables, err := r.Run(params)
		if watchdog != nil {
			watchdog.Stop()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println()
			t.Render(os.Stdout)
		}
		elapsed := time.Since(start)
		timings = append(timings, experimentTiming{ID: r.ID, Seconds: elapsed.Seconds()})
		fmt.Printf("\n(%s completed in %s)\n\n", r.ID, elapsed.Round(time.Millisecond))
	}

	if *timingJSON != "" {
		if err := writeTimingArtifact(*timingJSON, *fast, params, timings); err != nil {
			fmt.Fprintln(os.Stderr, "asqp-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("timing artifact written to %s\n", *timingJSON)
	}
}

// writeTimingArtifact dumps experiment durations plus the observability
// state (metrics snapshot, span trees) as indented JSON.
func writeTimingArtifact(path string, fast bool, params experiments.Params, timings []experimentTiming) error {
	art := timingArtifact{
		GeneratedAt: time.Now().UTC(),
		Fast:        fast,
		Params:      params,
		Experiments: timings,
		Metrics:     obs.Default().Snapshot(),
	}
	for _, rec := range obs.KeptTraces() {
		art.Spans = append(art.Spans, rec.Root)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
