// Command asqp-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	asqp-bench -run fig2                       # one experiment at full sizing
//	asqp-bench -run all -fast                  # every experiment at smoke sizing
//	asqp-bench -run all -md EXPERIMENTS.md     # ... and rewrite the tables in the document
//	asqp-bench -list                           # list experiment ids
//
// Experiment ids map to the paper's artifacts; see DESIGN.md for the
// per-experiment index. -md replaces what stands between the
// "<!-- <id>:begin -->" and "<!-- <id>:end -->" markers of each experiment
// run and touches nothing else in the file.
//
// Observability: -debug-addr serves /metrics, /tracez and /debug/pprof while
// experiments run.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"asqprl/internal/experiments"
	"asqprl/internal/obs"
)

func main() {
	run := flag.String("run", "", "experiment id to run (or 'all')")
	list := flag.Bool("list", false, "list available experiments")
	fast := flag.Bool("fast", false, "use smoke-test sizing instead of full sizing")
	scale := flag.Float64("scale", 0, "override dataset scale factor")
	seeds := flag.Int("seeds", 0, "override repetition count")
	seed := flag.Int64("seed", 0, "override base random seed")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /tracez and /debug/pprof on this address while experiments run")
	md := flag.String("md", "", "rewrite each experiment's tables in this Markdown file, between its <!-- <id>:begin --> and <!-- <id>:end --> markers")
	parallelism := flag.Int("parallelism", 0, "worker count for workload scoring (0 = one per CPU, <0 = serial; query execution is serial); results are identical for every setting")
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
		// /tracez wants every span tree.
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

	for _, r := range runners {
		fmt.Printf("# %s — %s\n", r.ID, r.Description)
		start := time.Now()
		// The experiment runners take no context, so the timeout is a
		// watchdog: a run that exceeds it fails loudly with the experiment
		// named, instead of hanging a CI job until its global kill.
		var watchdog *time.Timer
		if *expTimeout > 0 {
			watchdog = time.AfterFunc(*expTimeout, func() {
				fmt.Fprintf(os.Stderr, "asqp-bench: experiment %s exceeded -train-timeout %s\n", r.ID, *expTimeout)
				os.Exit(2)
			})
		}
		res, err := r.Run(params)
		if watchdog != nil {
			watchdog.Stop()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		// Render once: a score cell's bootstrap runs when it is printed.
		var rendered bytes.Buffer
		for i, t := range res.Tables {
			if i > 0 {
				rendered.WriteString("\n")
			}
			t.Render(&rendered)
		}
		fmt.Printf("\n%s", rendered.Bytes())
		if *md != "" {
			if err := experiments.WriteMarkdown(*md, r.ID, rendered.Bytes()); err != nil {
				fmt.Fprintln(os.Stderr, "asqp-bench:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("\n(%s completed in %s)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
