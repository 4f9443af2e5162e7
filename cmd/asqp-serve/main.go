// Command asqp-serve runs the hardened ASQP-RL query service: an HTTP/JSON
// front door over a trained system, with admission control, load shedding, a
// circuit breaker around the full-database fallback, and graceful drain on
// SIGTERM/SIGINT.
//
// The server starts listening immediately — /healthz answers at once, while
// /readyz stays 503 until the system (loaded from a -load snapshot or trained
// from scratch) is attached. Queries then flow through:
//
//	POST /query   {"sql": "...", "timeout_ms": 500, "max_rows": 1000}
//	GET  /query?q=SELECT...&timeout_ms=500
//	GET  /stats, /healthz, /readyz, /qualityz, /retrainz
//
// Usage:
//
//	# Train on the synthetic IMDB dataset and serve:
//	asqp-serve -dataset imdb -scale 0.1 -k 500 -addr localhost:8080
//
//	# Serve a previously trained snapshot with tight limits:
//	asqp-serve -dataset imdb -load sys.bin -max-inflight 16 -queue 32 \
//	    -query-timeout 300ms -drain-timeout 5s -debug-addr localhost:6060
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/obs"
	"asqprl/internal/retrain"
	"asqprl/internal/server"
	"asqprl/internal/slo"
	"asqprl/internal/table"
	"asqprl/internal/wal"
	"asqprl/internal/workload"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "serve address")
	dataset := flag.String("dataset", "imdb", "built-in dataset: imdb, mas or flights")
	scale := flag.Float64("scale", 0.1, "synthetic dataset scale")
	dataDir := flag.String("data", "", "directory of CSV tables (alternative to -dataset)")
	workloadFile := flag.String("workload", "", "file with one SQL query per line (omit to generate)")
	k := flag.Int("k", 1000, "memory budget: tuples in the approximation set")
	frame := flag.Int("f", 50, "frame size F")
	light := flag.Bool("light", false, "use the ASQP-Light configuration")
	seed := flag.Int64("seed", 1, "random seed")
	loadFile := flag.String("load", "", "load a trained system snapshot instead of training")
	saveFile := flag.String("save", "", "save the trained system to this file (atomic rename)")
	maxInFlight := flag.Int("max-inflight", 0, "queries executing concurrently (0 = 2x CPUs)")
	queue := flag.Int("queue", 0, "admitted requests that may wait for a slot (0 = max-inflight)")
	queryTimeout := flag.Duration("query-timeout", 2*time.Second, "default per-query deadline")
	maxRows := flag.Int("max-rows", 0, "per-query result-row cap (0 = 100000)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight queries")
	breakerTrips := flag.Int("breaker-trips", 5, "consecutive full-DB guard trips that open the circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 500*time.Millisecond, "initial breaker open duration (doubles per failed probe)")
	parallelism := flag.Int("parallelism", 0, "workload-scoring workers for training, retraining and validation (0 = one per CPU, <0 = serial); query execution is serial at every setting")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /spans, /tracez and /debug/pprof on this address")
	logLevel := flag.String("log", "info", "structured log level on stderr (debug, info, warn, error, off)")
	traceDir := flag.String("trace-dir", "", "export tail-sampled traces as rotated JSONL files in this directory")
	traceSample := flag.Float64("trace-sample", 0.01, "fraction of healthy traces kept by the tail sampler (errors, degraded and slow traces are always kept)")
	traceSlow := flag.Duration("trace-slow", 500*time.Millisecond, "latency above which a trace counts as slow and is always kept")
	auditSample := flag.Float64("audit-sample", 0, "fraction of approx-served/degraded answers shadow-audited against the full database (0 = off)")
	auditWorkers := flag.Int("audit-workers", 1, "low-priority audit worker pool size")
	qualitySLOOld := flag.Float64("quality-slo-p95", 0, "deprecated alias for -slo-quality-p95")
	sloQuality := flag.Float64("slo-quality-p95", 0, "quality SLO: p95 relative-error target for shadow-audited answers; burn-rate alerting on the 0.95 objective (0 = off)")
	sloLatency := flag.Duration("slo-latency-p99", 0, "latency SLO: p99 request-latency target; burn-rate alerting on the 0.99 objective (0 = off)")
	sloAvail := flag.Float64("slo-availability", 0, "availability SLO objective in (0,1), e.g. 0.999: fraction of requests answered without degradation/error/shedding (0 = off)")
	sloWindows := flag.String("slo-windows", "", "burn-rate windows fast-short,fast-long,slow-short,slow-long (default 1m,5m,30m,6h)")
	diagDir := flag.String("diag-dir", "", "flight-recorder directory: capture a diagnostic bundle on SLO fast-burn or /debugz?capture=1 (empty = off)")
	diagMinInterval := flag.Duration("diag-min-interval", time.Minute, "rate limit between unforced flight-recorder captures")
	driftObserve := flag.Bool("drift-observe", true, "feed served queries into the interest-drift detector")
	driftConfidence := flag.Float64("drift-confidence", 0, "deviation confidence (1 - similarity) above which a served query counts as drifted (0 = config default)")
	driftCount := flag.Int("drift-count", 0, "drifted queries that trigger fine-tuning/retraining (0 = config default)")
	retrainOn := flag.Bool("retrain", false, "enable drift-triggered background retraining with validated hot-swap and rollback")
	retrainInterval := flag.Duration("retrain-interval", 2*time.Second, "how often the retrain controller polls the drift detector")
	retrainTimeout := flag.Duration("retrain-timeout", 5*time.Minute, "hard deadline for one retrain attempt (clone + fine-tune + validate)")
	retrainMargin := flag.Float64("retrain-validate-margin", 0.05, "how much worse the candidate may score than the incumbent and still swap in")
	retrainRollback := flag.Duration("retrain-rollback-window", 30*time.Second, "how long the old system is retained after a swap for automatic rollback")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: durably record served/drift/retrain events and replay them on startup (empty = durability off)")
	walSegBytes := flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation threshold in bytes")
	walNoGroup := flag.Bool("wal-no-group-commit", false, "fsync every durable WAL append individually instead of sharing group commits")
	flag.Parse()

	if *logLevel != "" && *logLevel != "off" {
		obs.EnableLogging(os.Stderr, obs.ParseLevel(*logLevel))
	}
	obs.SetEnabled(true)

	// -quality-slo-p95 is the pre-SLO-engine spelling; it keeps working but
	// -slo-quality-p95 wins when both are set.
	if *qualitySLOOld > 0 {
		fmt.Fprintln(os.Stderr, "asqp-serve: -quality-slo-p95 is deprecated; use -slo-quality-p95")
		if *sloQuality == 0 {
			*sloQuality = *qualitySLOOld
		}
	}
	windows, err := parseSLOWindows(*sloWindows)
	if err != nil {
		fatal(err)
	}

	// Process vitals (goroutines, heap, GC pauses, uptime) ride the same
	// registry as application metrics: windowed, scraped, bundled.
	runtimeSampler := obs.NewRuntimeSampler(obs.Default(), 10*time.Second)
	runtimeSampler.Start()
	defer runtimeSampler.Close()

	// Tracing is always configured for the serving binary: the tail sampler
	// keeps every error/degraded/slow trace in memory for /tracez, and
	// -trace-dir additionally persists them as rotated JSONL.
	var exporter *obs.JSONLExporter
	if *traceDir != "" {
		var err error
		exporter, err = obs.NewJSONLExporter(*traceDir, 0, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exporting traces to %s\n", exporter.Dir())
	}
	tracingCfg := obs.TracingConfig{
		SampleRate:    *traceSample,
		SlowThreshold: *traceSlow,
	}
	// Only set the sink when an exporter exists: assigning the nil
	// *JSONLExporter directly would store a typed-nil interface that passes
	// the sampler's != nil check and panic on the first kept trace.
	if exporter != nil {
		tracingCfg.Exporter = exporter
	}
	obs.ConfigureTracing(tracingCfg)

	var debug *obs.DebugServer
	if *debugAddr != "" {
		var err error
		debug, err = obs.StartDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug server on http://%s (/metrics, /spans, /tracez, /debug/pprof)\n", debug.Addr())
	}

	// Startup hygiene: a crash between SaveFile's temp-write and rename
	// leaves orphaned `<snapshot>.tmp-*` files that are never live data.
	if *saveFile != "" {
		if n := core.CleanSnapshotTemps(*saveFile); n > 0 {
			fmt.Printf("startup hygiene: removed %d orphaned snapshot temp file(s)\n", n)
		}
	}
	// Open the WAL before the server exists: Open performs the disk-side
	// recovery (torn-tail truncation, corrupt-frame skipping, stale-segment
	// removal) and hands back the tail to replay once the system is built.
	var (
		wlog *wal.Log
		wrec wal.Recovery
	)
	if *walDir != "" {
		var werr error
		wlog, wrec, werr = wal.Open(*walDir, wal.Options{
			SegmentBytes:       *walSegBytes,
			DisableGroupCommit: *walNoGroup,
		})
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("wal: %s (%d segments scanned, %d frames to replay, %d dropped, %d torn bytes truncated)\n",
			*walDir, wrec.Stats.Segments, wrec.Stats.FramesReplayed, wrec.Stats.FramesDropped, wrec.Stats.TruncatedBytes)
	}

	srv := server.New(nil, server.Config{
		Addr:            *addr,
		MaxInFlight:     *maxInFlight,
		QueueDepth:      *queue,
		DefaultTimeout:  *queryTimeout,
		MaxRows:         *maxRows,
		DrainTimeout:    *drainTimeout,
		BreakerTrips:    *breakerTrips,
		BreakerCooldown: *breakerCooldown,
		Seed:            *seed,
		AuditSample:     *auditSample,
		AuditWorkers:    *auditWorkers,
		QualitySLOP95:   *sloQuality,
		DriftObserve:    *driftObserve,
		SLOAvailability: *sloAvail,
		SLOLatencyP99:   *sloLatency,
		SLOQualityP95:   *sloQuality,
		SLOWindows:      windows,
		DiagDir:         *diagDir,
		DiagMinInterval: *diagMinInterval,
		Retrain: retrain.Config{
			Enabled:        *retrainOn,
			Interval:       *retrainInterval,
			Timeout:        *retrainTimeout,
			ValidateMargin: *retrainMargin,
			RollbackWindow: *retrainRollback,
			// With -save set, the retrained candidate replaces the snapshot via
			// the same atomic-rename path before every swap (and the incumbent
			// re-replaces it after a rollback), so a crash at any moment
			// restarts with a consistent, current approximation set.
			SnapshotPath: *saveFile,
			Seed:         *seed,
		},
		WAL: wlog,
	})
	if wlog != nil {
		// /readyz stays 503 "recovering" until the tail is replayed into the
		// freshly built system — a probe can never see a half-restored server.
		srv.BeginRecovery()
	}
	bound, err := srv.Start()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving on http://%s (/query, /healthz, /readyz, /stats, /qualityz, /retrainz, /sloz, /debugz); not ready until the system loads\n", bound)
	if *auditSample > 0 {
		fmt.Printf("shadow auditing %.0f%% of approx-served answers (workers=%d, slo-p95=%g)\n",
			*auditSample*100, *auditWorkers, *sloQuality)
	}
	if *sloAvail > 0 || *sloLatency > 0 || *sloQuality > 0 {
		fmt.Printf("slo engine armed (availability=%g, latency-p99=%s, quality-p95=%g)\n",
			*sloAvail, *sloLatency, *sloQuality)
	}
	if *diagDir != "" {
		fmt.Printf("flight recorder armed: bundles in %s on SLO fast-burn or /debugz?capture=1\n", *diagDir)
	}
	if *retrainOn {
		fmt.Printf("background retraining armed (margin=%g, attempt timeout=%s, rollback window=%s)\n",
			*retrainMargin, *retrainTimeout, *retrainRollback)
	}

	// Drain on SIGTERM/SIGINT: stop admitting, wait for in-flight queries up
	// to -drain-timeout, then cancel them. A second signal aborts the wait.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	sys, err := buildSystem(ctx, *dataset, *dataDir, *workloadFile, *loadFile, *scale, *seed, *k, *frame, *light, *parallelism, *driftConfidence, *driftCount)
	if err != nil {
		fatal(err)
	}
	// Apply detector overrides to a -load'ed system too: its detector came
	// from the snapshot's training-time config. (Train-path overrides are
	// baked into the config inside buildSystem, so clones made by the
	// retrain controller inherit them through the snapshot.)
	if d := sys.Drift(); d != nil {
		if *driftConfidence > 0 {
			d.Confidence = *driftConfidence
		}
		if *driftCount > 0 {
			d.Count = *driftCount
		}
	}
	if *saveFile != "" {
		if err := sys.SaveFile(*saveFile); err != nil {
			fatal(err)
		}
		fmt.Printf("saved system to %s\n", *saveFile)
	}
	if wlog != nil {
		info := srv.Recover(sys, wrec)
		fmt.Printf("recovered: %d frames replayed, %d drift observations restored, %d dropped\n",
			info.FramesReplayed, info.DriftRestored, info.FramesDropped)
		// With nothing replayed and a fresh snapshot on disk, the log's old
		// history is dead weight: checkpoint now so segments from previous
		// runs are pruned. With a replayed tail we must NOT checkpoint — the
		// restored drift evidence lives only in memory until a retrain
		// consumes it and persists, and truncating the log here would lose it
		// on the next crash.
		if len(wrec.Tail) == 0 && *saveFile != "" {
			_, gen := srv.System()
			if err := wlog.Checkpoint(gen); err != nil {
				fmt.Fprintln(os.Stderr, "asqp-serve: initial wal checkpoint:", err)
			}
		}
	} else {
		srv.SetSystem(sys)
	}
	fmt.Printf("ready: approximation set of %d tuples\n", sys.Set().Size())

	<-ctx.Done()
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Println("\nsignal received; draining...")
	if err := srv.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "asqp-serve: drain:", err)
	}
	// Traffic is drained; seal the WAL (flush + fsync + close) so a clean
	// shutdown leaves no torn tail for the next start to repair.
	if err := wlog.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "asqp-serve: wal close:", err)
	}
	if debug != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = debug.Shutdown(shutCtx)
	}
	// Stop sampling before closing the export file so no trace races the
	// close; writes are synchronous, so everything sampled so far is on disk.
	obs.DisableTracing()
	if exporter != nil {
		if err := exporter.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "asqp-serve: trace export:", err)
		}
	}
	fmt.Println("drained; bye")
}

// buildSystem loads a snapshot or trains from scratch, honoring cancellation.
func buildSystem(ctx context.Context, dataset, dataDir, workloadFile, loadFile string, scale float64, seed int64, k, frame int, light bool, parallelism int, driftConfidence float64, driftCount int) (*core.System, error) {
	db, err := loadDB(dataset, dataDir, scale, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("database: %d tables, %d tuples\n", len(db.TableNames()), db.TotalRows())
	if loadFile != "" {
		sys, err := core.LoadFile(db, loadFile)
		if err != nil {
			return nil, err
		}
		fmt.Printf("loaded system from %s\n", loadFile)
		return sys, nil
	}
	w, err := loadWorkload(workloadFile, db, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload: %d queries; training...\n", len(w))
	cfg := core.DefaultConfig()
	if light {
		cfg = core.LightConfig()
	}
	cfg.K = k
	cfg.F = frame
	cfg.Seed = seed
	cfg.Parallelism = parallelism
	if driftConfidence > 0 {
		cfg.DriftConfidence = driftConfidence
	}
	if driftCount > 0 {
		cfg.DriftCount = driftCount
	}
	start := time.Now()
	sys, err := core.TrainContext(ctx, db, w, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trained in %s\n", time.Since(start).Round(time.Millisecond))
	return sys, nil
}

func loadDB(dataset, dataDir string, scale float64, seed int64) (*table.Database, error) {
	switch {
	case dataDir != "":
		return table.ReadCSVDir(dataDir)
	case dataset == "imdb" || dataset == "":
		return datagen.IMDB(scale, seed), nil
	case dataset == "mas":
		return datagen.MAS(scale, seed), nil
	case dataset == "flights":
		return datagen.Flights(scale, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}

func loadWorkload(path string, db *table.Database, seed int64) (workload.Workload, error) {
	if path == "" {
		return core.GenerateWorkload(db, core.GenOptions{N: 30, Seed: seed})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sqls []string
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		sqls = append(sqls, line)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return workload.New(sqls...)
}

// parseSLOWindows parses "fast-short,fast-long,slow-short,slow-long" (e.g.
// "1m,5m,30m,6h"); empty keeps the engine defaults.
func parseSLOWindows(s string) (slo.Windows, error) {
	var w slo.Windows
	if s == "" {
		return w, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return w, fmt.Errorf("-slo-windows wants 4 comma-separated durations, got %q", s)
	}
	for i, dst := range []*time.Duration{&w.FastShort, &w.FastLong, &w.SlowShort, &w.SlowLong} {
		d, err := time.ParseDuration(strings.TrimSpace(parts[i]))
		if err != nil || d <= 0 {
			return w, fmt.Errorf("-slo-windows element %d (%q): need a positive duration", i+1, parts[i])
		}
		*dst = d
	}
	return w, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asqp-serve:", err)
	os.Exit(1)
}
