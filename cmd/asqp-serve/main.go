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
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/obs"
	"asqprl/internal/server"
	"asqprl/internal/table"
	"asqprl/internal/wal"
	"asqprl/internal/workload"
)

// options is everything the flags configure. Each flag is registered onto
// the field of the struct that consumes it — server.Config,
// obs.TracingConfig, buildInputs — with that field's value as its default, so
// a default is written where its owner applies it and -h prints it.
type options struct {
	server  server.Config
	tracing obs.TracingConfig
	build   buildInputs

	walDir, traceDir, debugAddr, logLevel string
}

// buildInputs is what loading or training the system needs: where the data
// and workload come from, and the core.Config fields the binary exposes.
type buildInputs struct {
	dataset, dataDir       string
	workloadFile, loadFile string
	scale                  float64
	seed                   int64
	k, frame               int
	light                  bool
	// Detector overrides (0 = the config's own).
	driftConfidence float64
	driftCount      int
}

func defaultOptions() options {
	o := options{
		server:   server.DefaultConfig(),
		tracing:  obs.TracingConfig{SampleRate: 0.01, SlowThreshold: 500 * time.Millisecond},
		build:    buildInputs{dataset: "imdb", scale: 0.1, seed: 1, k: 1000, frame: 50},
		logLevel: "info",
	}
	// An embedded server keeps drift observation off so synthetic traffic
	// cannot poison the fine-tuning signal; the binary serves real users.
	o.server.DriftObserve = true
	return o
}

// registerFlags binds every flag to its field in o; a flag's default is the
// value the field holds when it is registered.
func registerFlags(fs *flag.FlagSet, o *options) {
	str := func(p *string, name, usage string) { fs.StringVar(p, name, *p, usage) }
	num := func(p *int, name, usage string) { fs.IntVar(p, name, *p, usage) }
	big := func(p *int64, name, usage string) { fs.Int64Var(p, name, *p, usage) }
	frac := func(p *float64, name, usage string) { fs.Float64Var(p, name, *p, usage) }
	dur := func(p *time.Duration, name, usage string) { fs.DurationVar(p, name, *p, usage) }
	on := func(p *bool, name, usage string) { fs.BoolVar(p, name, *p, usage) }

	c, b, r := &o.server, &o.build, &o.server.Retrain
	str(&c.Addr, "addr", "serve address")
	str(&b.dataset, "dataset", "built-in dataset: imdb, mas or flights")
	frac(&b.scale, "scale", "synthetic dataset scale")
	str(&b.dataDir, "data", "directory of CSV tables (alternative to -dataset)")
	str(&b.workloadFile, "workload", "file with one SQL query per line (omit to generate)")
	num(&b.k, "k", "memory budget: tuples in the approximation set")
	num(&b.frame, "f", "frame size F")
	on(&b.light, "light", "use the ASQP-Light configuration")
	big(&b.seed, "seed", "random seed")
	str(&b.loadFile, "load", "load a trained system snapshot instead of training")
	// With -save set, a retrained candidate replaces the snapshot by the same
	// atomic rename before every swap (and the incumbent re-replaces it after
	// a rollback), so a crash at any moment restarts with a consistent,
	// current approximation set.
	str(&r.SnapshotPath, "save", "save the trained system to this file (atomic rename)")
	num(&c.MaxInFlight, "max-inflight", "queries executing concurrently (0 = 2x CPUs)")
	num(&c.QueueDepth, "queue", "admitted requests that may wait for a slot (0 = max-inflight)")
	dur(&c.DefaultTimeout, "query-timeout", "default per-query deadline")
	num(&c.MaxRows, "max-rows", "per-query result-row cap")
	dur(&c.DrainTimeout, "drain-timeout", "how long shutdown waits for in-flight queries")
	str(&o.debugAddr, "debug-addr", "serve /metrics, /tracez and /debug/pprof on this address")
	str(&o.logLevel, "log", "structured log level on stderr (debug, info, warn, error, off)")
	str(&o.traceDir, "trace-dir", "export tail-sampled traces as rotated JSONL files in this directory")
	frac(&o.tracing.SampleRate, "trace-sample", "fraction of healthy traces kept by the tail sampler (errors, degraded and slow traces are always kept)")
	dur(&o.tracing.SlowThreshold, "trace-slow", "latency above which a trace counts as slow and is always kept")
	frac(&c.AuditSample, "audit-sample", "fraction of approx-served/degraded answers shadow-audited against the full database (0 = off)")
	frac(&c.SLOQualityP95, "slo-quality-p95", "quality SLO: p95 relative-error target for shadow-audited answers; burn-rate alerting on the 0.95 objective (0 = off)")
	dur(&c.SLOLatencyP99, "slo-latency-p99", "latency SLO: p99 request-latency target; burn-rate alerting on the 0.99 objective (0 = off)")
	frac(&c.SLOAvailability, "slo-availability", "availability SLO objective in (0,1), e.g. 0.999: fraction of requests answered without degradation/error/shedding (0 = off)")
	str(&c.DiagDir, "diag-dir", "flight-recorder directory: capture a diagnostic bundle on SLO fast-burn or /debugz?capture=1 (empty = off)")
	on(&c.DriftObserve, "drift-observe", "feed served queries into the interest-drift detector")
	frac(&b.driftConfidence, "drift-confidence", "deviation confidence (1 - similarity) above which a served query counts as drifted (0 = config default)")
	num(&b.driftCount, "drift-count", "drifted queries that trigger fine-tuning/retraining (0 = config default)")
	on(&r.Enabled, "retrain", "enable drift-triggered background retraining with validated hot-swap and rollback")
	dur(&r.Timeout, "retrain-timeout", "hard deadline for one retrain attempt (clone + fine-tune + validate)")
	frac(&r.ValidateMargin, "retrain-validate-margin", "how much worse the candidate may score than the incumbent and still swap in")
	dur(&r.RollbackWindow, "retrain-rollback-window", "how long the old system is retained after a swap for automatic rollback")
	str(&o.walDir, "wal-dir", "write-ahead log directory: durably record served/drift/retrain events and replay them on startup (empty = durability off)")
}

func main() {
	o := defaultOptions()
	registerFlags(flag.CommandLine, &o)
	flag.Parse()
	cfg, saveFile := &o.server, o.server.Retrain.SnapshotPath
	cfg.Seed, cfg.Retrain.Seed = o.build.seed, o.build.seed
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	if o.logLevel != "" && o.logLevel != "off" {
		obs.EnableLogging(os.Stderr, obs.ParseLevel(o.logLevel))
	}
	obs.SetEnabled(true)

	// Tracing is always configured for the serving binary: the tail sampler
	// keeps every error/degraded/slow trace in memory for /tracez, and
	// -trace-dir additionally persists them as rotated JSONL.
	var exporter *obs.JSONLExporter
	if o.traceDir != "" {
		var err error
		exporter, err = obs.NewJSONLExporter(o.traceDir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exporting traces to %s\n", exporter.Dir())
		// Only set the sink when an exporter exists: assigning the nil
		// *JSONLExporter directly would store a typed-nil interface that
		// passes the sampler's != nil check and panic on the first kept trace.
		o.tracing.Exporter = exporter
	}
	obs.ConfigureTracing(o.tracing)

	var debug *obs.DebugServer
	if o.debugAddr != "" {
		var err error
		debug, err = obs.StartDebug(o.debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug server on http://%s (/metrics, /tracez, /debug/pprof)\n", debug.Addr())
	}

	// Startup hygiene: a crash between SaveFile's temp-write and rename
	// leaves orphaned `<snapshot>.tmp-*` files that are never live data.
	if saveFile != "" {
		if n := core.CleanSnapshotTemps(saveFile); n > 0 {
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
	if o.walDir != "" {
		var werr error
		wlog, wrec, werr = wal.Open(o.walDir, wal.Options{})
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("wal: %s (%d segments scanned, %d frames to replay, %d dropped, %d torn bytes truncated)\n",
			o.walDir, wrec.Stats.Segments, wrec.Stats.FramesReplayed, wrec.Stats.FramesDropped, wrec.Stats.TruncatedBytes)
	}

	cfg.WAL = wlog
	srv := server.New(nil, *cfg)
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
	if cfg.AuditSample > 0 {
		fmt.Printf("shadow auditing %.0f%% of approx-served answers\n", cfg.AuditSample*100)
	}
	if cfg.SLOAvailability > 0 || cfg.SLOLatencyP99 > 0 || cfg.SLOQualityP95 > 0 {
		fmt.Printf("slo engine armed (availability=%g, latency-p99=%s, quality-p95=%g)\n",
			cfg.SLOAvailability, cfg.SLOLatencyP99, cfg.SLOQualityP95)
	}
	if cfg.DiagDir != "" {
		fmt.Printf("flight recorder armed: bundles in %s on SLO fast-burn or /debugz?capture=1\n", cfg.DiagDir)
	}
	if cfg.Retrain.Enabled {
		fmt.Printf("background retraining armed (margin=%g, attempt timeout=%s, rollback window=%s)\n",
			cfg.Retrain.ValidateMargin, cfg.Retrain.Timeout, cfg.Retrain.RollbackWindow)
	}

	// Drain on SIGTERM/SIGINT: stop admitting, wait for in-flight queries up
	// to -drain-timeout, then cancel them. A second signal aborts the wait.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	sys, err := buildSystem(ctx, o.build)
	if err != nil {
		fatal(err)
	}
	if saveFile != "" {
		if err := sys.SaveFile(saveFile); err != nil {
			fatal(err)
		}
		fmt.Printf("saved system to %s\n", saveFile)
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
		if len(wrec.Tail) == 0 && saveFile != "" {
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

// buildSystem loads a snapshot or trains from scratch, honoring
// cancellation. The drift overrides go into the system's configuration either
// way, so the detector, the saved snapshot and every clone the retrain
// controller fine-tunes read them.
func buildSystem(ctx context.Context, in buildInputs) (*core.System, error) {
	var db *table.Database
	var err error
	start := time.Now()
	if in.dataDir != "" {
		db, err = table.ReadCSVDir(in.dataDir)
	} else {
		db, err = datagen.ByName(in.dataset, in.scale, in.seed)
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("database: %d tables, %d tuples in %s\n", len(db.TableNames()), db.TotalRows(), time.Since(start).Round(time.Microsecond))
	var sys *core.System
	if in.loadFile != "" {
		start = time.Now()
		sys, err = core.LoadFile(db, in.loadFile)
		if err == nil {
			fmt.Printf("loaded system from %s in %s\n", in.loadFile, time.Since(start).Round(time.Microsecond))
		}
	} else {
		sys, err = train(ctx, db, in)
	}
	if err != nil {
		return nil, err
	}
	sys.SetDrift(in.driftConfidence, in.driftCount)
	return sys, nil
}

// train trains a system on db from the workload file or a generated one.
func train(ctx context.Context, db *table.Database, in buildInputs) (*core.System, error) {
	var w workload.Workload
	var err error
	if in.workloadFile != "" {
		w, err = workload.ReadFile(in.workloadFile)
	} else {
		w, err = core.GenerateWorkload(db, core.GenOptions{N: 30, Seed: in.seed})
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload: %d queries; training...\n", len(w))
	cfg := core.DefaultConfig()
	if in.light {
		cfg = core.LightConfig()
	}
	cfg.K = in.k
	cfg.F = in.frame
	cfg.Seed = in.seed
	start := time.Now()
	sys, err := core.TrainContext(ctx, db, w, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trained in %s\n", time.Since(start).Round(time.Millisecond))
	return sys, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asqp-serve:", err)
	os.Exit(1)
}
