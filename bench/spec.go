package main

// The benchmark's contract in one place: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with the
// end-to-end metric each is expected to move. BENCHMARK.json at the repo
// root carries the same names, units, directions and bounds (spec_test.go
// keeps the two in step); what BENCHMARK.json has no key for — latency
// limits, paced rates, routing bands, layers, "moves" — lives only here and
// in README.md.

// Fixed corpus. The database and the training workload are constants of the
// benchmark, not functions of -seed: a different database trains a different
// approximation set, which moves routing shares (and with them every latency
// metric) by far more than any bound. -seed drives the request streams.
const (
	corpusSeed = 1

	servingScale = 2.0 // datagen.IMDB: 214 000 tuples in 4 tables
	servingTrain = 120 // training-workload statements
	servingK     = 1000
	trainScale   = 0.2 // train_pipeline trains from scratch several times a run
	trainQueries = 60  // split 80/20 into 48 train / 12 held-out
	trainK       = 200
	quickScale   = 0.2 // -quick, for humans
	frameF       = 50
	aggProb      = 0.15
	hotSetSize   = 400
	zipfS        = 1.1
	oracleEvery  = 16 // fresh-stream positions ≡ 0 (mod 16) are oracle-covered
	connections  = 2
	traceReplays = 300
)

type workloadSpec struct {
	Name string
	Why  string
	// Serving workloads drive an asqp-serve child over loopback HTTP;
	// train_pipeline runs in the bench process.
	Serving bool
	// LimitMs is the latency limit a response must meet to count as goodput.
	LimitMs float64
	// PacedRPS is the fixed rate of the open-loop diagnostic phase.
	PacedRPS int
	// Durable turns on the WAL, shadow audit and the SIGKILL/restart check.
	Durable bool
	// ApproxMin/ApproxMax is the routing sanity band on
	// core.route.approx_share; a run outside it fails.
	ApproxMin, ApproxMax float64
}

var workloads = []workloadSpec{
	{
		Name:      "explore_hit",
		Why:       "in-distribution single-table sessions paged with LIMIT F, half repeats of a fixed 400-statement hot set: approximation rung, server/HTTP glue does the work, a statement cache wins at most half",
		Serving:   true,
		LimitMs:   5,
		PacedRPS:  1000,
		ApproxMin: 0.6, ApproxMax: 1,
	},
	{
		Name:      "explore_miss",
		Why:       "joins, id-range scans and join+GROUP BY the training workload never resembled, constants never repeated: full-database rung, the engine does the work, cache-hostile by construction",
		Serving:   true,
		LimitMs:   25,
		PacedRPS:  300,
		ApproxMin: 0, ApproxMax: 0.4,
	},
	{
		Name:      "durable_mix",
		Why:       "78% hit, 20% miss, 2% wide joins of 5k-25k rows with WAL, shadow audit and drift on: p99 on row encoding, writes beside reads, ends with SIGKILL and recovery",
		Serving:   true,
		LimitMs:   100,
		PacedRPS:  300,
		Durable:   true,
		ApproxMin: 0, ApproxMax: 1,
	},
	{
		Name:      "train_pipeline",
		Why:       "offline setup from scratch (CSV load, preprocess, PPO training, set construction) then in-process answering with no HTTP: the paper's setup-time axis and the learner's quality",
		LimitMs:   5,
		ApproxMin: 0, ApproxMax: 1,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which the metric may get
	// worse before a change counts as a regression.
	Bound float64
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them; on train_pipeline an "operation" is one in-process
// System.QueryContext call and setup_s is load + train. Times and rates are
// reported at the reference machine speed (calibrate.go). Each bound is about
// three times the spread seen across seeds on the seed commit (README
// "Noise"), capped at the contract's 0.25.
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms", "lower", 0.2},    // median over all closed-loop samples
	{"latency_p99_ms", "ms", "lower", 0.25},   // median of the per-segment p99s (each segment keeps >= 10 samples beyond its p99)
	{"goodput_rps", "1/s", "higher", 0.2},     // median per-segment rate of correct, non-degraded responses within the workload's latency limit
	{"cpu_ms_per_req", "ms", "lower", 0.2},    // utime+stime of the serving process over the closed-loop phase / completed requests
	{"answer_score", "ratio", "higher", 0.05}, // Equation 1 through the wire: mean over oracle-covered SPJ requests of min(1, row_count / min(F, |q(T)|))
	{"rss_peak_mb", "MB", "lower", 0.2},       // VmHWM of the serving process
	{"setup_s", "s", "lower", 0.25},           // median of the run's set-ups: exec -> /readyz 200 for the server child; CSV load + training for train_pipeline
}

type layerSpec struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	// Moves names the end-to-end metric and workload the layer metric is
	// expected to move.
	Moves string
}

// perLayer lists the single-layer metrics of the traced run (-trace 1). A
// metric the workload does not exercise reads 0.
var perLayer = []layerSpec{
	{"loadgen.sent", "count", "higher", "loadgen", "context"},
	{"loadgen.ok", "count", "higher", "loadgen", "context"},
	{"loadgen.failed", "count", "lower", "loadgen", "context; must be 0"},
	{"loadgen.repeat_share", "ratio", "higher", "loadgen", "bounds what a statement cache can win: ~0.5 explore_hit, 0 explore_miss"},
	{"loadgen.paced_p50_ms", "ms", "lower", "loadgen", "open-loop diagnostic"},
	{"loadgen.paced_p99_ms", "ms", "lower", "loadgen", "open-loop diagnostic"},
	{"loadgen.lag_p99_ms", "ms", "lower", "loadgen", "how late the paced generator ran"},

	{"http.roundtrip_us_p50", "us", "lower", "http", "latency_p50_ms on explore_hit"},
	{"http.residual_us_p50", "us", "lower", "http", "latency_p50_ms on explore_hit (round trip - server.handler on the same request)"},

	{"server.handler.busy_us_p50", "us", "lower", "server", "latency_p50_ms, cpu_ms_per_req, goodput_rps on explore_hit"},
	{"server.handler.busy_us_p99", "us", "lower", "server", "latency_p99_ms on durable_mix (wide responses)"},
	{"server.self_us_p50", "us", "lower", "server", "latency_p50_ms on explore_hit (handler - parse - core.query - string - wal)"},
	{"server.handler.allocs_per_op", "count", "lower", "server", "cpu_ms_per_req on explore_hit"},
	{"server.handler.alloc_bytes_per_op", "B", "lower", "server", "cpu_ms_per_req, rss_peak_mb on durable_mix"},
	{"server.response_bytes_p50", "B", "lower", "server", "latency_p50_ms on explore_hit"},
	{"server.response_bytes_p99", "B", "lower", "server", "latency_p99_ms on durable_mix"},
	{"server.shed", "count", "lower", "server", "must be 0: two connections never fill the admission queue"},

	{"sqlparse.parse.busy_us_p50", "us", "lower", "sqlparse", "cpu_ms_per_req on explore_hit (small; recorded so nobody optimises it on a hunch)"},
	{"sqlparse.parse.allocs_per_op", "count", "lower", "sqlparse", "cpu_ms_per_req on explore_hit"},
	{"sqlparse.string.busy_us_p50", "us", "lower", "sqlparse", "cpu_ms_per_req on durable_mix (canonical SQL for WAL/audit)"},

	{"embed.query.busy_us_p50", "us", "lower", "embed", "cpu_ms_per_req on explore_hit via core.estimate"},

	{"core.query.busy_us_p50", "us", "lower", "core", "latency_p50_ms on explore_hit"},
	{"core.query.self_us_p50", "us", "lower", "core", "latency_p50_ms on explore_hit (core.query - embed - estimate - engine.exec)"},
	{"core.estimate.busy_us_p50", "us", "lower", "core", "latency_p50_ms on explore_hit"},
	{"core.estimate.allocs_per_op", "count", "lower", "core", "cpu_ms_per_req on explore_hit"},
	{"core.route.approx_share", "ratio", "higher", "core", "explains any move in answer_score and latency_* on every serving workload"},
	{"core.route.full_share", "ratio", "lower", "core", "same"},
	{"core.route.degraded_share", "ratio", "lower", "core", "must be 0"},
	{"core.drift.drifted", "count", "lower", "core", "context: drift evidence accumulated by the run"},

	{"engine.exec.approx.busy_us_p50", "us", "lower", "engine", "latency_p50_ms on explore_hit"},
	{"engine.exec.full.busy_us_p50", "us", "lower", "engine", "latency_p50_ms, goodput_rps, cpu_ms_per_req on explore_miss"},
	{"engine.exec.full.busy_us_p99", "us", "lower", "engine", "latency_p99_ms on explore_miss"},
	{"engine.exec.scan.busy_us_p50", "us", "lower", "engine", "latency_p50_ms on explore_miss (filter scans)"},
	{"engine.exec.join2.busy_us_p50", "us", "lower", "engine", "latency_p50_ms on explore_miss (2-way joins)"},
	{"engine.exec.join3.busy_us_p50", "us", "lower", "engine", "latency_p99_ms on explore_miss (3-way joins)"},
	{"engine.exec.agg.busy_us_p50", "us", "lower", "engine", "latency_p50_ms on explore_miss (join + GROUP BY)"},
	{"engine.exec.wide.busy_us_p50", "us", "lower", "engine", "latency_p99_ms on durable_mix"},
	{"engine.count.busy_us_p50", "us", "lower", "engine", "setup_s on train_pipeline (scoring backend)"},
	{"engine.exec.allocs_per_op", "count", "lower", "engine", "cpu_ms_per_req on explore_miss"},
	{"engine.exec.alloc_bytes_per_row_out", "B", "lower", "engine", "rss_peak_mb, cpu_ms_per_req on durable_mix"},
	{"engine.rows_examined_per_row_out", "ratio", "lower", "engine", "latency_p50_ms on explore_miss (base-table rows / rows returned)"},

	{"table.csv.read_s", "s", "lower", "table", "setup_s on all workloads"},
	{"table.columns.build_s", "s", "lower", "table", "setup_s on all workloads (first Columns() on every table)"},
	{"table.materialize.busy_ms", "ms", "lower", "table", "setup_s on serving workloads (Subset.Materialize)"},
	{"table.heap_mb", "MB", "lower", "table", "rss_peak_mb on all workloads (rows + columnar copy resident)"},

	{"wal.append_async.busy_us_p50", "us", "lower", "wal", "cpu_ms_per_req, latency_p50_ms on durable_mix"},
	{"wal.append.busy_us_p50", "us", "lower", "wal", "context: durable append on the sandbox disk"},
	{"wal.bytes_per_record", "B", "lower", "wal", "cpu_ms_per_req on durable_mix"},
	{"wal.appended", "count", "higher", "wal", "context: frames the run wrote"},
	{"wal.replay.frames_per_s", "1/s", "higher", "wal", "wal.recovery.restart_s"},
	{"wal.recovery.restart_s", "s", "lower", "wal", "setup_s after a crash on durable_mix (SIGKILL -> /readyz)"},
	{"wal.recovery.frames_replayed", "count", "higher", "wal", "context"},
	{"wal.recovery.frames_dropped", "count", "lower", "wal", "must be 0"},

	{"audit.eligible", "count", "higher", "audit", "context"},
	{"audit.sampled", "count", "higher", "audit", "cpu_ms_per_req, goodput_rps on durable_mix"},
	{"audit.completed", "count", "higher", "audit", "same"},
	{"audit.dropped", "count", "lower", "audit", "context"},
	{"audit.error_p95", "ratio", "lower", "audit", "answer_score on durable_mix"},

	{"core.preprocess.busy_s", "s", "lower", "core", "setup_s on train_pipeline"},
	{"core.train.busy_s", "s", "lower", "core", "setup_s on train_pipeline"},
	{"core.train.agent_s", "s", "lower", "core", "setup_s on train_pipeline (train - preprocess)"},
	{"core.snapshot.save_s", "s", "lower", "core", "context: retrain/hot-swap cost"},
	{"core.snapshot.load_s", "s", "lower", "core", "setup_s on serving workloads"},
	{"core.snapshot.bytes", "B", "lower", "core", "context"},
	{"core.clone.busy_s", "s", "lower", "core", "context: retrain cost"},
	{"core.finetune.busy_s", "s", "lower", "core", "context: retrain cost"},
	{"core.set.size", "count", "lower", "core", "answer_score, rss_peak_mb"},
	{"core.set.over_budget", "count", "lower", "core", "recorded finding: the built set exceeds k by up to one action group"},

	{"rl.iterations", "count", "lower", "rl", "setup_s on train_pipeline"},
	{"rl.steps", "count", "lower", "rl", "setup_s on train_pipeline"},
	{"rl.steps_per_s", "1/s", "higher", "rl", "setup_s on train_pipeline"},
	{"rl.best_return", "ratio", "higher", "rl", "answer_score on train_pipeline"},
	{"nn.forward.busy_us_p50", "us", "lower", "nn", "setup_s on train_pipeline"},
	{"nn.backward.busy_us_p50", "us", "lower", "nn", "setup_s on train_pipeline"},
	{"metrics.score.busy_ms", "ms", "lower", "metrics", "setup_s on train_pipeline"},
	{"metrics.score_train", "ratio", "higher", "metrics", "answer_score on train_pipeline"},
	{"metrics.score_test", "ratio", "higher", "metrics", "answer_score on train_pipeline (held-out 20%)"},

	{"obs.enabled.overhead_us_p50", "us", "lower", "obs", "cpu_ms_per_req on explore_hit (handler p50 with obs on - off)"},
}
