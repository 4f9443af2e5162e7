#!/usr/bin/env sh
# check.sh — the full local gate: vet, build, race tests, smoke benches.
# Bench results are appended (as a JSON array per run) to BENCH_<date>.json
# in the repo root, building an in-repo perf history.
#
# Usage: scripts/check.sh [extra go-test args for the bench step]
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# One race pass over every package. -count=1 defeats the test cache, so the
# determinism sweeps, the goroutine-leak checks and the seeded chaos schedules
# actually rerun; the timeout turns a hang into a failure. What it guards, by
# package: the scoring worker pool and the blocked PPO gradient accumulation
# stay race-free and worker-count-deterministic (metrics, rl); the
# FuzzRowVsColumnar seed corpus holds the engine to the row-at-a-time
# reference — byte-identical results, guard and error semantics (engine); the
# randomized fault-injection sweeps end without panic, race or hang, a failure
# log naming the seed to replay (faults, core, engine); admission control,
# circuit breaker, drain and hot swap under concurrent clients (server); the
# retrain controller's clone isolation, validation gate, swap, rollback and
# backoff (retrain); and the WAL's crash-fault matrix, replay fuzz corpus and
# recovery (wal).
echo "==> go test -race -count=1 -timeout 10m ./..."
go test -race -count=1 -timeout 10m ./...

# Fuzz smoke: the seed corpora of the fuzz targets already ran as tests above;
# a few seconds of mutation on top catch what a change to the grammar, the
# canonical rendering or an operator opens up next to the seeds. FuzzParse holds
# sqlparse.Parse to its two properties on network-shaped input (it returns,
# promptly, on any bytes; a statement it accepts round-trips through
# Select.String), FuzzRowVsColumnar the columnar engine to the row engine.
echo "==> fuzz smoke: FuzzParse, FuzzRowVsColumnar"
go test -run='^$' -fuzz=FuzzParse -fuzztime=10s ./internal/sqlparse/
go test -run='^$' -fuzz=FuzzRowVsColumnar -fuzztime=20s ./internal/engine/

# Bench smoke: the Fig2 benches cover the scoring hot loop (serial vs
# parallel vs reference-cached) plus the end-to-end Figure 2 harness; pass
# extra args (e.g. -bench=.) to widen the sweep.
bench_out="BENCH_$(date +%Y%m%d).json"
echo "==> go test -bench=Fig2 -benchtime=1x -run='^\$' ./...  (-> ${bench_out})"
go test -bench=Fig2 -benchtime=1x -run='^$' "$@" ./... |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson

# Engine bench: the vectorized scan and the index-backed join, the three-way
# indexed join warm and cold (cold pays the one-time index builds), and the
# scan phase's access paths (selective two-way, three-way chain, and the wide
# shape that declines), the aggregate phase over a 50 000-row join (allocs/op
# follow its groups), and the join probe alone over 50 000 probe rows per kind
# of index (ns/probe-row), and the load path every table enters by (214 000
# tuples from CSV: allocs/op, and the heap they keep as B/cell), recorded into
# the same history.
echo "==> go test -bench='ColumnarScan|HashJoinAllocs|JoinIndexed|SidewaysJoin|AggregateJoin|Probe|LoadCSV' ./internal/engine/ ./internal/table/  (-> ${bench_out})"
go test -bench='ColumnarScan|HashJoinAllocs|JoinIndexed|SidewaysJoin|AggregateJoin|Probe|LoadCSV' -benchtime=10x -benchmem -run='^$' ./internal/engine/ ./internal/table/ |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson

# Serving bench: closed-loop HTTP load at 1x/4x/16x admission capacity,
# recording throughput, p50/p99 latency, and shed rate.
echo "==> go test -bench=ServeLoad ./internal/server/  (-> ${bench_out})"
go test -bench=ServeLoad -benchtime=200x -run='^$' ./internal/server/ |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson

# Answer-encoder bench: the /query append encoder on a 50-row page and a
# 10 000 x 12 wide join, next to the reflection encoder it replaced (ns/op,
# B/op and allocs/op: the append path must stay at 0 allocs per answer).
echo "==> go test -bench=EncodeAnswer ./internal/server/  (-> ${bench_out})"
go test -bench=EncodeAnswer -benchtime=20x -benchmem -run='^$' ./internal/server/ |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson

# Hot-swap bench: closed-loop load at exactly admission capacity with one
# SetSystem swap mid-run; records p99 before/after the swap and the delta,
# and fails outright if any request is dropped across the swap.
echo "==> go test -bench=HotSwapUnderLoad ./internal/server/  (-> ${bench_out})"
go test -bench=HotSwapUnderLoad -benchtime=200x -run='^$' ./internal/server/ |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson

# Trace-export overhead: ns per exported span tree and per ring add, recorded
# alongside the other benches so export-path regressions show in the history.
echo "==> go test -bench='TraceExport|SpanRingAdd' ./internal/obs/  (-> ${bench_out})"
go test -bench='TraceExport|SpanRingAdd' -benchtime=10000x -run='^$' ./internal/obs/ |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson

# WAL benches: durable append throughput with group commit on vs off (the
# on/off ratio justifies the design) plus the fire-and-forget hot-path
# append, and a full 100k-frame recovery replay (replay_ms must stay well
# under the 2s acceptance bar).
echo "==> go test -bench='WALAppend' ./internal/wal/  (-> ${bench_out})"
go test -bench='WALAppend' -benchtime=2000x -run='^$' ./internal/wal/ |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson
echo "==> go test -bench='RecoveryReplay' ./internal/wal/  (-> ${bench_out})"
go test -bench='RecoveryReplay' -benchtime=2x -run='^$' ./internal/wal/ |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson

# Audit-overhead bench: the disabled shadow auditor must stay a pointer
# compare on the serve hot path — the bench records ns/op and allocs/op so
# any regression shows in the history (the 0-alloc assertion itself lives in
# TestAuditDisabledZeroAlloc, run in the race pass above).
echo "==> go test -bench=AuditDisabledOverhead ./internal/audit/  (-> ${bench_out})"
go test -bench=AuditDisabledOverhead -benchtime=100000x -run='^$' ./internal/audit/ |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson

# SLO-instrumentation overhead: with recording off (the shipped default) the
# request-path instrumentation the SLO layer added must stay one atomic load
# and zero allocations; the bench records ns/op and allocs/op for both the
# disabled and armed paths (the hard 0-alloc assertion lives in
# TestSLOHotPathZeroAlloc, run in the race pass above).
echo "==> go test -bench=SLODisabledOverhead ./internal/server/  (-> ${bench_out})"
go test -bench=SLODisabledOverhead -benchtime=100000x -run='^$' ./internal/server/ |
	BENCHJSON_OUT="${bench_out}" go run ./scripts/benchjson

# Loadgen smoke: boot a real asqp-serve process on a tiny dataset, point
# asqp-loadgen at it, and record the end-to-end numbers. Fails if any
# response is malformed — including a malformed observed_error field — and
# the -quality flag makes loadgen validate the /qualityz audit rollup after
# the run (auditing runs at full sampling here, so the gate exercises the
# shadow-audit path end to end). The drift-storm scenario shifts the query
# mix halfway through; with retraining armed (and the drift threshold
# lowered so the storm registers) loadgen then waits for the controller to
# either hot-swap a fine-tuned candidate or back off cleanly, so the gate
# exercises drift → retrain → validate → swap end to end. The binary is
# built and exec'd directly (not `go run`) so the recorded pid is the server
# itself and the TERM below actually exercises — and completes — the
# graceful drain.
echo "==> loadgen smoke: asqp-serve + asqp-loadgen (drift-storm)  (-> ${bench_out})"
serve_port=18479
serve_bin="$(mktemp -t asqp-serve.XXXXXX)"
trace_dir="$(mktemp -d -t asqp-traces.XXXXXX)"
snap_file="$(mktemp -t asqp-snap.XXXXXX)"
go build -o "${serve_bin}" ./cmd/asqp-serve
"${serve_bin}" -addr "localhost:${serve_port}" -scale 0.02 -k 150 -light \
	-trace-dir "${trace_dir}" -trace-sample 1 \
	-audit-sample 1 -quality-slo-p95 0.5 \
	-drift-confidence 0.15 \
	-retrain -retrain-interval 500ms -retrain-validate-margin 0.5 \
	-retrain-rollback-window 2s -save "${snap_file}" \
	-log warn >/dev/null &
serve_pid=$!
trap 'kill "${serve_pid}" 2>/dev/null || true; rm -f "${serve_bin}" "${snap_file}"; rm -rf "${trace_dir}"' EXIT
go run ./cmd/asqp-loadgen -url "http://localhost:${serve_port}" \
	-clients 8 -duration 6s -scenario drift-storm -retrain-wait 90s \
	-label LoadgenSmoke -quality -slo-gate -json "${bench_out}"
kill -TERM "${serve_pid}" 2>/dev/null || true
wait "${serve_pid}" 2>/dev/null || true
rm -f "${serve_bin}" "${snap_file}"

# Tracing gate: the smoke run above exported every trace (sample rate 1, with
# the loadgen stamping a traceparent on each request). The export must parse
# as JSONL and every record must be a single connected span tree. Goroutine
# hygiene after a traced drain is asserted in-process by
# TestDrainLeavesNoTraceGoroutines in the race pass.
echo "==> tracing gate: validate JSONL trace export"
go run ./scripts/tracecheck "${trace_dir}"
rm -rf "${trace_dir}"
trap - EXIT

# SLO burn smoke: a server armed with an impossible latency target (every
# real request blows a 100µs p99) and second-scale burn windows must reach
# fast_burn on /sloz under steady loadgen traffic, and the flight recorder
# must capture a bundle for it — the alerting path end to end, driven by a
# real process and real HTTP latencies rather than an injected histogram.
echo "==> slo smoke: impossible latency target -> fast_burn + flight-recorder bundle  (-> ${bench_out})"
serve_port=18481
serve_bin="$(mktemp -t asqp-serve.XXXXXX)"
diag_dir="$(mktemp -d -t asqp-diag.XXXXXX)"
go build -o "${serve_bin}" ./cmd/asqp-serve
"${serve_bin}" -addr "localhost:${serve_port}" -scale 0.02 -k 150 -light \
	-slo-latency-p99 100us -slo-windows 2s,6s,20s,2m \
	-diag-dir "${diag_dir}" -diag-min-interval 1s \
	-log warn >/dev/null &
serve_pid=$!
trap 'kill "${serve_pid}" 2>/dev/null || true; rm -f "${serve_bin}"; rm -rf "${diag_dir}"' EXIT
go run ./cmd/asqp-loadgen -url "http://localhost:${serve_port}" \
	-clients 4 -duration 4s -scenario slo-burn -slo-burn-wait 30s \
	-label SLOBurnSmoke -json "${bench_out}"
kill -TERM "${serve_pid}" 2>/dev/null || true
wait "${serve_pid}" 2>/dev/null || true
rm -f "${serve_bin}"
rm -rf "${diag_dir}"
trap - EXIT

# Durability smoke: the end-to-end kill -9 story. First life: asqp-serve with
# a WAL and a snapshot path takes live traffic (drift observation on, so the
# log fills with served and drift frames), then dies by SIGKILL — no drain,
# no WAL close, a real torn tail. Second life: the same binary
# restarts from the same snapshot + WAL dir (retraining off so the replayed
# drift evidence is still visible in /stats when loadgen checks), and
# asqp-loadgen -expect-recovery fails the gate unless /stats reports a
# completed recovery with replayed frames and consistent counters.
echo "==> durability smoke: kill -9 asqp-serve, restart, verify WAL recovery  (-> ${bench_out})"
serve_port=18480
serve_bin="$(mktemp -t asqp-serve.XXXXXX)"
wal_dir="$(mktemp -d -t asqp-wal.XXXXXX)"
snap_file="$(mktemp -t asqp-snap.XXXXXX)"
go build -o "${serve_bin}" ./cmd/asqp-serve
"${serve_bin}" -addr "localhost:${serve_port}" -scale 0.02 -k 150 -light \
	-drift-confidence 0.15 -wal-dir "${wal_dir}" -save "${snap_file}" \
	-log warn >/dev/null &
serve_pid=$!
trap 'kill -9 "${serve_pid}" 2>/dev/null || true; rm -f "${serve_bin}" "${snap_file}"; rm -rf "${wal_dir}"' EXIT
go run ./cmd/asqp-loadgen -url "http://localhost:${serve_port}" \
	-clients 4 -duration 3s \
	-label DurabilityPreKill -json "${bench_out}"
sleep 1 # let the group-commit syncer land the last async frames
kill -9 "${serve_pid}" 2>/dev/null || true
wait "${serve_pid}" 2>/dev/null || true
"${serve_bin}" -addr "localhost:${serve_port}" -load "${snap_file}" \
	-drift-confidence 0.15 -wal-dir "${wal_dir}" -save "${snap_file}" \
	-log warn >/dev/null &
serve_pid=$!
go run ./cmd/asqp-loadgen -url "http://localhost:${serve_port}" \
	-clients 2 -duration 2s -expect-recovery \
	-label DurabilityPostRecovery -json "${bench_out}"
kill -TERM "${serve_pid}" 2>/dev/null || true
wait "${serve_pid}" 2>/dev/null || true
rm -f "${serve_bin}" "${snap_file}"
rm -rf "${wal_dir}"
trap - EXIT

# Perf regression gate: compare the scan-heavy benchmarks (vectorized scans,
# hash joins, workload scoring) in today's bench history against the most
# recent prior BENCH_<date>.json; any >20% ns/op regression fails the check.
echo "==> benchdiff: scan-heavy perf regression gate"
go run ./scripts/benchdiff

echo "==> all checks passed; bench results appended to ${bench_out}"
