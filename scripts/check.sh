#!/usr/bin/env sh
# check.sh — the full local gate: vet, build, race tests, fuzz smoke, the
# frozen bench module, one run of every micro-benchmark, the EXPERIMENTS.md
# writer and three process smokes.
# It measures nothing: performance is judged by bench/ (bench/README.md),
# paired runs against the parent commit.
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# One race pass over every package. -count=1 defeats the test cache, so the
# determinism sweeps, the goroutine-leak checks and the seeded chaos schedules
# actually rerun; the timeout turns a hang into a failure. What it guards, by
# package: the scoring worker pool and the row-split PPO update stay race-free
# and worker-count-deterministic (metrics, rl); the FuzzRowVsColumnar seed
# corpus holds the engine's answer as a table, a frame, a lineage and a count
# to the row-at-a-time reference — byte-identical results, guard and error
# semantics (engine); the
# randomized fault-injection sweeps end without panic, race or hang, a failure
# log naming the seed to replay (faults, core, engine); admission control,
# circuit breaker, drain and hot swap under concurrent clients (server); the
# retrain controller's clone isolation, validation gate, swap, rollback and
# backoff (retrain); the WAL's crash-fault matrix, replay fuzz corpus and
# recovery (wal); and the concurrent CSV directory load, its tables and its
# first error in name order, no loader goroutine left behind (table).
echo "==> go test -race -count=1 -timeout 10m ./..."
go test -race -count=1 -timeout 10m ./...

# Training is bit-identical at any processor count: the pinned trained set, the
# pinned loss series and parameters, the actor rows kept at collection against
# a forward pass, and the kernel against its per-sample oracle, once each at
# one processor and at four — the race pass above only ever sees the box's own
# count.
echo "==> training pins under GOMAXPROCS=1 and GOMAXPROCS=4"
for procs in 1 4; do
	GOMAXPROCS="${procs}" go test -count=1 -run 'TestTrainedSetPinned|TestTrainPinned|TestCollectedRowsMatchForwardPass|TestKernelMatchesReference' \
		./internal/core/ ./internal/rl/ ./internal/nn/
done

# A host without AVX2, arm64 among them, runs internal/nn's plain Go kernels.
# They, Adam, the oracle and internal/rl's own arithmetic round every product
# on its own (float64(x*y)), which forbids the compiler to fuse it into the
# next add; arm64's compiler fuses otherwise, and a fused product would not
# have the amd64 bits. Vet the fallback build, then fail if any function of
# either package outside the test and benchmark bodies compiles to a fused
# multiply-add. (The standard library's tanh, exp and log, which the networks
# call, still fuse there: the pins hold on amd64.)
echo "==> GOARCH=arm64 go vet ./internal/nn ./internal/rl"
GOARCH=arm64 go vet ./internal/nn ./internal/rl
for pkg in nn rl; do
	echo "==> arm64 internal/${pkg} test binary: no fused multiply-add"
	arm64_bin="$(mktemp -t "${pkg}-arm64.XXXXXX")"
	GOARCH=arm64 go test -c -o "${arm64_bin}" "./internal/${pkg}"
	fused="$(go tool objdump -s "^asqprl/internal/${pkg}\." "${arm64_bin}" |
		awk -v pkg="${pkg}" '/^TEXT /{fn=$2} /(FMADDD|FMSUBD|FNMADDD|FNMSUBD)/ && fn !~ (pkg "\\.(Test|Benchmark)") {print fn}' | sort -u)"
	rm -f "${arm64_bin}"
	if [ -n "${fused}" ]; then
		echo "fused multiply-add in internal/${pkg} on arm64: ${fused}" >&2
		exit 1
	fi
done

# Fuzz smoke: the seed corpora of the fuzz targets already ran as tests above;
# a few seconds of mutation on top catch what a change to the grammar, the
# canonical rendering or an operator opens up next to the seeds. FuzzParse holds
# sqlparse.Parse to its two properties on network-shaped input (it returns,
# promptly, on any bytes; a statement it accepts round-trips through
# Select.String), FuzzRowVsColumnar the columnar engine's table, frame,
# lineage (LineageContext) and count answers to the row engine — lineage, count
# and error string under every guard and fault mode, FuzzTuples the lineage
# normalisation to its string-key reference (the same tuples in the same
# order), FuzzParseTraceparent the traceparent header parser (never panics; an
# accepted header's IDs render back byte for byte and re-parse to the same
# identity), FuzzEncodeQueryResponse the /query encoder to encoding/json,
# byte for byte, on frames that cross its morsel boundaries, and
# FuzzQueryRequest the /query handler to its contract on any method, body, q,
# timeout_ms and max_rows (one JSON object back; 200, 400, 503 or 504, never
# 500; an error message on every non-200), FuzzEstimate the estimator's
# sparse neighbour pass to the dense cosine loop, bit for bit, on any statement
# that parses, and FuzzExpLog internal/nn's exp and log kernels to math.Exp and
# math.Log, bit for bit, on any float64 bit patterns.
# The four disk-facing targets ride along: FuzzLoad (snapshot bytes: a system
# or an error, never a panic), FuzzWALReplay (a damaged log opens, replays a
# subsequence of what was written and accounts for the rest), FuzzReadCSV
# (CSV bytes: the columns or the error of the row-at-a-time reference loader,
# and a table that loads writes and reads back to a fixed point) and
# FuzzReadWorkload (a workload .sql file: an error, or exactly its non-blank,
# non-comment lines, each re-parsing to the same statement, weights summing
# to 1).
# Each line caps minimization at 100 executions per new input: by default the
# fuzzing engine spends up to 60 s shrinking every input that finds new
# coverage, which can eat a whole smoke and leave it running almost no inputs.
# Each smoke starts from the committed seed corpus alone: the inputs earlier
# runs left in the fuzz cache ($GOCACHE/fuzz) grow with every local run, and
# re-running them all as baseline coverage can take a whole smoke before the
# first mutation. An input worth keeping belongs in testdata/fuzz.
fuzzmin=-fuzzminimizetime=100x
go clean -fuzzcache
echo "==> fuzz smoke: FuzzParse, FuzzRowVsColumnar, FuzzTuples, FuzzParseTraceparent, FuzzEncodeQueryResponse, FuzzQueryRequest, FuzzEstimate, FuzzExpLog, FuzzLoad, FuzzWALReplay, FuzzReadCSV, FuzzReadWorkload"
go test -run='^$' -fuzz=FuzzParse -fuzztime=10s "${fuzzmin}" ./internal/sqlparse/
go test -run='^$' -fuzz=FuzzRowVsColumnar -fuzztime=35s "${fuzzmin}" ./internal/engine/
go test -run='^$' -fuzz=FuzzTuples -fuzztime=5s "${fuzzmin}" ./internal/metrics/
go test -run='^$' -fuzz=FuzzParseTraceparent -fuzztime=5s "${fuzzmin}" ./internal/obs/
go test -run='^$' -fuzz=FuzzEncodeQueryResponse -fuzztime=5s "${fuzzmin}" ./internal/server/
go test -run='^$' -fuzz=FuzzQueryRequest -fuzztime=5s "${fuzzmin}" ./internal/server/
go test -run='^$' -fuzz=FuzzEstimate -fuzztime=5s "${fuzzmin}" ./internal/core/
go test -run='^$' -fuzz=FuzzExpLog -fuzztime=5s "${fuzzmin}" ./internal/nn/
go test -run='^$' -fuzz=FuzzLoad -fuzztime=5s "${fuzzmin}" ./internal/core/
go test -run='^$' -fuzz=FuzzWALReplay -fuzztime=5s "${fuzzmin}" ./internal/wal/
go test -run='^$' -fuzz=FuzzReadCSV -fuzztime=5s "${fuzzmin}" ./internal/table/
go test -run='^$' -fuzz=FuzzReadWorkload -fuzztime=5s "${fuzzmin}" ./internal/workload/

# The benchmark module is frozen (BENCHMARK.json "paths") and compiles against
# internal packages: a change to an API it uses must fail here, not in the
# driver.
echo "==> bench module: go vet + go test"
(cd bench && go vet ./... && go test ./...)

# Micro-benchmark smoke: every benchmark compiles and survives one iteration.
# Nothing is recorded or compared — single samples on a shared box gate
# nothing (ROADMAP aim 1).
echo "==> go test -run='^\$' -bench=. -benchtime=1x ./...  (compile-and-run smoke)"
go test -run='^$' -bench=. -benchtime=1x ./...

# Document writer smoke: asqp-bench -md rewrites a copy of EXPERIMENTS.md at
# smoke sizing. Every experiment's markers must be there, and with the marked
# regions cut out the copy must still be the original: the writer touches
# nothing it does not own. The --stat line shows the size of the rewrite.
echo "==> asqp-bench -md smoke: rewrite a copy of EXPERIMENTS.md"
md_copy="$(mktemp -t experiments.XXXXXX)"
trap 'rm -f "${md_copy}"' EXIT
cp EXPERIMENTS.md "${md_copy}"
go run ./cmd/asqp-bench -run all -fast -seeds 2 -md "${md_copy}" >/dev/null
outside_markers() { sed '/^<!-- [a-z0-9-]*:begin -->$/,/^<!-- [a-z0-9-]*:end -->$/d' "$1"; }
if [ "$(outside_markers EXPERIMENTS.md)" != "$(outside_markers "${md_copy}")" ]; then
	echo "asqp-bench -md changed text outside its markers" >&2
	exit 1
fi
git diff --no-index --stat EXPERIMENTS.md "${md_copy}" || true
rm -f "${md_copy}"
trap - EXIT

# Loadgen smoke: boot a real asqp-serve process on a tiny dataset and point
# asqp-loadgen at it. Fails if any
# response is malformed — including a malformed observed_error field — and
# the -quality flag makes loadgen validate the /qualityz audit rollup after
# the run (auditing runs at full sampling here, so the gate exercises the
# shadow-audit path end to end). The drift-storm scenario shifts the query
# mix halfway through; with retraining armed (and the drift threshold
# lowered so the storm registers; the request that crosses it wakes the
# controller) loadgen then waits for the controller to either hot-swap a
# fine-tuned candidate or back off cleanly, so the gate
# exercises drift → retrain → validate → swap end to end. -audit-sample 1
# is what arms rollback (its one trigger is the auditor's per-generation
# evidence); -slo-quality-p95 0.5 only feeds -slo-gate. The binary is
# built and exec'd directly (not `go run`) so the recorded pid is the server
# itself and the TERM below actually exercises — and completes — the
# graceful drain.
echo "==> loadgen smoke: asqp-serve + asqp-loadgen (drift-storm)"
serve_port=18479
serve_bin="$(mktemp -t asqp-serve.XXXXXX)"
trace_dir="$(mktemp -d -t asqp-traces.XXXXXX)"
snap_file="$(mktemp -t asqp-snap.XXXXXX)"
go build -o "${serve_bin}" ./cmd/asqp-serve
"${serve_bin}" -addr "localhost:${serve_port}" -scale 0.02 -k 150 -light \
	-trace-dir "${trace_dir}" -trace-sample 1 \
	-audit-sample 1 -slo-quality-p95 0.5 \
	-drift-confidence 0.15 \
	-retrain -retrain-validate-margin 0.5 \
	-retrain-rollback-window 2s -save "${snap_file}" \
	-log warn >/dev/null &
serve_pid=$!
trap 'kill "${serve_pid}" 2>/dev/null || true; rm -f "${serve_bin}" "${snap_file}"; rm -rf "${trace_dir}"' EXIT
go run ./cmd/asqp-loadgen -url "http://localhost:${serve_port}" \
	-clients 8 -duration 6s -scenario drift-storm -retrain-wait 90s \
	-quality -slo-gate
# The loadgen mixes repeat, so the answer cache must have served hits while
# drift observation, audit at sample 1 and retraining ran beside it. Hits
# count over every generation, so a swap does not reset them.
stats="$(curl -fsS "http://localhost:${serve_port}/stats")"
cache_hits="$(printf '%s' "${stats}" | grep -o '"answer_cache":{[^}]*}' | sed -n 's/.*"hits":\([0-9]*\).*/\1/p')"
if [ -z "${cache_hits}" ] || [ "${cache_hits}" -eq 0 ]; then
	echo "answer cache served no hit in the drift-storm run: ${stats}" >&2
	exit 1
fi
echo "answer cache hits in the drift-storm run: ${cache_hits}"
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
# real request blows a 100µs p99) must reach fast_burn on /sloz under steady
# loadgen traffic, and the flight recorder must capture a bundle for it — the
# alerting path end to end on the shipped windows and rate limit, driven by a
# real process and real HTTP latencies rather than an injected histogram.
# Windows longer than the uptime read from process start, so a few seconds of
# traffic fill all four.
echo "==> slo smoke: impossible latency target -> fast_burn + flight-recorder bundle"
serve_port=18481
serve_bin="$(mktemp -t asqp-serve.XXXXXX)"
diag_dir="$(mktemp -d -t asqp-diag.XXXXXX)"
go build -o "${serve_bin}" ./cmd/asqp-serve
# An objective outside (0,1), a sampling fraction outside [0,1] and a negative
# duration are refused before any data loads: exit non-zero, one line on stderr.
for bad in "-slo-availability 1" "-trace-sample 2" "-trace-slow -1s"; do
	# shellcheck disable=SC2086 # each case is a flag and its value
	if "${serve_bin}" ${bad} >/dev/null 2>"${diag_dir}/stderr"; then
		echo "asqp-serve accepted ${bad}" >&2
		exit 1
	fi
	if [ "$(wc -l <"${diag_dir}/stderr")" -ne 1 ]; then
		echo "asqp-serve ${bad}: want one line on stderr, got:" >&2
		cat "${diag_dir}/stderr" >&2
		exit 1
	fi
	rm -f "${diag_dir}/stderr"
done
"${serve_bin}" -addr "localhost:${serve_port}" -scale 0.02 -k 150 -light \
	-slo-latency-p99 100us -diag-dir "${diag_dir}" \
	-log warn >/dev/null &
serve_pid=$!
trap 'kill "${serve_pid}" 2>/dev/null || true; rm -f "${serve_bin}"; rm -rf "${diag_dir}"' EXIT
go run ./cmd/asqp-loadgen -url "http://localhost:${serve_port}" \
	-clients 4 -duration 4s -scenario slo-burn -slo-burn-wait 30s
kill -TERM "${serve_pid}" 2>/dev/null || true
wait "${serve_pid}" 2>/dev/null || true
rm -f "${serve_bin}"
rm -rf "${diag_dir}"
trap - EXIT

# Durability smoke: the end-to-end kill -9 story. Both lives load their
# tables from a CSV directory written once (-data), so a real process boots
# through table.ReadCSVDir. First life: asqp-serve with
# a WAL and a snapshot path takes live traffic (drift observation on, so the
# log fills with served and drift frames), then dies by SIGKILL — no drain,
# no WAL close, a real torn tail. Second life: the same binary
# restarts from the same snapshot + WAL dir (retraining off so the replayed
# drift evidence is still visible in /stats when loadgen checks), and
# asqp-loadgen -expect-recovery fails the gate unless /stats reports a
# completed recovery with replayed frames and consistent counters.
echo "==> durability smoke: kill -9 asqp-serve, restart, verify WAL recovery"
serve_port=18480
serve_bin="$(mktemp -t asqp-serve.XXXXXX)"
wal_dir="$(mktemp -d -t asqp-wal.XXXXXX)"
data_dir="$(mktemp -d -t asqp-data.XXXXXX)"
snap_file="$(mktemp -t asqp-snap.XXXXXX)"
serve_pid=""
trap 'kill -9 "${serve_pid}" 2>/dev/null || true; rm -f "${serve_bin}" "${snap_file}"; rm -rf "${wal_dir}" "${data_dir}"' EXIT
go build -o "${serve_bin}" ./cmd/asqp-serve
go run ./cmd/asqp-datagen -dataset imdb -scale 0.02 -out "${data_dir}" >/dev/null
"${serve_bin}" -addr "localhost:${serve_port}" -data "${data_dir}" -k 150 -light \
	-drift-confidence 0.15 -wal-dir "${wal_dir}" -save "${snap_file}" \
	-log warn >/dev/null &
serve_pid=$!
go run ./cmd/asqp-loadgen -url "http://localhost:${serve_port}" \
	-clients 4 -duration 3s
sleep 1 # let the group-commit syncer land the last async frames
kill -9 "${serve_pid}" 2>/dev/null || true
wait "${serve_pid}" 2>/dev/null || true
"${serve_bin}" -addr "localhost:${serve_port}" -data "${data_dir}" -load "${snap_file}" \
	-drift-confidence 0.15 -wal-dir "${wal_dir}" -save "${snap_file}" \
	-log warn >/dev/null &
serve_pid=$!
go run ./cmd/asqp-loadgen -url "http://localhost:${serve_port}" \
	-clients 2 -duration 2s -expect-recovery
kill -TERM "${serve_pid}" 2>/dev/null || true
wait "${serve_pid}" 2>/dev/null || true
rm -f "${serve_bin}" "${snap_file}"
rm -rf "${wal_dir}" "${data_dir}"
trap - EXIT

# Size: the numbers a CHANGES.md entry reports. Printed, not gated. The
# repository is Go only: the last line is expected to read 0.
echo "==> size"
echo "non-test Go lines (internal cmd scripts, without doc.go): $(find internal cmd scripts -name '*.go' ! -name '*_test.go' ! -name doc.go | xargs cat | wc -l), of which internal/obs: $(find internal/obs -name '*.go' ! -name '*_test.go' ! -name doc.go | xargs cat | wc -l)"
echo "doc.go lines: $(find internal cmd scripts -name doc.go | xargs cat | wc -l)"
echo "prose lines: DESIGN.md $(wc -l <DESIGN.md), README.md $(wc -l <README.md)"
echo "asqp-serve flags: $(grep -c '^  -' cmd/asqp-serve/testdata/help.golden), settable config values: $(go test -count=1 -run '^TestConfigSurfaceIsClosed$' -v ./internal/server | sed -n 's/.*settable values: //p')"
echo "metric catalogue rows: $(sed -n '/metric-catalogue:begin/,/metric-catalogue:end/p' DESIGN.md | grep -c '^| `')"
echo "python files: $(git ls-files '*.py' | wc -l)"

echo "==> all checks passed"
