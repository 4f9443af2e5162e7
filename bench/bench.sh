#!/usr/bin/env bash
# One benchmark run, the way BENCHMARK.json's command starts it:
#
#   bash bench/bench.sh --workload explore_hit --seed 1 --seconds 12 --trace 0
#
# Builds the bench (and, from inside it, cmd/asqp-serve) from the sources of
# this checkout and runs it from the repository root. Everything the go tool
# writes - build cache included - stays under bench/out, so a run reads and
# writes only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/bench/out"
mkdir -p "$out/bin" "$out/go/cache" "$out/go/path" "$out/go/config"
export GOCACHE="$out/go/cache" GOPATH="$out/go/path" GOMODCACHE="$out/go/path/pkg/mod"
export XDG_CONFIG_HOME="$out/go/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/bench" && go build -trimpath -buildvcs=false -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" "$@"
