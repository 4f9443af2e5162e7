#!/usr/bin/env bash
# The whole suite on this checkout: every workload end to end, then traced,
# then the per-layer budget (LAYERS.md). Fails if any output check fails.
#
#   bench/run.sh [seed=1] [seconds=12] [extra bench flags, e.g. -quick]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
seconds="${2:-12}"
shift $(( $# > 2 ? 2 : $# ))
for w in explore_hit explore_miss durable_mix train_pipeline; do
  for trace in 0 1; do
    echo "== $w seed $seed trace $trace"
    bash "$here/bench.sh" -workload "$w" -seed "$seed" -seconds "$seconds" -trace "$trace" "$@" | grep -v '^{' 
  done
done
bash "$here/bench.sh" report -seed "$seed"
