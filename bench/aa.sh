#!/usr/bin/env bash
# A/A harness: runs the end-to-end suite as two interleaved sets of N runs on
# the same commit, each run with another seed (set A: 1..N, set B: 101..100+N),
# then compares the sets. Fails when the sets' medians differ by more than a
# metric's bound or a spread exceeds it.
#
#   bench/aa.sh [N=5] [seconds=12]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-5}"
seconds="${2:-12}"
rm -rf "$here/out/aa"
mkdir -p "$here/out/aa/a" "$here/out/aa/b"
for i in $(seq 1 "$n"); do
  for set in a b; do
    seed=$i
    [ "$set" = b ] && seed=$((100 + i))
    for w in explore_hit explore_miss durable_mix train_pipeline; do
      echo "== set $set run $i: $w seed $seed" >&2
      bash "$here/bench.sh" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 >/dev/null
      cp "$here/out/$w-$seed.json" "$here/out/aa/$set/"
    done
  done
done
bash "$here/bench.sh" aa "${@:3}"
