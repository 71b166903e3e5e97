#!/usr/bin/env bash
# bench.sh — run the serving-layer benchmarks and write the machine-readable
# perf-trajectory files (BENCH_<experiment>.json) at the repo root, so the
# numbers are committed alongside the code that produced them and diffable
# across PRs. Extra arguments pass through to rlcbench (e.g. -scale 0.01,
# -datasets AD,TW).
#
#   ./scripts/bench.sh
#   ./scripts/bench.sh -datasets AD,TW,WN
#
# Caveat recorded inside each report: on a single-CPU host the concurrent
# and parallel numbers measure scheduler overhead, not speedup — project
# multi-core performance from the measured parallel fraction.
set -euo pipefail
cd "$(dirname "$0")/.."

for exp in ingest budget repl; do
  echo "=== bench.sh: $exp -> BENCH_${exp}.json" >&2
  go run ./cmd/rlcbench -exp "$exp" -json "BENCH_${exp}.json" -quiet "$@"
done
