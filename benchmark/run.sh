#!/usr/bin/env bash
# run.sh — the command BENCHMARK.json names. It builds the harness (this
# directory, a module of its own that imports the parent's internal
# packages through a replace directive) and hands it every argument. The
# harness then builds rlcbuild, rlcserve, rlccluster and rlcrouter from the
# parent module. Everything the Go toolchain and the harness write — build
# cache, link scratch, telemetry, binaries, bundles, child logs — lands in
# .bench_build/ at the repository root, so a run touches nothing outside
# its checkout. Without the parent module the build fails and the script
# exits non-zero before anything is measured.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -root "$PWD" "$@"
