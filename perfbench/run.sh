#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload fabric-forward --seed 1 --seconds 10 --trace 0
#
# The build cache and binary live under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, so nothing is written outside it.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTOOLCHAIN=local GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
