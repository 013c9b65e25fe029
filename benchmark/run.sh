#!/usr/bin/env bash
# Entry point the benchmark driver calls (see BENCHMARK.json): build the
# benchmark from source into .bench_build inside the checkout — build cache,
# temporary files and the go command's configuration (XDG_CONFIG_HOME) included,
# nothing is written outside it — then run it. Go telemetry is switched off
# in that configuration: left on, the first go command in a fresh
# configuration directory starts a detached `go` child for the counter upload
# that outlives this script when the build fails at once.
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/croesus-benchmark" ./benchmark
exec "$build/croesus-benchmark" "$@"
