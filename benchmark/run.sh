#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain writes (build cache, temporaries, telemetry counters, the binary)
# under .bench_build/ in the checkout. Run from anywhere; arguments go to the
# benchmark:
#
#   bash benchmark/run.sh --workload deep-dig --seed 20040613 --seconds 25 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: the rankopt module (go.mod, internal/) is not in $PWD; nothing to measure" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The go command keeps its telemetry under XDG_CONFIG_HOME and, on the first run
# against a fresh directory, detaches a child of itself that outlives it. Mode
# "off" written beforehand means no counters and no child: everything this
# script starts has ended when it exits.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/topk-bench" ./benchmark
exec "$build/topk-bench" "$@"
