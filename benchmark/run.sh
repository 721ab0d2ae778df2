#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): build the benchmark from
# source inside the checkout, then run it with the driver's arguments
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the Go toolchain writes (build cache, temp files, telemetry
# counters) is kept under .bench_build in the checkout. In a directory
# without the module's sources the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the program under test is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
go build -o "$build/tebis-benchmark" ./benchmark
exec "$build/tebis-benchmark" "$@"
