#!/usr/bin/env bash
# The command of BENCHMARK.json: builds ./benchmark from source and runs it,
# passing every argument through. Build outputs and the Go build cache stay
# inside the checkout, under .bench_build/ (git-ignored), so a run reads and
# writes nothing outside the directory it was started in.
#
#   bash benchmark/run.sh --workload segment_hot --seed 7 --seconds 20 --trace 0
#
# By hand, `go run ./benchmark <flags>` does the same with the user's cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/rumble-benchmark" ./benchmark
exec "$build/rumble-benchmark" "$@"
