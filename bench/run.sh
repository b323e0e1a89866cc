#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#   bash bench/run.sh --workload spec --seed 1 --seconds 15 --trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory, including the Go build cache.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -trimpath -o "$out/bench" .
exec "$out/bench" "$@"
