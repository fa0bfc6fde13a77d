#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source into
# .bench_build/ at the checkout root (first call only does real work; go's
# build cache lives there too, so nothing is written outside the checkout)
# and run it with the arguments given, from the checkout root.
#
#   bash benchmark/bench.sh --workload md.lj --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Everything the go tool writes (build cache, module cache, telemetry
# counters) is pointed inside .bench_build/; the benchmark has no module
# dependencies outside this repository, so nothing is downloaded.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# Every number is stated at two cores; MLMD_WORKERS would override the pool.
export GOMAXPROCS=2
unset MLMD_WORKERS MLMD_ALLEGRO_BLOCK
(cd "$here" && go build -o "$build/mlmdbench" .)
cd "$root"
exec "$build/mlmdbench" "$@"
