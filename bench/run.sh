#!/usr/bin/env bash
# Builds the benchmark and burstd from source and runs the benchmark; this is
# the command BENCHMARK.json names. Run it from the repository root:
#
#   bash bench/run.sh --workload wire_query --seed 1 --seconds 10 --trace 0
#
# Everything it writes — the Go build cache included — stays under
# .bench_build/ in the current directory, so a run touches nothing outside
# its checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off

# The benchmark is a module of its own inside the repository; its replace
# directive reaches the repository's packages, cmd/burstd included.
(cd "$root/bench" && go build -o "$out/bin/" . histburst/cmd/burstd)

exec "$out/bin/bench" -burstd "$out/bin/burstd" -scratch "$out" "$@"
