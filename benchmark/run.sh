#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Everything
# the Go toolchain writes (build cache, temporary files, its own settings)
# is kept under .bench_build in the checkout. Arguments go to the program:
#
#   bash benchmark/run.sh --workload paper_plans --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -selfcheck -runs 5
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/nalbenchmark" .
exec "$build/nalbenchmark" "$@"
