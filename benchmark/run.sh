#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given (see BENCHMARK.json and benchmark/README.md).
# Every file Go writes — build cache, temporaries, the binary — stays
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -root "$root" "$@"
