#!/usr/bin/env bash
# Entry point of the repository benchmark (BENCHMARK.json names it): builds
# the benchmark from source into .bench_build/ at the root of the checkout,
# then runs it with the given arguments. Everything Go writes while
# building (build cache included) stays under .bench_build/, so a run reads
# and writes only inside its checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-modcacherw
go build -C "$here" -o "$build/subsum-benchmark" .
cd "$root"
exec "$build/subsum-benchmark" "$@"
