#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it from benchmark/. The Go build cache, module cache and temp
# directory are kept under .bench_build/ at the root of the checkout, so a
# run writes nothing outside the checkout it was started in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$here"
go build -o "$build/nucabench" .
exec "$build/nucabench" "$@"
