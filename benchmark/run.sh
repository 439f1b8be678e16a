#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout it sits in and runs it there. Everything the build writes
# (Go build cache included) stays under benchmark/out/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/bin
export GOCACHE="$PWD/out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o out/bin/benchmark .
cd ..
exec benchmark/out/bin/benchmark "$@"
