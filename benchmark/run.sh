#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it with the
# given flags (see README.md). Everything the go command writes — build cache,
# module cache, temporary files, telemetry — is kept under .bench_build, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -C benchmark -o "$build/reachac-benchmark" .
exec "$build/reachac-benchmark" "$@"
