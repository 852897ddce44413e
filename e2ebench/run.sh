#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the harness from source inside
# the checkout — Go's build cache and temp files included, so nothing is
# read or written outside it — and runs it with the driver's arguments.
# The harness then builds cmd/aimserver the same way.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/e2ebench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOWORK=off
go build -C e2ebench -o .build/bin/e2ebench .
exec "$build/bin/e2ebench" "$@"
