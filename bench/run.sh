#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source into
# .bench_build/ under the repository root, keeping the Go build cache and
# every other file the toolchain writes inside the checkout, then runs it
# from the root with the arguments given:
#
#   bash bench/run.sh --workload infer-hub --seed 1 --seconds 16 --trace 0
#
# Without the repository around bench/ (no ../go.mod) the build fails and
# this exits non-zero before anything is measured.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/agnn-bench" .)
cd "$root"
exec "$build/agnn-bench" "$@"
