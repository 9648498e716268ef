#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; all arguments
# pass through (see BENCHMARK.json). Run it from the repository root:
# the binary, the Go build cache and every other file the Go tool
# writes stay under .bench_build/ there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
