#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run it from the repository root:
#
#   bash lsbbench/run.sh --workload batch-lsb --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build in the current
# directory: the binary, the Go build cache and the Go tool's own files.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd lsbbench && go build -o "$out/lsbbench" .)
exec "$out/lsbbench" "$@"
