#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload anagram --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary and every Go cache the
# build touches live under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
src="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$src" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
