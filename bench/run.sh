#!/usr/bin/env bash
# Builds the aqtperf benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-trace 0|1] ...
#
# The build cache, the binary and every temporary file stay under
# .bench_build/ in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go -C bench build -o "$out/aqtperf" ./aqtperf
exec "$out/aqtperf" "$@"
