#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload design --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output, the Go build cache, traces and run records all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. Only the
# benchmark's result line goes to standard output.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
