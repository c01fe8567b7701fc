#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload score-cold --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live in $CARGO_TARGET_DIR (default
# .bench_build) under the current directory, so nothing is written outside
# the checkout. The benchmark is a module of its own that imports the
# repository's packages through a replace directive; without the repository
# around it the build fails and so does this script.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOENV=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
