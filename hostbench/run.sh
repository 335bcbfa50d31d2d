#!/usr/bin/env bash
# Builds the hostbench program from this checkout's sources and runs it
# with the given arguments, from the repository root:
#
#   bash hostbench/run.sh --workload gups-place --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and Go's own state files stay in
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. Without
# the repository's sources beside it the build fails and so does this
# script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C hostbench build -o "$build/hostbench" .
exec "$build/hostbench" "$@"
