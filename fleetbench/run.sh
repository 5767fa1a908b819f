#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout and runs it, e.g.
#
#   bash fleetbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$root/fleetbench" && go build -o "$build/fleetbench" .)
cd "$root"
exec "$build/fleetbench" "$@"
