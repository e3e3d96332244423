#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-timing --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays in .bench_build of the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gotmp"
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
	go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
