#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload suite_turbosyn --seed 1 --seconds 35 --trace 0
#
# Build products and Go caches stay under .bench_build in the checkout. The
# build fails (non-zero exit, no result line) when the repository sources
# are missing.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout too.
GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
