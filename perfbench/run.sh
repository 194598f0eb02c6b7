#!/usr/bin/env bash
# Builds the layered optimizer benchmark from the sources of the checkout
# it is started in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload cold-greedy-grid400 --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Everything the build and the runs write
# stays under .bench_build/ and perfbench/out/ in that checkout.
set -euo pipefail

root=$PWD
build="$root/.bench_build/perfbench"
mkdir -p "$build"

env GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
	go build -C "$root/perfbench" -buildvcs=false -o "$build/perfbench" .

exec "$build/perfbench" "$@"
