#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash bench/run.sh --workload paper-queries --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, Go config, the binary) stays
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$out/ppbenchmark" .
exec "$out/ppbenchmark" "$@"
