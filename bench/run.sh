#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload live-mysqld --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -seed 1 -out results.json
#
# The build cache and the binary live in .bench_build/ at the root, and the
# build never reaches the network: the benchmark needs only the standard
# library and this repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/bench" build -o "$out/aprof-bench" .
exec "$out/aprof-bench" "$@"
