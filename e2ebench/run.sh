#!/usr/bin/env bash
# Builds caai-serve and the e2ebench program from source, then runs
# e2ebench with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload identify --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (the Go build cache, binaries,
# Chrome traces) stays under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local

go build -o "$out/caai-serve" ./cmd/caai-serve
go build -C e2ebench -o "$out/e2ebench" .
exec "$out/e2ebench" -serve "$out/caai-serve" -out "$out" "$@"
