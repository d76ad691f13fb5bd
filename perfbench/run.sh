#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload anns-read --seed 1 --seconds 10 --trace 0
#
# Every build product and run record stays under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
