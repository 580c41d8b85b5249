#!/usr/bin/env bash
# run.sh — build the benchmark and the bearbench worker from source, then run
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mcf-bear --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (compiler
# cache, binaries, temporary result stores), so the checkout is the only
# directory touched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# bearbench is built without VCS stamping, so the fingerprint it announces
# ("dev") is the one the benchmark's in-process server expects.
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/bearbench" ./cmd/bearbench

exec "$out/perfbench" -bearbench "$out/bearbench" -workdir "$out/tmp" "$@"
