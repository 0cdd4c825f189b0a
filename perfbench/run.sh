#!/usr/bin/env bash
# Builds the benchmark and the polyserve binary from the checkout's
# sources, then runs one workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload scale-51k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# The compiler's work directories and the benchmark's own temporary
# files stay in the checkout too.
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
go build -o "$out/polyserve" ./cmd/polyserve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
