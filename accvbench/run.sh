#!/usr/bin/env bash
# Builds the accv benchmark driver from source and runs it from the
# checkout root:
#
#   bash accvbench/run.sh --workload suite-release --seed 1 --seconds 15 --trace 0
#
# Every build artifact, Go cache and temporary file stays under
# .bench_build/ in the checkout, so a run reads and writes nothing else.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/accvbench" build -o "$out/accvbench" .
exec "$out/accvbench" -root "$root" "$@"
