#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build and temporary file stays under .bench_build/ there.
#
#   bash perfbench/run.sh --workload node-diurnal --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's env and telemetry files
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
