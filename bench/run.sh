#!/usr/bin/env bash
# Builds headbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash bench/run.sh --workload serve-json --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and traced runs' trace.json files all stay
# under .bench_build in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/headbench" ./headbench
exec "$out/headbench" "$@"
