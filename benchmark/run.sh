#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it,
# passing every argument through. Run from the repository root:
#
#   bash benchmark/run.sh --workload table1-small --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh compare parent.jsonl change.jsonl
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$out/agingbench" .)
exec "$out/agingbench" "$@"
