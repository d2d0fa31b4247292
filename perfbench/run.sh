#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# the repository; the arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload rack256-1m --seed 2021 --seconds 25 --trace 0
#
# The build cache, the binary and the spans of a traced run stay inside
# the repository, under .bench_build/ and .bench_out/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
