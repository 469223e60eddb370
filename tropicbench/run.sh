#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#	bash tropicbench/run.sh --workload ec2-spawn --seed 1 --seconds 32 --trace 0
#
# Every build product, cache and data directory stays under .bench_build
# in the directory it is run from. The last line of standard output is
# the JSON result.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
(cd "$src" && go build -o "$out/tropicbench" .) >&2
exec "$out/tropicbench" --work "$out" "$@"
