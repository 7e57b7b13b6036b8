#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), including the Go build cache.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go/tmp"

export GOCACHE=$build/go/cache GOPATH=$build/go/path XDG_CONFIG_HOME=$build/go/config
export GOTMPDIR=$build/go/tmp TMPDIR=$build/go/tmp
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
