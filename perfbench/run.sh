#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload tune-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20
#
# Run from the root of the repository. Every build artifact, temp file and
# trace lands under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
# The go command keeps its telemetry counters under the user config
# directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$build/config"

# The build fails (and so does the run) unless the repository's Go sources
# sit one directory above this script.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" --out "$build" "$@"
