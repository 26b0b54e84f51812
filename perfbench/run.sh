#!/usr/bin/env bash
# Builds the perfbench command from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-2048 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write (Go build cache, binary, manifests,
# profiles, span files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" PPROF_TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/out" "$@"
