#!/usr/bin/env bash
# Builds the pincerd benchmark from the sources in this checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload jobs-dense --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Everything the build writes (compiler cache,
# temporary files, the binary) and everything a run writes (spools, database
# files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
