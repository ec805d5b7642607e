#!/usr/bin/env bash
# Builds stackbench from the sources of the checkout it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash stackbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the cluster's data directories and the
# span dumps all stay under .bench_build/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

# The module replaces zerberr with the checkout (../), so a copy of
# this directory without the repository around it fails here.
(cd "$here" && go build -o "$out/bin/stackbench" .) >&2
exec "$out/bin/stackbench" "$@"
