#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, keeping the Go
# build cache and every build output under .bench_build/ in the checkout.
#
# Usage (from the root of the repository):
#
#   bash perfbench/run.sh --workload serve-io --seed 1 --seconds 10 --trace 0
#
# Workloads: serve-io, serve-observe, campus-chaos. The last line of
# standard output is the JSON result; see perfbench/README.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

cd "$root/perfbench"
# A checkout without version-control metadata builds without the vcs
# stamp; the manifest then reports the commit as unknown.
go build -o "$build/perfbench" . 2>/dev/null || go build -buildvcs=false -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
