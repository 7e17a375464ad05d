#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it. Run it
# from the repository root, e.g.
#   bash benchmark/run.sh --workload transfer --seed 1 --seconds 10 --trace 0
# Build outputs stay under .bench_build/ and the build never uses the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

sha=unknown
if [ -e "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/benchmark" && go build -trimpath -buildvcs=false -o "$out/benchmark" .)
exec "$out/benchmark" --git-sha "$sha" "$@"
