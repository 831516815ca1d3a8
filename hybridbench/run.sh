#!/usr/bin/env bash
# Builds the hybrid-CNN benchmark from the source tree it sits in and runs it
# with the given arguments. Run from the repository root:
#
#   bash hybridbench/run.sh --workload serve-full --seed 1 --seconds 36 --trace 0
#
# Every build artefact (binary, Go build cache, traces) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/hybridbench" && go build -o "$out/hybridbench" .)
exec "$out/hybridbench" "$@"
