#!/usr/bin/env bash
# Builds the serving-stack benchmark from the checkout it is run in and
# runs it; all arguments pass through, e.g.
#   bash perfbench/run.sh --workload miss --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go build cache, span
# files and temporary WAL directories all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
