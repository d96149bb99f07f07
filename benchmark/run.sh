#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# leaves behind (binary, Go build cache) stays under .bench_build/ in the
# checkout; everything a run writes stays under benchmark/.cache/ and
# benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go -C "$here" build -o "$build/gpsa-benchmark" .
exec "$build/gpsa-benchmark" -home "$here" "$@"
