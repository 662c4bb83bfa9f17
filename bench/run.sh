#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build leaves behind (Go build cache, temp files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ocular-bench" .)
cd "$root"
exec "$build/ocular-bench" "$@"
