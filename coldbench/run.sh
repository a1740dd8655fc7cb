#!/usr/bin/env bash
# Builds the cold end-to-end benchmark from this checkout's source and runs
# it. Every build product, cache and output stays under .bench_build/ at the
# root of the checkout.
#
#   bash coldbench/run.sh --workload large-icmp --seed 2024 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/coldbench.bin" .)
cd "$root"
exec "$build/coldbench.bin" "$@"
