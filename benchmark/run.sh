#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ under the checkout root and runs it with the caller's
# arguments. Every file the Go toolchain and the benchmark write stays inside
# the checkout.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/amserver" ] || [ ! -f "$root/benchmark/go.mod" ]; then
  echo "benchmark/run.sh: run from the root of a umac checkout (go.mod, cmd/amserver and benchmark/ must be there)" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOTMPDIR="$build/tmp"
(cd "$root/benchmark" && go build -o "$build/bin/umacbench" .)
exec "$build/bin/umacbench" -root "$root" "$@"
