#!/usr/bin/env bash
# Builds the load benchmark and runs it with the given flags. Every byte
# the Go toolchain and the benchmark write stays inside the checkout:
# build cache, linked binaries and run-time temp dirs under .bench_build/,
# child logs and traces under benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
go -C "$here" build -o "$build/bin/loadbench" .
exec "$build/bin/loadbench" -root "$root" "$@"
