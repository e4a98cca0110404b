#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything it
# writes — the Go build cache, the binary, result and trace files — stays
# under the checkout: .bench_build/ at its root and benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
	export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
	go build -o "$build/tyche-benchmark" .
)
exec "$build/tyche-benchmark" -out "$here/out" "$@"
