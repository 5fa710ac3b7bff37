#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# driver's arguments. Everything the Go tool writes (build cache, module
# cache, telemetry) stays under .bench_build at the root of the checkout.
# In a directory without the repository's own sources the build fails, and
# so does this script, without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
