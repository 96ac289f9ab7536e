#!/usr/bin/env bash
# Builds the benchmark against the checkout's own source and runs it with the
# given arguments, from the caller's directory. Everything the build leaves behind (Go's build cache,
# temporaries, telemetry counters) stays in .bench_build/ at the root of the
# checkout; everything a run leaves behind stays in bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/focusbench" .)
exec "$build/focusbench" --outdir "$here/out" "$@"
