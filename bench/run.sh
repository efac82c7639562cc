#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: runs the benchmark from the root
# of a checkout with every build product kept inside that checkout.
# The Go build cache and temp directory default to $HOME and /tmp; the
# benchmark may read and write only its own checkout, so both move under
# .bench_build/. Arguments pass through to `go run -C bench .`.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build/gocache" "$root/.bench_build/gotmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root"
exec go run -C bench . "$@"
