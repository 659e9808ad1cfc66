#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through (--workload, --seed, --seconds, --trace). The Go build
# cache, the binary, the logs and the span files all stay under
# .bench_build at the checkout root, so a run writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out" "$@"
