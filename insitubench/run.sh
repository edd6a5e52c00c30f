#!/usr/bin/env bash
# Builds the in-situ benchmark from this checkout's source and runs it.
#
#   bash insitubench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes (binary, Go build cache, data files, fingerprints)
# goes under $CARGO_TARGET_DIR, default .bench_build, relative to
# the directory it is run from.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp" "$out/home"

# Keep the Go toolchain's caches, settings and temporary files inside the
# checkout, and keep it offline.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/insitubench" .)
exec "$out/insitubench" --workdir "$out" "$@"
