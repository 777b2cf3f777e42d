#!/usr/bin/env bash
# Builds weakbench from the checkout's sources and runs it. Run it from the
# repository root; every file it writes (Go build cache, binary, temporary
# job stores, span files, Go's own configuration) stays under .bench_build/
# there.
#
#   bash cmd/weakbench/run.sh --workload bulk_direct --seed 3 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/cmd/weakbench" && go build -o "$out/weakbench" .)
exec "$out/weakbench" "$@"
