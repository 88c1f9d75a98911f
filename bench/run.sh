#!/usr/bin/env bash
# Builds spexbench and runs it from the repository root, passing every
# argument through. Every build output, cache and temporary file stays
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

cd "$root"
go -C bench build -o "$build/bin/spexbench" ./spexbench
exec "$build/bin/spexbench" -root "$root" "$@"
