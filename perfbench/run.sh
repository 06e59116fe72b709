#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#   bash perfbench/run.sh --workload small-ring-udp --seed 1 --seconds 10 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ at the
# checkout root, so the run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
commit=none
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"
fi
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
