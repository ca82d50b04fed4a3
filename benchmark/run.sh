#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# flags, e.g.: bash benchmark/run.sh --workload hot-requery --seed 1
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" -work "$out/work" -out "$out/spans" "$@"
