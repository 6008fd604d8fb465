#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash lvabench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds, caches and writes
# stays under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOTELEMETRY=off
(cd "${root}/lvabench" && go build -o "${out}/bin/lvabench" .)
exec "${out}/bin/lvabench" "$@"
