#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping
# every build artifact and cache inside <checkout>/.bench_build.
#
#   bash perfbench/run.sh --workload warm-direct --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The build needs the repository
# module one directory above perfbench/; without it the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gopath" "${out}/tmp" "${out}/config"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp"
# The go command's telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="${out}/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off CGO_ENABLED=0
commit="unknown"
if command -v git >/dev/null 2>&1; then
  commit="$(git -C "${root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
export PERFBENCH_COMMIT="${commit}"
exec "${out}/perfbench" "$@"
