#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it. Run from anywhere:
#
#   bash perfbench/run.sh --workload calibrate --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the serve workload's data directories
# live under .bench_build/ at the checkout root, so nothing is read or written
# outside the checkout apart from the Go toolchain itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "${here}")"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/go-cache" GOMODCACHE="${build}/go-mod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "${here}" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" -data "${build}" "$@"
