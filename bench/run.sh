#!/usr/bin/env bash
# Builds aeolusperf from source and runs it from the repository root with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload scale-h256 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -reps 5 -out set.json
#
# Everything the build and the runs write stays under .bench_build at the
# repository root: the Go build cache, temporary files, the binary and the
# traced output. The toolchain must already be installed; nothing is
# downloaded.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOWORK=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/home/go" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache" PPROF_TMPDIR="$out/tmp"

(cd "$root/bench" && go build -o "$out/aeolusperf" ./cmd/aeolusperf)
cd "$root"
exec "$out/aeolusperf" "$@"
