#!/usr/bin/env bash
# Builds the end-to-end benchmark and the ioschedbench worker binary from
# this checkout, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash bench/e2e/run.sh --workload sweep-cold --seed 1 --seconds 12 --trace 0
#
# Binaries, the Go build cache and the benchmark's scratch files all stay
# under .bench_build/e2e. Build output goes to standard error, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail

out="$PWD/.bench_build/e2e"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench/e2e && go build -o "$out/" . repro/cmd/ioschedbench) >&2
exec "$out/e2e" -bin "$out/ioschedbench" -workdir "$out/work" "$@"
