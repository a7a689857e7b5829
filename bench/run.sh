#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload usecase --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --compare old.jsonl new.jsonl
#
# The Go build cache, temporary files and the binary live in
# .bench_build/ at the root, so a run reads and writes only inside the
# checkout. Without the repository's own Go module next to bench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -buildvcs=false -o "$out/bench-runner" .)
exec "$out/bench-runner" "$@"
