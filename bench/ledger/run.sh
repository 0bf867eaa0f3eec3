#!/usr/bin/env bash
# Build casurf_ledger and casurf_run from this checkout, then run the
# benchmark with the given arguments, e.g.
#   bash bench/ledger/run.sh --workload zgb-500 --seed 3 --seconds 35 --trace 0
# Build output goes to stderr; stdout carries only the benchmark's lines.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/ledger"
cmake -S "$root/bench/ledger" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j4 --target casurf_ledger >&2
exec "$build/casurf_ledger" "$@"
