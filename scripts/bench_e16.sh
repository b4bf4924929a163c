#!/usr/bin/env bash
# Runs the E16 observability-overhead experiment (obs off vs a recording
# registry over the sparse-update workload) and leaves a
# machine-readable copy in BENCH_E16.json at the repo root, plus a full
# metrics snapshot in BENCH_E16_METRICS.json.
#
# Usage:
#   scripts/bench_e16.sh            # full run (1000 rules / 100 relations)
#   scripts/bench_e16.sh --quick    # smaller run for smoke tests / CI
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release -p tdb-bench

./target/release/harness e16 --metrics-json BENCH_E16_METRICS.json "$@"

if [[ -f BENCH_E16.json ]]; then
    echo "== BENCH_E16.json =="
    cat BENCH_E16.json
    python3 scripts/check_metrics.py BENCH_E16.json BENCH_E16_METRICS.json
fi
