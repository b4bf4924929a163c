#!/usr/bin/env bash
# The one command: builds tdb-server and the benchmark (offline, release)
# and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one mode; the last line of output is the JSON result
#   benchmark/run.sh [--seed N] [--seconds S]
#       all four workloads, end-to-end run then traced run each
#   benchmark/run.sh --selfcheck [--runs N] [--seed N] [--seconds S]
#       the suite twice on this commit, compared metric by metric
#       against the bounds in BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."

# Refuse to run (and print no result) unless the sources are there.
for f in Cargo.toml crates/server/Cargo.toml benchmark/Cargo.toml; do
    [ -f "$f" ] || { echo "benchmark/run.sh: $f not found: not a tdb checkout" >&2; exit 3; }
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Both builds log to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet -p tdb-server --bin tdb-server >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
case "$CARGO_TARGET_DIR" in
    /*) bin="$CARGO_TARGET_DIR/release/tdb-benchmark" ;;
    *) bin="./$CARGO_TARGET_DIR/release/tdb-benchmark" ;;
esac

# Everything but --selfcheck goes through to the program as it came.
workload="" selfcheck=0 pass=() prev=""
for arg in "$@"; do
    if [ "$arg" = --selfcheck ]; then selfcheck=1; else pass+=("$arg"); fi
    if [ "$prev" = --workload ]; then workload="$arg"; fi
    prev="$arg"
done

if [ "$selfcheck" = 1 ]; then
    exec python3 benchmark/selfcheck.py --bin "$bin" ${pass[@]+"${pass[@]}"}
fi
if [ -n "$workload" ]; then
    exec "$bin" ${pass[@]+"${pass[@]}"}
fi
status=0
for w in commit_durable eval_fanout batch_durable vt_stream; do
    for trace in 0 1; do
        "$bin" --workload "$w" --trace "$trace" ${pass[@]+"${pass[@]}"} || status=1
        echo
    done
done
exit $status
