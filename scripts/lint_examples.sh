#!/usr/bin/env bash
# Runs the tdb-lint binary over every examples/lint/*.rules file and diffs
# the text report against its checked-in .expected snapshot. Used by the
# `lint-examples` CI job; run locally from the repo root:
#
#   scripts/lint_examples.sh
#
# Regenerate snapshots after an intentional output change with:
#
#   TDB_UPDATE_SNAPSHOTS=1 cargo test --test lint_snapshots
#
# Note: tdb-lint exits 1 on deny-level findings (quickstart, login_audit);
# that is expected — only an output/snapshot divergence fails this script.
set -u

cargo build --release -p tdb-analysis --bin tdb-lint || exit 2

fail=0
for rules in examples/lint/*.rules; do
    expected="${rules%.rules}.expected"
    if [ ! -f "$expected" ]; then
        echo "MISSING SNAPSHOT: $expected" >&2
        fail=1
        continue
    fi
    actual="$(./target/release/tdb-lint "$rules")"
    if ! diff -u "$expected" <(printf '%s\n' "$actual"); then
        echo "MISMATCH: $rules diverged from $expected" >&2
        fail=1
    else
        echo "ok: $rules"
    fi
done

# The batch-safety SARIF view over the batch examples has a checked-in
# golden; CI uploads the same log as an artifact (sarif_out, below).
sarif_golden="examples/lint/batch_safety.sarif.expected"
sarif_out="${TDB_SARIF_OUT:-}"
actual_sarif="$(./target/release/tdb-lint --batch-safety --sarif \
    examples/lint/batch_notify_only.rules \
    examples/lint/batch_stratified.rules \
    examples/lint/batch_cascade.rules)"
if ! diff -u "$sarif_golden" <(printf '%s\n' "$actual_sarif"); then
    echo "MISMATCH: --batch-safety --sarif diverged from $sarif_golden" >&2
    fail=1
else
    echo "ok: batch-safety SARIF golden"
fi
if [ -n "$sarif_out" ]; then
    printf '%s\n' "$actual_sarif" > "$sarif_out"
fi
exit $fail
