#!/usr/bin/env bash
# Paired A/B benchmark of two checkouts on one workload.
#
#   scripts/bench_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD PAIRS
#
# Pair k runs `benchmark/run.sh --workload WORKLOAD --seed k --seconds 10
# --trace 0` once in each tree; odd pairs run the parent first, even pairs
# the change first. Each tree builds into its own `.bench_build`. For every
# end-to-end metric in the change tree's BENCHMARK.json it prints both
# medians, the per-pair relative change (min, median, max; positive is
# better), how many pairs improved, each side's quartile spread as a
# share of its median (4 pairs or more), and a verdict. The verdict is
# informational and gates nothing: `gain` when the change is better in at
# least 90 % of the pairs and its median change exceeds the parent's
# quartile spread, `worse` when the median change is worse than the
# metric's BENCHMARK.json bound, `-` otherwise. Exits non-zero if a run
# fails or is not `correct` with 0 failed operations.
set -euo pipefail
if [ $# -ne 4 ]; then
    echo "usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD PAIRS" >&2
    exit 2
fi
exec python3 - "$@" <<'EOF'
import json
import os
import statistics
import subprocess
import sys

parent, change, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}


def spread(values):
    """Quartile spread as a share of the median; None under 4 values."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def show(share):
    return "      -" if share is None else f"{share:7.1%}"


def run(tree, seed):
    out = subprocess.run(
        ["benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", "10", "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.stdout.write(out.stdout)
        raise SystemExit(f"{tree} seed {seed}: run failed (exit {out.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


with open(os.path.join(change, "BENCHMARK.json")) as f:
    metrics = json.load(f)["end_to_end"]

runs = {"parent": [], "change": []}
for k in range(1, pairs + 1):
    order = [("parent", parent), ("change", change)]
    if k % 2 == 0:
        order.reverse()
    for side, tree in order:
        runs[side].append(run(tree, k))
    print(f"pair {k}/{pairs} done ({order[0][0]} first)", file=sys.stderr, flush=True)

print(f"{workload}: {pairs} pairs, all runs correct with 0 failed")
print(f"{'metric':<17} {'parent':>12} {'change':>12} {'min':>8} {'median':>8} {'max':>8} {'better':>7} {'iqr p':>7} {'iqr c':>7} verdict")
for m in metrics:
    name = m["name"]
    a = [r[name] for r in runs["parent"]]
    b = [r[name] for r in runs["change"]]
    sign = 1 if m["better"] == "higher" else -1
    gains = [sign * (y - x) / x if x else 0.0 for x, y in zip(a, b)]
    better = sum(g > 0 for g in gains)
    median = statistics.median(gains)
    parent_spread = spread(a)
    if better >= 0.9 * pairs and parent_spread is not None and median > parent_spread:
        verdict = "gain"
    elif median < -m["bound"]:
        verdict = "worse"
    else:
        verdict = "-"
    print(f"{name:<17} {statistics.median(a):>12.4f} {statistics.median(b):>12.4f} "
          f"{min(gains):>+8.1%} {median:>+8.1%} {max(gains):>+8.1%} "
          f"{better:>4}/{pairs:<2} {show(parent_spread)} {show(spread(b))} {verdict}")
EOF
