#!/usr/bin/env python3
"""Runs the end-to-end suite twice on this commit and compares the two sets.

For every workload and end-to-end metric it prints both medians, their
relative difference, and (with --runs >= 4) each set's quartile spread, the
way the acceptance driver computes them: distance between the first and third
quartile of `statistics.quantiles(values, n=4)` as a share of the median.
Exits non-zero if the second set is worse than the first by more than the
metric's bound in BENCHMARK.json, if a spread (setup_s excepted) exceeds its
bound, or if any run is incorrect.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.stdout.write(out.stdout)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--runs", type=int, default=1, help="runs per set, each with its own seed")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workload", default=None)
    ap.add_argument("--dump", default=None, help="write every run's metrics to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"] if args.workload in (None, w["name"])]

    failures = []
    dump = {}
    print(f"{'workload':<15} {'metric':<17} {'set 1':>12} {'set 2':>12} {'diff':>8} {'bound':>6} {'iqr 1':>7} {'iqr 2':>7}")
    for workload in workloads:
        sets = []
        for s in range(2):
            seeds = range(args.seed + s * args.runs, args.seed + (s + 1) * args.runs)
            sets.append([run_once(args.bin, workload, seed, seconds) for seed in seeds])
        dump[workload] = sets
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = ([run[name] for run in runs] for runs in sets)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spreads = [spread(a), spread(b)]
            verdict = ""
            if worse > bound:
                verdict = "  WORSE"
                failures.append(f"{workload}/{name}: set 2 worse by {worse:.1%} (bound {bound:.0%})")
            for sp in spreads:
                if sp is not None and name != "setup_s" and sp > bound:
                    verdict = "  NOISY"
                    failures.append(f"{workload}/{name}: spread {sp:.1%} exceeds bound {bound:.0%}")
            cells = ["      -" if sp is None else f"{sp:7.1%}" for sp in spreads]
            print(f"{workload:<15} {name:<17} {ma:>12.4f} {mb:>12.4f} {worse:>+8.1%} {bound:>6.0%} {cells[0]} {cells[1]}{verdict}", flush=True)
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(dump, f, indent=1)
    for f in failures:
        print("FAILED:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
