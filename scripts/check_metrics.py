#!/usr/bin/env python3
"""Checks the E16 observability results.

Usage: check_metrics.py [BENCH_E16.json] [BENCH_E16_METRICS.json]

BENCH_E16.json (harness table): schema check, instrumentation must not
change the firing sequence, and the enabled row must record a healthy
spread of metric families (>= 12 per the PR-5 acceptance bar).

BENCH_E16_METRICS.json (global registry snapshot, written by the harness's
--metrics-json flag): structural check plus cross-layer coverage — the
free-function instrumentation sites (engine states, parteval atom and query
memo, the advance kernel, readset fan-out, relation deltas) must all have
recorded.
"""
import json
import sys

FIELDS = {"rules", "relations", "obs_enabled", "us_per_state", "states_per_sec",
          "overhead_pct", "identical_firings", "distinct_metrics"}

# Metric families the harness run must touch, one per instrumented layer
# that records through free functions into the global registry.
GLOBAL_COVERAGE = {
    "tdb_states_total",           # engine
    "tdb_atom_memo_lookups_total",  # core/parteval
    "tdb_atom_evaluations_total",   # core/incremental (advance kernel)
    "tdb_query_memo_lookups_total",  # core/parteval (ground-query memo)
    "tdb_readset_affected_marks_total",  # core/readset
    "tdb_delta_touched_names_total",     # relation
}

table_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_E16.json"
doc = json.load(open(table_path))
rows = doc["rows"]
assert doc["experiment"] == "e16" and rows, "not an E16 result"
for row in rows:
    missing = FIELDS - row.keys()
    assert not missing, f"row missing fields: {sorted(missing)}"
    assert row["identical_firings"] is True, f"firings diverged: {row}"
on_rows = [r for r in rows if r["obs_enabled"]]
assert on_rows, "no obs-enabled row"
for row in on_rows:
    assert row["distinct_metrics"] >= 12, \
        f"expected >= 12 distinct metric families, got {row['distinct_metrics']}"
print(f"check_metrics: table OK ({len(rows)} rows, firings identical, "
      f"{on_rows[0]['distinct_metrics']} families recorded)")

if len(sys.argv) > 2:
    snap = json.load(open(sys.argv[2]))
    for section in ("counters", "gauges", "histograms"):
        assert section in snap, f"snapshot missing section {section!r}"
    recorded = set(snap["counters"]) | set(snap["gauges"]) | set(snap["histograms"])
    missing = GLOBAL_COVERAGE - recorded
    assert not missing, f"layers missing from global snapshot: {sorted(missing)}"
    for hist in snap["histograms"].values():
        total = sum(n for _, n in hist["buckets"])
        assert total == hist["count"], f"histogram buckets disagree with count: {hist}"
    print(f"check_metrics: snapshot OK ({len(recorded)} global families, "
          "all instrumented layers present)")
