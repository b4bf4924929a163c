#!/usr/bin/env python3
"""Schema/correctness check for BENCH_E21.json (watermarked out-of-order
ingestion over the valid-time layer).

Every bar here is structural or a ratio between cells of the same run — the
run is single-threaded and in-library, so no host-speed floors are needed:

* arrival-independence: every cell's definite log is byte-identical to an
  in-order oracle replay of the same history, and because the generator
  fixes the value history across cells, the confirmed count is the same
  number in every row of the sweep;
* stream soundness: once the final flush passes the watermark over every
  ingested instant, each tentative announcement has settled to exactly one
  confirmation or retraction (tentative == confirmed + retracted), and an
  in-order cell never retracts;
* O(Δ) memory: the peak retained history is a small constant over Δ and
  does not scale with the event count;
* bounded latency: the mean valid-instant-to-confirmation lag sits in
  [0, Δ + 2] (the watermark must pass *strictly* beyond an instant to
  confirm it, hence the +2 slack on integer ticks);
* ingest cost follows the touched suffix, not the Δ window (§9: "starting
  with the oldest system state that was updated"): an in-order stream at the
  widest Δ costs at most 3x what it costs at Δ = 0 (it was 13x when every
  ingest rebuilt the window), and at 200 permille disorder the widest Δ costs
  at most 3x the narrowest non-zero one. Each cell's time is the fastest of
  three passes, so a scheduling stall in one cell does not read as a
  cost."""
import json
import sys

doc = json.load(open(sys.argv[1] if len(sys.argv) > 1 else "BENCH_E21.json"))
assert doc.get("experiment") == "e21", "not an E21 result"
rows = doc["rows"]
assert rows, "no rows"

deltas = sorted({r["max_delay"] for r in rows})
rates = sorted({r["rate_permille"] for r in rows})
assert len(deltas) >= 2 and len(rates) >= 2, \
    f"sweep too small: deltas={deltas} rates={rates}"

confirmed_counts = {r["confirmed"] for r in rows}
for r in rows:
    cell = f"Δ={r['max_delay']} rate={r['rate_permille']}‰"
    # --- arrival-independence ------------------------------------------
    assert r["oracle_identical"], \
        f"{cell}: definite log diverged from the in-order oracle"
    # --- stream soundness ----------------------------------------------
    assert r["tentative"] == r["confirmed"] + r["retracted"], \
        (f"{cell}: {r['tentative']} tentative != "
         f"{r['confirmed']} confirmed + {r['retracted']} retracted")
    if r["rate_permille"] == 0 or r["max_delay"] == 0:
        assert r["disordered"] == 0, f"{cell}: in-order cell reports lateness"
        assert r["retracted"] == 0, f"{cell}: in-order cell retracted a firing"
    elif r["disordered"] > 0:
        assert r["retracted"] > 0, \
            f"{cell}: {r['disordered']} late arrivals but nothing retracted"
    # --- O(Δ) memory ---------------------------------------------------
    assert r["max_live_states"] <= r["max_delay"] + 8, \
        (f"{cell}: {r['max_live_states']} live states exceeds "
         f"Δ + 8 = {r['max_delay'] + 8}")
    assert r["max_live_states"] * 4 <= r["events"], \
        f"{cell}: retained history scales with the event count"
    # --- bounded confirmation latency ----------------------------------
    assert 0.0 <= r["mean_confirm_lag"] <= r["max_delay"] + 2, \
        (f"{cell}: mean confirm lag {r['mean_confirm_lag']:.2f} outside "
         f"[0, Δ + 2]")

# The generator holds the value history fixed across cells, so the
# definite stream — already oracle-checked per cell — must also be the
# same *count* everywhere in the sweep.
assert len(confirmed_counts) == 1, \
    f"confirmed count varies across cells: {sorted(confirmed_counts)}"

# --- cost follows the touched suffix, not Δ -----------------------------
cost = {(r["max_delay"], r["rate_permille"]): r["us_per_event"] for r in rows}
RATIO_BAR = 3.0
ratios = []
if 0 in deltas and 0 in rates:
    wide, base = cost[(deltas[-1], 0)], cost[(0, 0)]
    ratios.append((f"in-order Δ={deltas[-1]} vs Δ=0", wide, base))
if 200 in rates and len([d for d in deltas if d > 0]) >= 2:
    narrow = min(d for d in deltas if d > 0)
    wide, base = cost[(deltas[-1], 200)], cost[(narrow, 200)]
    ratios.append((f"200‰ Δ={deltas[-1]} vs Δ={narrow}", wide, base))
assert ratios, f"sweep has no cells to compare: deltas={deltas} rates={rates}"
for what, wide, base in ratios:
    assert base > 0 and wide <= RATIO_BAR * base, \
        (f"{what}: {wide:.2f} µs/event is {wide / base:.1f}x {base:.2f} "
         f"(bar {RATIO_BAR:.0f}x): ingest cost scales with the Δ window again")

n_rows = len(rows)
max_rate = max(rates)
retr = sum(r["retracted"] for r in rows)
print(f"check_bench_e21: OK ({n_rows} cells, Δ∈{deltas}, rates∈{rates}‰; "
      f"definite log oracle-identical everywhere "
      f"(confirmed={confirmed_counts.pop()} in every cell); "
      f"{retr} retractions all matched by confirmations; "
      f"peak live states ≤ Δ+8 in every cell; "
      + ", ".join(f"{what} = {wide / base:.2f}x" for what, wide, base in ratios)
      + f" (bar {RATIO_BAR:.0f}x))")
