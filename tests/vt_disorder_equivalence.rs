//! Disorder-fuzz property suite for watermarked out-of-order ingestion
//! (Section 9 streaming; see DESIGN.md §16):
//!
//! * **arrival-independence** — the definite (confirmed) firing log of a
//!   Δ-bounded out-of-order ingest is byte-identical to an in-order oracle
//!   replay of the same valid-time history, over a seeded (Δ × disorder
//!   rate) grid and over proptest-generated arbitrary bounded
//!   permutations;
//! * **bounded stream** — over the same grid the engine holds O(Δ) live
//!   states, a firing confirms within Δ + 2 ticks of its valid instant, and
//!   ingest work follows the suffix an event touches, not the Δ window;
//! * **stream soundness** — every tentative announcement settles to
//!   exactly one confirmation or retraction once the watermark passes its
//!   instant, never before its announcement and never twice;
//! * **Theorem 2 cross-check** — online and offline satisfaction agree on
//!   the collapsed committed history at every sampled watermark step, for
//!   the stream's own rule formulas;
//! * **plain-database equivalence** — at disorder 0 the vt stream's
//!   confirmed log equals a plain (transaction-time) `ActiveDatabase` run
//!   over the same history, state for state.

use std::collections::HashMap;

use proptest::prelude::*;

use temporal_adb::core::{
    theorem2_check, Action, ActiveDatabase, Rule, VtActiveDatabase, VtFiringEvent, VtPhase,
};
use temporal_adb::engine::WriteOp;
use temporal_adb::ptl::parse_formula;
use temporal_adb::relation::{Database, Query, QueryDef, Timestamp, Value};

use tdb_bench::workload::{disorder_events, DisorderEvent};

/// Threshold rule (fires at every satisfying state) + rising-edge rule
/// (the one a late arrival can revise: with unique valid instants, a late
/// insert only *adds* a state, so plain per-state verdicts never change,
/// but `lasttime` predecessors do) + a running average since the last low
/// value (every late insert changes the accumulator of every later state
/// until the next reset).
const RULES: [(&str, &str); 3] = [
    ("high", "n() >= 60"),
    ("rise", "n() >= 60 and lasttime(n() < 60)"),
    ("mean", "avg(n(); n() < 10; n() >= 0) >= 55"),
];

fn facade(max_delay: i64) -> VtActiveDatabase {
    let mut base = Database::new();
    base.set_item("n", Value::Int(0));
    base.define_query("n", QueryDef::new(0, Query::item("n")));
    let mut vt = VtActiveDatabase::new_streaming(base, max_delay);
    for (name, src) in RULES {
        vt.add_trigger(name, parse_formula(src).unwrap()).unwrap();
    }
    vt
}

fn set_n(value: i64) -> WriteOp {
    WriteOp::SetItem {
        item: "n".into(),
        value: Value::Int(value),
    }
}

/// What one pass of an event stream through a facade produced.
struct Pass {
    /// Every stream event, in emission order.
    log: Vec<VtFiringEvent>,
    /// The most states the engine held after any ingest.
    max_live_states: usize,
    /// Per confirmation before the closing flush (which jumps the clock):
    /// ticks from the firing's valid instant to the clock that confirmed it.
    confirm_lags: Vec<i64>,
}

/// Ingests `events` in arrival order, then pushes the watermark strictly
/// past every ingested instant.
fn run_stream(vt: &mut VtActiveDatabase, events: &[DisorderEvent]) -> Pass {
    let mut pass = Pass {
        log: Vec::new(),
        max_live_states: 0,
        confirm_lags: Vec::new(),
    };
    let mut record = |vt: &VtActiveDatabase, out: Vec<VtFiringEvent>| {
        for e in &out {
            if e.phase == VtPhase::Confirmed {
                pass.confirm_lags.push(vt.now().0 - e.record.time.0);
            }
        }
        pass.log.extend(out);
    };
    for ev in events {
        let out = vt.advance_to(ev.arrival).unwrap();
        record(vt, out);
        let out = vt.ingest(vec![set_n(ev.value)], ev.valid).unwrap();
        record(vt, out);
        pass.max_live_states = pass.max_live_states.max(vt.engine().state_count());
    }
    let end = events.iter().map(|e| e.valid.0).max().unwrap_or(0);
    pass.log.extend(
        vt.advance_to(Timestamp(end + vt.engine().max_delay() + 2))
            .unwrap(),
    );
    pass
}

/// The same history replayed with arrival = valid (no disorder).
fn in_order(events: &[DisorderEvent]) -> Vec<DisorderEvent> {
    let mut sorted: Vec<DisorderEvent> = events
        .iter()
        .map(|e| DisorderEvent {
            arrival: e.valid,
            ..*e
        })
        .collect();
    sorted.sort_by_key(|e| e.valid);
    sorted
}

// ===== arrival-independence over the seeded grid ===========================

#[test]
fn definite_log_is_arrival_independent_over_the_grid() {
    const EVENTS: usize = 1000;
    let mut cross_delta: Vec<(i64, Vec<(String, Timestamp)>)> = Vec::new();
    let mut atom_evals: HashMap<(i64, u32), u64> = HashMap::new();
    for &delta in &[0i64, 5, 50] {
        for &rate in &[0u32, 200, 800] {
            let cell = format!("Δ={delta} rate={rate}‰");
            let events = disorder_events(EVENTS, delta, rate, 0xD150_0DE4);
            let mut vt = facade(delta);
            let pass = run_stream(&mut vt, &events);
            let mut oracle = facade(delta);
            run_stream(&mut oracle, &in_order(&events));
            // Byte-identical: every FiringRecord field, including env and
            // state index, not just counts.
            assert_eq!(
                vt.confirmed_firings(),
                oracle.confirmed_firings(),
                "{cell}: definite log depends on arrival order"
            );
            for (rule, _) in RULES {
                assert!(
                    vt.confirmed_firings().iter().any(|f| f.rule == rule),
                    "{cell}: `{rule}` never confirmed"
                );
            }
            // O(Δ) memory: the live window, not the history.
            let live = pass.max_live_states;
            assert!(
                live <= delta as usize + 8 && live <= EVENTS / 4,
                "{cell}: {live} live states"
            );
            // A confirmation waits for the watermark to pass its instant
            // strictly: about Δ + 1 ticks.
            let lags = &pass.confirm_lags;
            assert!(!lags.is_empty(), "{cell}: nothing confirmed");
            let mean_lag = lags.iter().sum::<i64>() as f64 / lags.len() as f64;
            assert!(
                (0.0..=(delta + 2) as f64).contains(&mean_lag),
                "{cell}: mean confirmation lag {mean_lag:.2} outside [0, Δ + 2]"
            );
            let evals = vt.eval_context().stats().atom_evals;
            // Rule states copied into marks and back by rewinds.
            let copies = vt.stats().state_copies as f64 / (EVENTS * RULES.len()) as f64;
            println!(
                "{cell}: {live} live states, lag {mean_lag:.2}, {evals} atom evaluations, \
                 {copies:.2} copies per rule per event"
            );
            atom_evals.insert((delta, rate), evals);
            if rate == 0 {
                cross_delta.push((
                    delta,
                    vt.confirmed_firings()
                        .iter()
                        .map(|f| (f.rule.clone(), f.time))
                        .collect(),
                ));
            }
        }
    }
    // The generator fixes the value history across cells, so the definite
    // stream is also the same *semantically* across Δ (state indices may
    // differ with the compaction horizon, (rule, time) must not).
    for w in cross_delta.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "definite (rule, time) stream differs between Δ={} and Δ={}",
            w[0].0, w[1].0
        );
    }
    // Ingest work follows the touched suffix, not the Δ window: a wider Δ
    // barely moves the atoms an in-order or a 200‰ stream evaluates.
    for (wide, narrow) in [((50, 0), (0, 0)), ((50, 200), (5, 200))] {
        let ratio = atom_evals[&wide] as f64 / atom_evals[&narrow] as f64;
        println!("atom_evals {wide:?} / {narrow:?} = {ratio:.2}");
        assert!(
            ratio <= 3.0,
            "(Δ, rate‰) {wide:?} evaluated {ratio:.1}x the atoms of {narrow:?}"
        );
    }
}

/// One disordered cell over window rules of three thresholds. At many
/// states their `Since` steps share every operand, and the context's
/// computed table answers all but the first — also while a late event rewinds the
/// rules and re-dispatches the suffix, where (built with debug assertions)
/// each answer is checked against a fresh computation. The definite log
/// still equals the in-order replay.
#[test]
fn shared_since_steps_hold_across_rewinds() {
    let facade = |max_delay: i64| {
        let mut base = Database::new();
        base.set_item("n", Value::Int(0));
        base.define_query("n", QueryDef::new(0, Query::item("n")));
        let mut vt = VtActiveDatabase::new_streaming(base, max_delay);
        for th in [40, 50, 60] {
            let src = format!("[t := time] previously(n() >= {th} and time >= t - 4)");
            vt.add_trigger(format!("w{th}"), parse_formula(&src).unwrap())
                .unwrap();
        }
        vt
    };
    let events = disorder_events(400, 5, 200, 0xD150_0DE4);
    let mut vt = facade(5);
    run_stream(&mut vt, &events);
    let mut oracle = facade(5);
    run_stream(&mut oracle, &in_order(&events));
    assert!(!oracle.confirmed_firings().is_empty());
    assert_eq!(vt.confirmed_firings(), oracle.confirmed_firings());
    assert!(
        vt.stats().state_copies > oracle.stats().state_copies,
        "the cell must rewind"
    );
    let stats = vt.eval_context().stats();
    assert!(stats.steps_reused > 0, "{stats:?}");
}

// ===== arrival-independence under arbitrary Δ-bounded permutations =========

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any per-event delay vector within Δ yields the same definite log as
    /// the in-order replay — not just the seeded generator's delays.
    #[test]
    fn definite_log_is_arrival_independent_under_any_bounded_permutation(
        delta in 1i64..8,
        spec in proptest::collection::vec((0i64..100, 0i64..8), 1..48),
    ) {
        let events: Vec<DisorderEvent> = {
            let mut evs: Vec<DisorderEvent> = spec
                .iter()
                .enumerate()
                .map(|(i, &(value, delay))| {
                    let valid = Timestamp(i as i64 + 1);
                    DisorderEvent {
                        seq: i,
                        valid,
                        arrival: Timestamp(valid.0 + delay.min(delta)),
                        value,
                    }
                })
                .collect();
            evs.sort_by_key(|e| (e.arrival, e.seq));
            evs
        };
        let mut vt = facade(delta);
        run_stream(&mut vt, &events);
        let mut oracle = facade(delta);
        run_stream(&mut oracle, &in_order(&events));
        prop_assert_eq!(vt.confirmed_firings(), oracle.confirmed_firings());
    }
}

// ===== stream soundness ====================================================

/// Replays a stream log checking the announce/settle protocol per
/// `(rule, time)` key; returns the number of keys still outstanding.
fn check_settlement(log: &[VtFiringEvent]) -> usize {
    let mut outstanding: HashMap<(String, Timestamp), usize> = HashMap::new();
    for e in log {
        let key = (e.record.rule.clone(), e.record.time);
        match e.phase {
            VtPhase::Tentative => *outstanding.entry(key).or_insert(0) += 1,
            VtPhase::Confirmed | VtPhase::Retracted => {
                let n = outstanding
                    .get_mut(&key)
                    .unwrap_or_else(|| panic!("{key:?} settled without an announcement"));
                assert!(*n > 0, "{key:?} settled twice");
                *n -= 1;
            }
        }
    }
    outstanding.values().filter(|&&n| n > 0).count()
}

#[test]
fn every_tentative_firing_settles_exactly_once() {
    for &(delta, rate) in &[(5i64, 800u32), (50, 200), (0, 0)] {
        let events = disorder_events(1000, delta, rate, 0x5E77_1E5E);
        let mut vt = facade(delta);
        let log = run_stream(&mut vt, &events).log;
        assert_eq!(
            check_settlement(&log),
            0,
            "Δ={delta} rate={rate}‰: unsettled tentative firings remain"
        );
        assert_eq!(vt.pending_tentative(), 0);
        // The settled log and the facade's own confirmed view agree.
        let confirmed_in_log = log.iter().filter(|e| e.phase == VtPhase::Confirmed).count();
        assert_eq!(confirmed_in_log, vt.confirmed_firings().len());
        if rate == 0 || delta == 0 {
            assert!(
                log.iter().all(|e| e.phase != VtPhase::Retracted),
                "an in-order stream must never retract"
            );
        }
    }
}

#[test]
fn nothing_settles_before_the_watermark_passes_it() {
    let events = disorder_events(400, 5, 800, 0xBEEF);
    let mut vt = facade(5);
    for ev in &events {
        // Settlements produced by this step may decide any instant the
        // *new* watermark has passed, but never one at or above it.
        let mut step = vt.advance_to(ev.arrival).unwrap();
        step.extend(vt.ingest(vec![set_n(ev.value)], ev.valid).unwrap());
        for e in &step {
            if e.phase == VtPhase::Confirmed {
                assert!(
                    e.record.time < vt.watermark(),
                    "confirmed {:?} at or above the watermark {:?}",
                    e.record.time,
                    vt.watermark()
                );
            }
        }
    }
}

// ===== Theorem 2 cross-check at watermark steps ============================

#[test]
fn theorem2_agrees_at_every_sampled_watermark_step() {
    let formulas = [
        parse_formula("n() >= 60").unwrap(),
        parse_formula("n() >= 60 and lasttime(n() < 60)").unwrap(),
        parse_formula("previously(n() >= 90)").unwrap(),
    ];
    let events = disorder_events(400, 5, 800, 0x7E02);
    let mut vt = facade(5);
    let mut samples = 0;
    for (i, ev) in events.iter().enumerate() {
        vt.advance_to(ev.arrival).unwrap();
        vt.ingest(vec![set_n(ev.value)], ev.valid).unwrap();
        if i % 25 == 0 {
            for f in &formulas {
                let (online, offline) = theorem2_check(vt.engine(), f).unwrap();
                assert_eq!(
                    online,
                    offline,
                    "online/offline disagree at watermark {:?} on {f:?}",
                    vt.watermark()
                );
            }
            samples += 1;
        }
    }
    assert!(samples >= 16, "need real coverage, got {samples} samples");
}

#[test]
fn offline_report_tracks_registered_constraints_under_disorder() {
    let mut vt = facade(5);
    // Values are drawn from 0..100, so both constraints hold throughout.
    vt.add_constraint("cap", parse_formula("n() <= 99").unwrap())
        .unwrap();
    vt.add_constraint("floor", parse_formula("n() >= 0").unwrap())
        .unwrap();
    let events = disorder_events(300, 5, 800, 0x0FF1);
    for (i, ev) in events.iter().enumerate() {
        vt.advance_to(ev.arrival).unwrap();
        vt.ingest(vec![set_n(ev.value)], ev.valid).unwrap();
        if i % 50 == 0 {
            let report = vt.offline_report().unwrap();
            assert_eq!(report.len(), 2);
            assert!(
                report.iter().all(|(_, sat)| *sat),
                "a never-violated constraint reported offline-unsatisfied: {report:?}"
            );
        }
    }
}

// ===== plain-database equivalence at disorder 0 ============================

#[test]
fn vt_stream_at_disorder_zero_equals_plain_active_database() {
    let events = disorder_events(600, 0, 0, 0x90A1);

    // Valid-time side: Δ = 0, in-order by construction.
    let mut vt = facade(0);
    run_stream(&mut vt, &events);
    let vt_log: Vec<(String, Timestamp)> = vt
        .confirmed_firings()
        .iter()
        .map(|f| (f.rule.clone(), f.time))
        .collect();

    // Plain transaction-time side: the same history, one commit per tick.
    // The vt triggers are level-triggered (they fire at every satisfying
    // state), so the plain rules must be too.
    let mut base = Database::new();
    base.set_item("n", Value::Int(0));
    base.define_query("n", QueryDef::new(0, Query::item("n")));
    let mut adb = ActiveDatabase::new(base);
    for (name, src) in RULES {
        let rule = Rule::trigger(name, parse_formula(src).unwrap(), Action::Notify);
        adb.add_rule(rule.level_triggered()).unwrap();
    }
    let mut in_order = events.clone();
    in_order.sort_by_key(|e| e.valid);
    for ev in &in_order {
        adb.advance_clock_to(ev.valid).unwrap();
        adb.update([set_n(ev.value)]).unwrap();
    }
    let plain_log: Vec<(String, Timestamp)> = adb
        .firings()
        .iter()
        .map(|f| (f.rule.clone(), f.time))
        .collect();

    assert_eq!(
        vt_log.len(),
        plain_log.len(),
        "stream lengths diverge: vt {} vs plain {}",
        vt_log.len(),
        plain_log.len()
    );
    // Same multiset per instant; dispatch order within one instant is an
    // implementation detail of each side.
    let sort = |mut v: Vec<(String, Timestamp)>| {
        v.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        v
    };
    assert_eq!(sort(vt_log), sort(plain_log));
}

// ===== multi-item histories: merges and late writes nothing overwrites =====

/// One event of the multi-item workload. Unlike [`DisorderEvent`]s, several
/// may share a valid instant (the later arrival merges into the state).
#[derive(Debug, Clone, Copy)]
struct ItemEvent {
    seq: usize,
    valid: Timestamp,
    arrival: Timestamp,
    item: &'static str,
    value: i64,
}

/// Three items with very different write rates: `a` changes at almost every
/// instant (a late write to it is overwritten one state later), `b` every
/// few (the revision reaches a few states), `c` almost never (a late write
/// to it changes every later state of the window — nothing converges).
/// Conditions read across items, so one state re-deriving equal is not the
/// end of a revision.
fn multi_item_facade(max_delay: i64) -> VtActiveDatabase {
    let mut base = Database::new();
    for item in ["a", "b", "c"] {
        base.set_item(item, Value::Int(0));
        base.define_query(item, QueryDef::new(0, Query::item(item)));
    }
    let mut vt = VtActiveDatabase::new_streaming(base, max_delay);
    for (name, src) in [
        ("rise_a", "a() >= 60 and lasttime(a() < 60)"),
        ("a_after_b", "a() >= 50 and lasttime(b() >= 50)"),
        ("b_run", "b() >= 40 since b() >= 80"),
        ("c_level", "c() >= 50 and lasttime(lasttime(a() >= 20))"),
        ("c_seen", "previously(c() >= 90) and a() >= 90"),
    ] {
        vt.add_trigger(name, parse_formula(src).unwrap()).unwrap();
    }
    vt
}

/// `n` events in arrival order. Every sixth shares its valid instant with
/// its predecessor and writes a different item, so same-instant writes
/// commute and the merged state does not depend on which arrived first.
fn item_events(n: usize, max_delay: i64, rate_permille: u64, seed: u64) -> Vec<ItemEvent> {
    let mut rng = seed | 1;
    let mut next = |m: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % m
    };
    let mut events: Vec<ItemEvent> = Vec::with_capacity(n);
    for seq in 0..n {
        let valid = Timestamp(1 + (seq as i64 * 5) / 6);
        let shares_instant = events.last().is_some_and(|p| p.valid == valid);
        let item = match next(20) {
            0 => "c",
            1..=4 => "b",
            _ => "a",
        };
        let item = match events.last() {
            Some(p) if shares_instant && p.item == item => {
                if item == "a" {
                    "b"
                } else {
                    "a"
                }
            }
            _ => item,
        };
        let value = next(100) as i64;
        let delay = if max_delay > 0 && next(1000) < rate_permille {
            1 + next(max_delay as u64) as i64
        } else {
            0
        };
        events.push(ItemEvent {
            seq,
            valid,
            arrival: Timestamp(valid.0 + delay),
            item,
            value,
        });
    }
    events.sort_by_key(|e| (e.arrival, e.seq));
    events
}

fn run_item_stream(vt: &mut VtActiveDatabase, events: &[ItemEvent]) -> Vec<VtFiringEvent> {
    let mut log = Vec::new();
    for ev in events {
        log.extend(vt.advance_to(ev.arrival).unwrap());
        let op = WriteOp::SetItem {
            item: ev.item.into(),
            value: Value::Int(ev.value),
        };
        log.extend(vt.ingest(vec![op], ev.valid).unwrap());
    }
    let end = events.iter().map(|e| e.valid.0).max().unwrap_or(0);
    log.extend(
        vt.advance_to(Timestamp(end + vt.engine().max_delay() + 2))
            .unwrap(),
    );
    log
}

fn items_in_order(events: &[ItemEvent]) -> Vec<ItemEvent> {
    let mut sorted: Vec<ItemEvent> = events
        .iter()
        .map(|e| ItemEvent {
            arrival: e.valid,
            ..*e
        })
        .collect();
    sorted.sort_by_key(|e| (e.valid, e.seq));
    sorted
}

#[test]
fn multi_item_definite_log_is_arrival_independent_over_the_grid() {
    for &delta in &[0i64, 4, 32] {
        for &rate in &[0u64, 200, 800] {
            let events = item_events(1500, delta, rate, 0xC0FF_EE00 + delta as u64);
            let merged = events
                .iter()
                .filter(|e| {
                    events
                        .iter()
                        .any(|o| o.seq + 1 == e.seq && o.valid == e.valid)
                })
                .count();
            assert!(merged >= 200, "the workload must merge instants: {merged}");

            let mut vt = multi_item_facade(delta);
            let log = run_item_stream(&mut vt, &events);
            let mut oracle = multi_item_facade(delta);
            run_item_stream(&mut oracle, &items_in_order(&events));
            assert_eq!(
                vt.confirmed_firings(),
                oracle.confirmed_firings(),
                "Δ={delta} rate={rate}‰: definite log depends on arrival order"
            );
            assert_eq!(check_settlement(&log), 0, "Δ={delta} rate={rate}‰");
            assert_eq!(vt.pending_tentative(), 0);
            // Every rule takes part, and real disorder really revises.
            for rule in ["rise_a", "a_after_b", "b_run", "c_level", "c_seen"] {
                assert!(
                    vt.confirmed_firings().iter().any(|f| f.rule == rule),
                    "Δ={delta} rate={rate}‰: `{rule}` never confirmed"
                );
            }
            if delta > 0 && rate > 0 {
                assert!(log.iter().any(|e| e.phase == VtPhase::Retracted));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary Δ-bounded delays over a multi-item history whose events may
    /// share instants: same definite log as the in-order replay.
    #[test]
    fn multi_item_definite_log_is_arrival_independent_under_any_bounded_permutation(
        delta in 1i64..8,
        spec in proptest::collection::vec((0i64..100, 0i64..8, 0u8..10, 0u8..4), 1..64),
    ) {
        let mut events: Vec<ItemEvent> = Vec::new();
        let mut valid = 1i64;
        for (seq, &(value, delay, pick, step)) in spec.iter().enumerate() {
            // `step == 0` keeps the previous instant (a merge), on an item
            // the state has not written yet so the merge commutes.
            let mut written: Vec<&str> = events
                .iter()
                .filter(|e| e.valid.0 == valid)
                .map(|e| e.item)
                .collect();
            if seq > 0 && (step > 0 || written.len() == 3) {
                valid += 1;
                written.clear();
            }
            let free: Vec<&'static str> = ["a", "b", "c"]
                .into_iter()
                .filter(|i| !written.contains(i))
                .collect();
            let item = match pick {
                0 => "c",
                1..=3 => "b",
                _ => "a",
            };
            let item = if free.contains(&item) { item } else { free[0] };
            events.push(ItemEvent {
                seq,
                valid: Timestamp(valid),
                arrival: Timestamp(valid + delay.min(delta)),
                item,
                value,
            });
        }
        events.sort_by_key(|e| (e.arrival, e.seq));
        let mut vt = multi_item_facade(delta);
        let log = run_item_stream(&mut vt, &events);
        let mut oracle = multi_item_facade(delta);
        run_item_stream(&mut oracle, &items_in_order(&events));
        prop_assert_eq!(vt.confirmed_firings(), oracle.confirmed_firings());
        prop_assert_eq!(check_settlement(&log), 0);
    }
}
