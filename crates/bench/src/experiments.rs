//! The experiment suite (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! The paper has no numeric tables; each experiment reproduces one of its
//! algorithmic or semantic *claims* as a measured table. Every function is
//! deterministic given its seed; timings use `std::time::Instant` and are
//! reported in microseconds.

use std::time::Instant;

use tdb_baseline::{AuxEvaluator, EventExpr, NaiveDetector, Nfa, Sym};
use tdb_core::{
    offline_satisfied, online_satisfied, theorem2_check, Action, ActionOp, ActiveDatabase,
    EvalConfig, IncrementalEvaluator, ManagerConfig, Rule, VtActiveDatabase, VtFiringEvent,
    VtPhase,
};
use tdb_engine::{Event, VtEngine, WriteOp};
use tdb_ptl::semantics::eval_aggregate;
use tdb_ptl::{parse_formula, Formula, Term};
use tdb_relation::{Timestamp, Value};

use crate::workload::{
    hourly_average_formula, ibm_doubled_formula, item_watch_formula, set_price_ops, stock_db,
    ticker_engine, watch_db, Ticker,
};

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

// ===== E1: incremental vs naive ============================================

/// One row of the E1 table.
#[derive(Debug, Clone)]
pub struct E1Row {
    pub history_len: usize,
    /// Mean per-update cost over the final 10% of updates, µs.
    pub incremental_us: f64,
    pub naive_us: f64,
    pub speedup: f64,
    /// Sanity: both detectors fired at exactly the same states.
    pub firings_agree: bool,
}

/// Theorem 1's payoff: per-update incremental cost is flat in the history
/// length, naive re-evaluation grows linearly.
pub fn e1_incremental_vs_naive(sizes: &[usize], seed: u64) -> Vec<E1Row> {
    let f = ibm_doubled_formula();
    sizes
        .iter()
        .map(|&n| {
            let engine = ticker_engine(n, seed);
            let tail_from = n - (n / 10).max(1);

            let mut inc = IncrementalEvaluator::compile(&f).expect("compiles");
            let mut naive = NaiveDetector::new(f.clone());
            let (mut t_inc, mut t_naive) = (0.0, 0.0);
            let mut agree = true;
            let mut tail_states = 0usize;
            for (i, s) in engine.history().iter() {
                let start = Instant::now();
                let a = !inc.advance_and_fire(s, i).expect("advance").is_empty();
                let d_inc = start.elapsed();
                if i < tail_from {
                    // Accumulate history without paying the naive O(i)
                    // evaluation on unmeasured states (it would make the
                    // whole experiment quadratic in the sweep size).
                    naive.observe(s);
                    continue;
                }
                let start_naive = Instant::now();
                let b = !naive.advance_and_fire(s).expect("advance").is_empty();
                let d_naive = start_naive.elapsed();
                agree &= a == b;
                t_inc += micros(d_inc);
                t_naive += micros(d_naive);
                tail_states += 1;
            }
            let incremental_us = t_inc / tail_states as f64;
            let naive_us = t_naive / tail_states as f64;
            E1Row {
                history_len: n,
                incremental_us,
                naive_us,
                speedup: naive_us / incremental_us.max(1e-9),
                firings_agree: agree,
            }
        })
        .collect()
}

// ===== E2: pruning bounds the retained state =================================

#[derive(Debug, Clone)]
pub struct E2Row {
    pub history_len: usize,
    pub retained_pruned: usize,
    /// `None` when the unpruned arm was skipped: its residual grows with
    /// the history, making every advance — and the whole run — quadratic,
    /// which is precisely the claim being demonstrated.
    pub retained_unpruned: Option<usize>,
}

/// Histories beyond this length only run the pruned evaluator.
pub const E2_UNPRUNED_CAP: usize = 5_000;

/// The Section 5 optimization: with monotone time-clause pruning the
/// retained formula-state size is bounded for bounded operators; without
/// it, it grows with the history.
pub fn e2_pruning(sizes: &[usize], seed: u64) -> Vec<E2Row> {
    let f = ibm_doubled_formula();
    sizes
        .iter()
        .map(|&n| {
            let engine = ticker_engine(n, seed);
            let mut pruned = IncrementalEvaluator::compile(&f).expect("compiles");
            let mut unpruned = (n <= E2_UNPRUNED_CAP).then(|| {
                IncrementalEvaluator::new(
                    &f,
                    EvalConfig {
                        pruning: false,
                        max_residual: usize::MAX,
                    },
                )
                .expect("compiles")
            });
            for (i, s) in engine.history().iter() {
                pruned.advance(s, i).expect("advance");
                if let Some(u) = unpruned.as_mut() {
                    u.advance(s, i).expect("advance");
                }
            }
            E2Row {
                history_len: n,
                retained_pruned: pruned.retained_size(),
                retained_unpruned: unpruned.map(|u| u.retained_size()),
            }
        })
        .collect()
}

// ===== E3: relevance filtering ===============================================

#[derive(Debug, Clone)]
pub struct E3Row {
    pub rules: usize,
    /// Full evaluations with §8 relevance filtering on.
    pub evals_filtered: u64,
    /// Full evaluations under the default dispatch: every rule advances at
    /// every state, those the state's delta misses along the sparse path.
    pub evals_default: u64,
    /// Full evaluations an exhaustive dispatch makes, rules × states —
    /// computed, not run.
    pub evals_exhaustive: u64,
    pub us_per_state_filtered: f64,
    pub us_per_state_default: f64,
    pub firings_agree: bool,
}

/// Section 8: with event/data relevance filtering, per-state cost scales
/// with the *relevant* rules, not the total rule count. The default
/// dispatch gets the same saving from the state's delta without skipping
/// any state; the exhaustive count shows what both avoid.
pub fn e3_relevance(rule_counts: &[usize], states: usize, seed: u64) -> Vec<E3Row> {
    rule_counts
        .iter()
        .map(|&r| {
            let run = |filtering: bool| -> (u64, f64, Vec<(String, i64)>) {
                let mut adb = ActiveDatabase::with_config(
                    watch_db(r),
                    ManagerConfig {
                        relevance_filtering: filtering,
                        ..Default::default()
                    },
                );
                for i in 0..r {
                    adb.add_rule(Rule::trigger(
                        format!("watch{i}"),
                        item_watch_formula(&format!("w{i}"), 100),
                        Action::Notify,
                    ))
                    .expect("registers");
                }
                let mut rng_state = seed;
                let start = Instant::now();
                for k in 0..states {
                    // Simple deterministic LCG so both runs see identical load.
                    rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let item = (rng_state >> 33) as usize % r;
                    let value = 90 + (k as i64 % 21); // crosses 100 sometimes
                    adb.advance_clock(1).expect("clock");
                    adb.update([WriteOp::SetItem {
                        item: format!("w{item}"),
                        value: Value::Int(value),
                    }])
                    .expect("update");
                }
                let elapsed = micros(start.elapsed()) / states as f64;
                let firings = adb
                    .firings()
                    .iter()
                    .map(|f| (f.rule.clone(), f.time.0))
                    .collect();
                (adb.stats().evaluations, elapsed, firings)
            };
            let (evals_on, us_on, fir_on) = run(true);
            let (evals_off, us_off, fir_off) = run(false);
            E3Row {
                rules: r,
                evals_filtered: evals_on,
                evals_default: evals_off,
                evals_exhaustive: (r * states) as u64,
                us_per_state_filtered: us_on,
                us_per_state_default: us_off,
                firings_agree: fir_on == fir_off,
            }
        })
        .collect()
}

// ===== E4: aggregate maintenance ============================================

#[derive(Debug, Clone)]
pub struct E4Row {
    pub samples: usize,
    /// µs per sample maintaining the aggregate's accumulator slot.
    pub accumulator_us: f64,
    /// µs per sample recomputing the aggregate from the definition.
    pub naive_us: f64,
    /// The slot's final value equals the recomputed mean and
    /// `tdb_ptl::semantics::eval_aggregate` over the history.
    pub values_agree: bool,
}

/// Section 6.1.1: the evaluator's accumulator slot maintains the aggregate
/// in O(1) per sample; recomputation from the definition costs O(window).
pub fn e4_aggregates(sample_counts: &[usize], seed: u64) -> Vec<E4Row> {
    sample_counts
        .iter()
        .map(|&n| {
            // Accumulator: facade with the avg rule.
            let f = hourly_average_formula(1_000_000); // never fires; we time maintenance
            let mut adb = ActiveDatabase::new(stock_db());
            adb.add_rule(Rule::trigger("avg_watch", f.clone(), Action::Notify))
                .expect("registers");
            let mut ticker = Ticker::new(seed, 50);
            let mut prices = Vec::with_capacity(n);
            let start = Instant::now();
            for _ in 0..n {
                let p = ticker.step();
                prices.push(p);
                adb.advance_clock(1).expect("clock");
                let ops = set_price_ops(adb.db(), "IBM", p);
                adb.update(ops).expect("update");
                adb.emit(Event::simple("update_stocks")).expect("emit");
            }
            let accumulator_us = micros(start.elapsed()) / n as f64;
            let snap = adb.snapshot().expect("no open transaction");
            let slot = snap.rules[0].evaluator.slots[0]
                .as_ref()
                .map(|a| a.current());
            let definition = match &f {
                Formula::Cmp(_, Term::Agg(agg), _) => {
                    let last = adb.history().last_index().unwrap_or(0);
                    eval_aggregate(agg, adb.history(), last, &Default::default()).ok()
                }
                _ => None,
            };

            // Naive: recompute the mean over all samples at every sample.
            let start = Instant::now();
            let mut naive_val = 0.0;
            for k in 0..n {
                let window = &prices[..=k];
                naive_val = window.iter().sum::<i64>() as f64 / window.len() as f64;
            }
            let naive_us = micros(start.elapsed()) / n as f64;

            let value = slot.as_ref().and_then(Value::as_f64).unwrap_or(f64::NAN);
            E4Row {
                samples: n,
                accumulator_us,
                naive_us,
                values_agree: (value - naive_val).abs() < 1e-9 && slot == definition,
            }
        })
        .collect()
}

// ===== E5: event-expression automata vs PTL ==================================

#[derive(Debug, Clone)]
pub struct E5Row {
    pub k: usize,
    pub expr_size: usize,
    pub nfa_states: usize,
    pub dfa_states: usize,
    pub min_dfa_states: usize,
    pub ptl_formula_size: usize,
    pub ptl_retained_size: usize,
    pub detectors_agree: bool,
}

/// Section 10 vs refs. 15/16: for the look-back family Σ*·a·Σ^(k-1) ("an `a`
/// occurred exactly k events ago"), the minimal DFA needs 2^k states while
/// the PTL formula state stays linear in k.
pub fn e5_eventexpr(ks: &[usize], stream_len: usize, seed: u64) -> Vec<E5Row> {
    ks.iter()
        .map(|&k| {
            assert!(k >= 1);
            let expr = EventExpr::seq(
                EventExpr::seq(EventExpr::star(EventExpr::Any), EventExpr::atom("a")),
                EventExpr::any_n(k - 1),
            );
            let alphabet = vec![Sym::Event("a".into()), Sym::Other];
            let nfa = Nfa::try_build(&expr, &alphabet).expect("regular expression");
            let dfa = nfa.determinize();
            let min = dfa.minimize();

            // PTL equivalent: Lasttime^(k-1)(@a).
            let mut f = Formula::event("a", vec![]);
            for _ in 0..k - 1 {
                f = Formula::lasttime(f);
            }
            let mut ev = IncrementalEvaluator::compile(&f).expect("compiles");

            // Drive both detectors over one event stream and compare.
            let mut engine = tdb_engine::Engine::new(tdb_relation::Database::new());
            let mut matcher = min.matcher();
            let mut agree = true;
            let mut rng_state = seed | 1;
            for _ in 0..stream_len {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let name = if (rng_state >> 40).is_multiple_of(3) {
                    "a"
                } else {
                    "b"
                };
                let idx = engine.emit_event(Event::simple(name)).expect("emit");
                let s = engine.history().get(idx).expect("retained").clone();
                let ptl_fired = !ev.advance_and_fire(&s, idx).expect("advance").is_empty();
                matcher.feed(name);
                agree &= ptl_fired == matcher.matched();
            }
            E5Row {
                k,
                expr_size: expr.size(),
                nfa_states: nfa.state_count(),
                dfa_states: dfa.state_count(),
                min_dfa_states: min.state_count(),
                ptl_formula_size: f.size(),
                ptl_retained_size: ev.retained_size(),
                detectors_agree: agree,
            }
        })
        .collect()
}

// ===== E6: valid time — tentative vs definite ================================

#[derive(Debug, Clone)]
pub struct E6Row {
    pub retro_permille: u32,
    pub max_delay: i64,
    /// Per update: the ingest and the tentative pass it triggers.
    pub tentative_us_per_update: f64,
    /// Per update: the watermark advance that confirms.
    pub confirm_us_per_update: f64,
    /// The stream's `Tentative` announcements: a firing a revision leaves
    /// as it was is not announced again.
    pub tentative_firings: usize,
    /// The confirmed stream: the definite firings.
    pub confirmed_firings: usize,
    /// Mean clock units from a confirmed firing's instant to its
    /// confirmation.
    pub confirmed_lag: f64,
}

/// Section 9.2: tentative triggers pay for retroactive re-evaluation;
/// definite firings — the confirmed stream — fire Δ late.
pub fn e6_validtime(
    retro_permille: &[u32],
    updates: usize,
    max_delay: i64,
    seed: u64,
) -> Vec<E6Row> {
    retro_permille
        .iter()
        .map(|&rp| {
            let mut base = tdb_relation::Database::new();
            base.set_item("price_IBM", Value::Int(50));
            base.define_query(
                "vprice",
                tdb_relation::QueryDef::new(0, tdb_relation::Query::item("price_IBM")),
            );
            let f = parse_formula("previously(vprice() >= 100)").expect("static");
            let mut vt = VtActiveDatabase::new_streaming(base, max_delay);
            vt.add_trigger("ibm_100", f).expect("registers");
            let mut ticker = Ticker::new(seed, 50);
            let mut rng_state = seed | 1;
            let (mut t_tent, mut t_confirm) = (0.0, 0.0);
            let mut lags: Vec<f64> = Vec::new();
            let mut confirm = |vt: &VtActiveDatabase, events: &[VtFiringEvent]| {
                let confirmed = events.iter().filter(|e| e.phase == VtPhase::Confirmed);
                lags.extend(confirmed.map(|e| (vt.now().0 - e.record.time.0) as f64));
            };
            for _ in 0..updates {
                let start = Instant::now();
                let events = vt.advance_watermark(1).expect("clock");
                t_confirm += micros(start.elapsed());
                confirm(&vt, &events);
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let retro = (rng_state >> 33) % 1000 < u64::from(rp);
                let lag = if retro {
                    1 + ((rng_state >> 17) as i64 % max_delay.max(1))
                } else {
                    0
                };
                let valid = vt.now().minus(lag).max(Timestamp(0));
                let p = ticker.step_with_crashes(0) + 40; // hovers near 100
                let set = WriteOp::SetItem {
                    item: "price_IBM".into(),
                    value: Value::Int(p),
                };
                let start = Instant::now();
                let events = vt.ingest(vec![set], valid).expect("valid-time ingest");
                t_tent += micros(start.elapsed());
                confirm(&vt, &events);
            }
            // Push the watermark past every state so the stream is complete.
            let end = vt.now().plus(max_delay + 1);
            let events = vt.advance_to(end).expect("clock");
            confirm(&vt, &events);
            let lag = if lags.is_empty() {
                0.0
            } else {
                lags.iter().sum::<f64>() / lags.len() as f64
            };
            E6Row {
                retro_permille: rp,
                max_delay,
                tentative_us_per_update: t_tent / updates as f64,
                confirm_us_per_update: t_confirm / updates as f64,
                tentative_firings: (vt.stream_log().iter())
                    .filter(|e| e.phase == VtPhase::Tentative)
                    .count(),
                confirmed_firings: vt.confirmed_count(),
                confirmed_lag: lag,
            }
        })
        .collect()
}

// ===== E7: constraint enforcement overhead ====================================

#[derive(Debug, Clone)]
pub struct E7Row {
    pub constraints: usize,
    pub us_per_commit: f64,
    pub aborts: usize,
    /// All surviving commits satisfy every constraint.
    pub history_consistent: bool,
}

/// Sections 3/8: per-commit gate cost scales with the number of registered
/// constraints; violating transactions abort and the database state stays
/// within bounds.
pub fn e7_constraints(constraint_counts: &[usize], commits: usize, seed: u64) -> Vec<E7Row> {
    constraint_counts
        .iter()
        .map(|&c| {
            let mut adb = ActiveDatabase::new(watch_db(c.max(1)));
            for i in 0..c {
                adb.add_rule(Rule::constraint(
                    format!("cap{i}"),
                    item_watch_formula(&format!("w{i}"), -1_000_000).clone(), // placeholder replaced below
                ))
                .expect("registers");
            }
            // The placeholder above watches `> -1M` (always true); add one
            // real cap on w0 so aborts occur.
            adb.add_rule(Rule::constraint(
                "real_cap",
                parse_formula("w0_q() <= 100").expect("static"),
            ))
            .expect("registers");

            let mut rng_state = seed | 1;
            let mut aborts = 0usize;
            let start = Instant::now();
            for _ in 0..commits {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = (rng_state >> 33) as i64 % 140; // sometimes > 100
                adb.advance_clock(1).expect("clock");
                match adb.update([WriteOp::SetItem {
                    item: "w0".into(),
                    value: Value::Int(v),
                }]) {
                    Ok(_) => {}
                    Err(_) => aborts += 1,
                }
            }
            let us_per_commit = micros(start.elapsed()) / commits as f64;
            let w0 = adb.db().item("w0").expect("item").as_i64().unwrap_or(0);
            E7Row {
                constraints: c + 1,
                us_per_commit,
                aborts,
                history_consistent: w0 <= 100,
            }
        })
        .collect()
}

// ===== E8: temporal actions via `executed` ====================================

#[derive(Debug, Clone)]
pub struct E8Result {
    /// The instants at which the periodic action executed.
    pub execution_times: Vec<i64>,
    /// The instants the Section 7 schedule prescribes.
    pub expected_times: Vec<i64>,
}

/// Section 7: "whenever condition C is satisfied execute an atomic action A
/// every ten minutes for the next one hour" — implemented with the
/// `executed` predicate and clock ticks.
pub fn e8_temporal_action() -> E8Result {
    let mut adb = ActiveDatabase::new(stock_db());
    adb.set_item("bought", Value::Int(0))
        .expect("volatile set_item");
    adb.define_query(
        "bought_q",
        tdb_relation::QueryDef::new(0, tdb_relation::Query::item("bought")),
    )
    .expect("volatile define_query");
    // r1: price(IBM) < 60 → (recorded) — C of the paper's example.
    adb.add_rule(
        Rule::trigger(
            "r1",
            parse_formula("price(\"IBM\") < 60").expect("static"),
            Action::Notify,
        )
        .recording_executed(),
    )
    .expect("registers");
    // r2: executed(r1, t) ∧ time − t ≤ 60 ∧ (time − t) mod 10 = 0 → buy.
    adb.add_rule(
        Rule::trigger(
            "r2",
            parse_formula(
                "executed(r1, s) and time - s <= 60 and (time - s) % 10 = 0 \
                 and time - s > 0",
            )
            .expect("static"),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "bought".into(),
                value: Term::add(Term::query("bought_q", vec![]), Term::lit(1i64)),
            }]),
        )
        .recording_executed(),
    )
    .expect("registers");

    adb.advance_clock(5).expect("clock");
    let ops = set_price_ops(adb.db(), "IBM", 50);
    adb.update(ops).expect("price drop fires r1");
    let t0 = adb
        .firings()
        .iter()
        .find(|f| f.rule == "r1")
        .expect("r1 fired")
        .time
        .0;

    // Tick minute by minute for 90 minutes.
    adb.run_until(Timestamp(t0 + 90), 1).expect("ticks");

    let execution_times: Vec<i64> = adb
        .firings()
        .iter()
        .filter(|f| f.rule == "r2")
        .map(|f| f.time.0)
        .collect();
    let expected_times: Vec<i64> = (1..=6).map(|k| t0 + 10 * k).collect();
    E8Result {
        execution_times,
        expected_times,
    }
}

// ===== E9: online vs offline satisfaction =====================================

#[derive(Debug, Clone)]
pub struct E9Result {
    pub trials: usize,
    /// Histories where online and offline satisfaction differ.
    pub disagreements: usize,
    /// Disagreements on the collapsed committed history (Theorem 2: 0).
    pub collapsed_disagreements: usize,
}

/// Section 9.3: online and offline satisfaction differ on valid-time
/// histories but coincide on collapsed committed histories (Theorem 2).
pub fn e9_online_offline(trials: usize, seed: u64) -> E9Result {
    let c = parse_formula("u2_q() = 0 or u1_q() = 1").expect("static");
    let mut disagreements = 0;
    let mut collapsed_disagreements = 0;
    let mut rng_state = seed | 1;
    let mut bits = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        rng_state >> 33
    };
    for _ in 0..trials {
        let mut base = tdb_relation::Database::new();
        base.set_item("u1", Value::Int(0));
        base.set_item("u2", Value::Int(0));
        base.define_query(
            "u1_q",
            tdb_relation::QueryDef::new(0, tdb_relation::Query::item("u1")),
        );
        base.define_query(
            "u2_q",
            tdb_relation::QueryDef::new(0, tdb_relation::Query::item("u2")),
        );
        let mut vt = VtEngine::new(base, 1000);
        vt.advance_clock(1).expect("clock");
        let t1 = vt.begin().expect("begin");
        let t2 = vt.begin().expect("begin");
        // Random interleaving of: u1 update, u2 update, commits.
        let r = bits();
        vt.advance_clock(1).expect("clock");
        let (first, second) = if r % 2 == 0 {
            ("u1", "u2")
        } else {
            ("u2", "u1")
        };
        vt.update(
            if first == "u1" { t1 } else { t2 },
            WriteOp::SetItem {
                item: first.into(),
                value: Value::Int(1),
            },
        )
        .expect("update");
        vt.advance_clock(1).expect("clock");
        vt.update(
            if second == "u1" { t1 } else { t2 },
            WriteOp::SetItem {
                item: second.into(),
                value: Value::Int(1),
            },
        )
        .expect("update");
        vt.advance_clock(1).expect("clock");
        let (ca, cb) = if (r >> 1) % 2 == 0 {
            (t1, t2)
        } else {
            (t2, t1)
        };
        vt.commit(ca).expect("commit");
        vt.advance_clock(1).expect("clock");
        vt.commit(cb).expect("commit");

        let online = online_satisfied(&vt, &c).expect("online");
        let offline = offline_satisfied(&vt, &c).expect("offline");
        if online != offline {
            disagreements += 1;
        }
        let (con, coff) = theorem2_check(&vt, &c).expect("theorem 2");
        if con != coff {
            collapsed_disagreements += 1;
        }
    }
    E9Result {
        trials,
        disagreements,
        collapsed_disagreements,
    }
}

// ===== E10: aux-relation vs formula-state strategy ============================

#[derive(Debug, Clone)]
pub struct E10Row {
    pub history_len: usize,
    pub formula_state_us: f64,
    pub aux_relation_us: f64,
    pub formula_state_retained: usize,
    pub aux_versions_retained: usize,
    pub firings_agree: bool,
}

/// Section 5's two implementation strategies, compared on the
/// worked-example condition.
pub fn e10_auxrel(sizes: &[usize], seed: u64) -> Vec<E10Row> {
    let f = ibm_doubled_formula();
    sizes
        .iter()
        .map(|&n| {
            let engine = ticker_engine(n, seed);
            let mut inc = IncrementalEvaluator::compile(&f).expect("compiles");
            let mut aux = AuxEvaluator::new(f.clone(), Some(10)).expect("decomposable");
            let (mut t_inc, mut t_aux) = (0.0, 0.0);
            let mut agree = true;
            let mut first = true;
            for (i, s) in engine.history().iter() {
                let start = Instant::now();
                let a = !inc.advance_and_fire(s, i).expect("advance").is_empty();
                t_inc += micros(start.elapsed());
                let start = Instant::now();
                let b = aux.advance(s).expect("advance");
                t_aux += micros(start.elapsed());
                // The aux evaluator sees the initial empty state too, so
                // firings align state-for-state except nothing fires there.
                if !first {
                    agree &= a == b;
                }
                first = false;
            }
            E10Row {
                history_len: n,
                formula_state_us: t_inc / (n + 1) as f64,
                aux_relation_us: t_aux / (n + 1) as f64,
                formula_state_retained: inc.retained_size(),
                aux_versions_retained: aux.retained_versions(),
                firings_agree: agree,
            }
        })
        .collect()
}

// ===== E11: worked-example checklist ==========================================

#[derive(Debug, Clone)]
pub struct E11Row {
    pub example: &'static str,
    pub pass: bool,
}

/// Every worked example in the paper, evaluated end-to-end.
pub fn e11_worked_examples() -> Vec<E11Row> {
    let mut rows = Vec::new();

    // 1. IBM doubled in 10 units — fires on the paper's first history.
    rows.push(E11Row {
        example: "IBM price doubled within 10 units (history (10,1)(15,2)(18,5)(25,8))",
        pass: {
            let mut e = tdb_engine::Engine::new(stock_db());
            e.set_auto_tick(false);
            let mut ev = IncrementalEvaluator::compile(&ibm_doubled_formula()).expect("ok");
            let mut fired = vec![];
            for (p, t) in [(10, 1), (15, 2), (18, 5), (25, 8)] {
                e.advance_clock_to(Timestamp(t)).expect("clock");
                let ops = set_price_ops(e.db(), "IBM", p);
                e.apply_update(ops).expect("update");
            }
            for (i, s) in e.history().iter() {
                fired.push(!ev.advance_and_fire(s, i).expect("adv").is_empty());
            }
            fired == vec![false, false, false, false, true]
        },
    });

    // 2. The optimization history — never fires.
    rows.push(E11Row {
        example: "same condition on history (10,1)(15,2)(18,5)(11,20) — never fires",
        pass: {
            let mut e = tdb_engine::Engine::new(stock_db());
            e.set_auto_tick(false);
            let mut ev = IncrementalEvaluator::compile(&ibm_doubled_formula()).expect("ok");
            let mut any = false;
            for (p, t) in [(10, 1), (15, 2), (18, 5), (11, 20)] {
                e.advance_clock_to(Timestamp(t)).expect("clock");
                let ops = set_price_ops(e.db(), "IBM", p);
                e.apply_update(ops).expect("update");
            }
            for (i, s) in e.history().iter() {
                any |= !ev.advance_and_fire(s, i).expect("adv").is_empty();
            }
            !any
        },
    });

    // 3. "A remains positive while X is logged in" — violation detected.
    rows.push(E11Row {
        example: "value of A remains positive while user X is logged in",
        pass: {
            let mut db = tdb_relation::Database::new();
            db.set_item("A", Value::Int(5));
            db.define_query(
                "a",
                tdb_relation::QueryDef::new(0, tdb_relation::Query::item("A")),
            );
            let mut adb = ActiveDatabase::new(db);
            adb.add_rule(Rule::trigger(
                "session_violation",
                parse_formula("a() <= 0 and (not @logout(\"X\") since @login(\"X\"))")
                    .expect("static"),
                Action::Notify,
            ))
            .expect("registers");
            adb.emit(Event::new("login", vec![Value::str("X")]))
                .expect("emit");
            adb.update([WriteOp::SetItem {
                item: "A".into(),
                value: Value::Int(-1),
            }])
            .expect("update");
            let during = adb.firings().len() == 1;
            adb.emit(Event::new("logout", vec![Value::str("X")]))
                .expect("emit");
            adb.update([WriteOp::SetItem {
                item: "A".into(),
                value: Value::Int(-2),
            }])
            .expect("update");
            during && adb.firings().len() == 1
        },
    });

    // 4. SHARP-INCREASE-style free variable: which stocks are overpriced.
    rows.push(E11Row {
        example: "free-variable firing: x in names() ∧ price(x) ≥ 300 binds x",
        pass: {
            let mut adb = ActiveDatabase::new(stock_db());
            adb.add_rule(Rule::trigger(
                "overpriced",
                parse_formula("x in names() and price(x) >= 300").expect("static"),
                Action::Notify,
            ))
            .expect("registers");
            adb.advance_clock(1).expect("clock");
            let ops = set_price_ops(adb.db(), "IBM", 350);
            adb.update(ops).expect("update");
            let ops = set_price_ops(adb.db(), "DEC", 45);
            adb.advance_clock(1).expect("clock");
            adb.update(ops).expect("update");
            adb.firings().len() == 1 && adb.firings()[0].env["x"] == Value::str("IBM")
        },
    });

    // 5. Hourly average above 70 (the aggregate's accumulator end-to-end).
    rows.push(E11Row {
        example: "avg(price(IBM); start; @update_stocks) > 70 via an accumulator slot",
        pass: {
            let mut adb = ActiveDatabase::new(stock_db());
            adb.add_rule(Rule::trigger(
                "avg_high",
                hourly_average_formula(70),
                Action::Notify,
            ))
            .expect("registers");
            for p in [60, 90, 95] {
                adb.advance_clock(1).expect("clock");
                let ops = set_price_ops(adb.db(), "IBM", p);
                adb.update(ops).expect("update");
                adb.emit(Event::simple("update_stocks")).expect("emit");
            }
            adb.tick().expect("settle");
            // avg(60, 90, 95) = 81.67 > 70 — fires after the second sample
            // (avg 75) already.
            adb.firings().iter().any(|f| f.rule == "avg_high")
        },
    });

    // 6. The u1-before-u2 online/offline distinction.
    rows.push(E11Row {
        example: "u1-before-u2: offline-satisfied but not online-satisfied (§9.3)",
        pass: {
            let r = e9_online_offline(16, 12345);
            r.disagreements > 0 && r.collapsed_disagreements == 0
        },
    });

    // 7. Temporal action: buy every 10 minutes for an hour.
    rows.push(E11Row {
        example: "temporal action: A every 10 minutes for 1 hour after C (§7)",
        pass: {
            let r = e8_temporal_action();
            r.execution_times == r.expected_times
        },
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_speedup_grows_with_history() {
        let rows = e1_incremental_vs_naive(&[100, 800], 42);
        assert!(rows.iter().all(|r| r.firings_agree));
        assert!(
            rows[1].speedup > rows[0].speedup,
            "naive cost must grow with history: {rows:?}"
        );
    }

    #[test]
    fn e2_pruned_state_is_bounded() {
        let rows = e2_pruning(&[200, 2000], 42);
        // Pruned retained size is flat; unpruned grows.
        assert!(rows[1].retained_pruned <= rows[0].retained_pruned * 2);
        assert!(rows[1].retained_unpruned.unwrap() > rows[0].retained_unpruned.unwrap() * 4);
    }

    #[test]
    fn e3_filtering_reduces_evaluations() {
        let rows = e3_relevance(&[64], 200, 7);
        let r = &rows[0];
        assert!(r.firings_agree);
        assert!(r.evals_filtered * 4 < r.evals_exhaustive, "{r:?}");
        assert!(r.evals_default * 4 < r.evals_exhaustive, "{r:?}");
    }

    #[test]
    fn e4_values_agree() {
        let rows = e4_aggregates(&[100], 7);
        assert!(rows[0].values_agree, "{rows:?}");
    }

    #[test]
    fn e5_dfa_blows_up_ptl_does_not() {
        let rows = e5_eventexpr(&[4, 6], 200, 7);
        for r in &rows {
            assert!(r.detectors_agree, "k={}", r.k);
            assert!(r.min_dfa_states >= 1 << r.k);
            assert!(r.ptl_retained_size <= 4 * r.k + 8);
        }
    }

    #[test]
    fn e8_executes_six_times_on_schedule() {
        let r = e8_temporal_action();
        assert_eq!(r.execution_times, r.expected_times);
    }

    #[test]
    fn e9_distinction_and_theorem2() {
        let r = e9_online_offline(32, 99);
        assert!(r.disagreements > 0);
        assert_eq!(r.collapsed_disagreements, 0);
    }

    #[test]
    fn e10_strategies_agree() {
        let rows = e10_auxrel(&[300], 42);
        assert!(rows[0].firings_agree);
    }

    #[test]
    fn e11_all_examples_pass() {
        for row in e11_worked_examples() {
            assert!(row.pass, "worked example failed: {}", row.example);
        }
    }

    #[test]
    fn e7_history_stays_consistent() {
        let rows = e7_constraints(&[4], 100, 3);
        let r = &rows[0];
        assert!(r.history_consistent);
        assert!(r.aborts > 0, "some commits must violate: {r:?}");
    }

    #[test]
    fn e6_definite_lags_tentative() {
        let rows = e6_validtime(&[100], 150, 20, 11);
        let r = &rows[0];
        assert!(r.confirmed_firings > 0);
        assert!(r.tentative_firings >= r.confirmed_firings);
        // Nothing confirms before the watermark strictly passes it.
        assert!(r.confirmed_lag > 20.0, "{r:?}");
    }
}

// ===== E12: Theorem-1 checkpoints — size and recovery latency ================

/// One row of the E12 table.
#[derive(Debug, Clone)]
pub struct E12Row {
    pub history_len: usize,
    /// Newest checkpoint payload on disk, bytes.
    pub checkpoint_bytes: u64,
    /// Log bytes past that checkpoint (the replay tail).
    pub wal_tail_bytes: u64,
    /// Wall-clock cost of `recover()` from disk, milliseconds.
    pub recovery_ms: f64,
    /// Logged ops replayed on top of the checkpoint.
    pub ops_replayed: usize,
    /// Sanity: the recovered system equals the pre-crash one.
    pub state_matches: bool,
}

/// Theorem 1's durability payoff: the formula states summarize the history,
/// so checkpoint size and recovery latency are flat in the history length
/// (bounded by formula state + the inter-checkpoint log tail), not O(n).
pub fn e12_durability(sizes: &[usize], seed: u64) -> Vec<E12Row> {
    use tdb_storage::{recover, CheckpointPolicy, FileStorage};

    let catalog = vec![Rule::trigger(
        "doubled",
        ibm_doubled_formula(),
        Action::Notify,
    )];
    sizes
        .iter()
        .map(|&n| {
            let dir = std::env::temp_dir().join(format!("tdb-e12-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let policy = CheckpointPolicy {
                every_ops: 64,
                every_bytes: 0,
                sync: tdb_core::SyncPolicy::Never,
            };
            let storage = FileStorage::create(&dir, policy).expect("storage dir");
            let mut adb = ActiveDatabase::with_storage(
                stock_db(),
                ManagerConfig::default(),
                Box::new(storage),
            )
            .expect("durable facade");
            for r in &catalog {
                adb.add_rule(r.clone()).expect("registers");
            }
            let mut ticker = Ticker::new(seed, 20);
            let mut delivered = 0usize;
            for _ in 0..n {
                let p = ticker.step_with_crashes(40_000);
                adb.advance_clock(1).expect("clock");
                let ops = set_price_ops(adb.db(), "IBM", p);
                adb.update(ops).expect("update");
                // A consumer drains the firing log as it goes, so the
                // checkpoint carries only undelivered firings. Across a
                // crash, delivery is at-least-once: the replayed tail
                // re-fires anything drained after the last checkpoint.
                delivered += adb.take_firings().len();
            }
            assert!(delivered > 0 || n < 64, "workload produced firings");
            let ref_db = adb.db().clone();
            let ref_now = adb.now();
            drop(adb); // crash

            let (checkpoint_bytes, wal_tail_bytes) = durability_footprint(&dir);
            let start = Instant::now();
            let rec = recover(&dir, &catalog, ManagerConfig::default()).expect("recovers");
            let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
            let state_matches = rec.adb.db() == &ref_db && rec.adb.now() == ref_now;
            let ops_replayed = rec.report.ops_replayed;
            let _ = std::fs::remove_dir_all(&dir);
            E12Row {
                history_len: n,
                checkpoint_bytes,
                wal_tail_bytes,
                recovery_ms,
                ops_replayed,
                state_matches,
            }
        })
        .collect()
}

/// (newest checkpoint size, bytes of log at or past its sequence number).
fn durability_footprint(dir: &std::path::Path) -> (u64, u64) {
    let mut newest_ckpt = (0u64, 0u64);
    let mut segments: Vec<(u64, u64)> = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let len = entry.metadata().expect("metadata").len();
        if let Some(seq) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".bin"))
        {
            let seq: u64 = seq.parse().expect("sequence");
            if seq >= newest_ckpt.0 {
                newest_ckpt = (seq, len);
            }
        } else if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            segments.push((seq.parse().expect("sequence"), len));
        }
    }
    let tail: u64 = segments
        .iter()
        .filter(|(seq, _)| *seq >= newest_ckpt.0)
        .map(|(_, len)| len)
        .sum();
    (newest_ckpt.1, tail)
}

// ===== E14: analyzer verdicts vs measured residual growth ==================

/// One workload of the static-analyzer cross-validation.
#[derive(Debug)]
pub struct E14Row {
    pub workload: &'static str,
    pub formula: &'static str,
    /// `tdb_analysis::certify` verdict, rendered.
    pub verdict: String,
    /// Retained residual nodes after the short history.
    pub retained_short: usize,
    /// Retained residual nodes after the long history.
    pub retained_long: usize,
    /// `retained_long / retained_short`.
    pub growth: f64,
    /// The measured curve matches the certified class: `Bounded(k)` never
    /// exceeds `k`, a window verdict plateaus (no new peak after the short
    /// prefix), `Unbounded` at least doubles between the two checkpoints.
    pub consistent: bool,
}

/// Adversarial history shared by every E14 workload: the clock ticks once
/// per state, `price()` cycles through small values, `@login(uN)` carries a
/// fresh binding each state, and a fixed user `"X"` logs in every 10th and
/// out every 25th state.
fn e14_drive(src: &str, states: usize) -> Vec<usize> {
    use tdb_engine::{EventSet, SystemState};
    use tdb_relation::{Database, Query, QueryDef};
    let f = parse_formula(src).expect("parse");
    let mut ev = IncrementalEvaluator::new(&f, EvalConfig::default()).expect("compile");
    let mut db = Database::new();
    db.define_query("price", QueryDef::new(0, Query::item("P")));
    let mut sizes = Vec::with_capacity(states);
    for i in 0..states {
        db.set_item("P", Value::Int(1 + (i as i64 % 7)));
        let mut events = EventSet::new();
        events.insert(Event::new("login", vec![Value::str(format!("u{i}"))]));
        if i % 10 == 0 {
            events.insert(Event::new("login", vec![Value::str("X")]));
        }
        if i % 25 == 0 {
            events.insert(Event::new("logout", vec![Value::str("X")]));
        }
        let state = SystemState::new(db.clone(), events, Timestamp(i as i64));
        ev.advance(&state, i).expect("advance");
        sizes.push(ev.retained_size());
    }
    sizes
}

/// Certify each workload statically, then measure actual residual retention
/// at two history lengths and check the measurement against the verdict.
pub fn e14_verdict_vs_growth(n_short: usize, n_long: usize) -> Vec<E14Row> {
    use tdb_analysis::{certify, Boundedness};
    const WORKLOADS: &[(&str, &str)] = &[
        ("ground_since", "not @logout(\"X\") since @login(\"X\")"),
        (
            "windowed_login",
            "[t := time] previously(@login(u) and time >= t - 200)",
        ),
        (
            "windowed_price_drop",
            "[p := price()] [t := time] previously(price() >= 2 * p and time >= t - 50)",
        ),
        ("unguarded_once", "once @login(u)"),
    ];
    let mut out = Vec::new();
    for &(workload, src) in WORKLOADS {
        let f = parse_formula(src).expect("parse");
        let cert = certify(&f, None);
        let sizes = e14_drive(src, n_long);
        let retained_short = sizes[n_short - 1];
        let retained_long = sizes[n_long - 1];
        let growth = retained_long as f64 / retained_short.max(1) as f64;
        let consistent = match cert.verdict {
            Boundedness::Bounded { nodes, .. } => *sizes.iter().max().expect("nonempty") <= nodes,
            Boundedness::BoundedByWindow { .. } => {
                let early_peak = *sizes[..n_short].iter().max().expect("nonempty");
                let late_peak = *sizes[n_short..].iter().max().expect("nonempty");
                late_peak <= early_peak
            }
            Boundedness::Unbounded => retained_long >= 2 * retained_short,
        };
        out.push(E14Row {
            workload,
            formula: src,
            verdict: cert.verdict.to_string(),
            retained_short,
            retained_long,
            growth,
            consistent,
        });
    }
    out
}
