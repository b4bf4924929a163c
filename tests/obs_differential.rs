//! Deterministic differential fuzzing of the whole dispatch stack, with the
//! observability registry as a second oracle.
//!
//! A seeded random rule catalog (rising-edge thresholds, bounded windows,
//! event `Since` chains, temporal aggregates) runs through a 500+-state
//! seeded history with no WAL, with an in-memory WAL and with
//! instrumentation off. The checks:
//!
//! * firings, commit/abort pattern and final database are byte-identical
//!   across all three: recording metrics never changes what fires;
//! * the firings, temporal aggregates included, equal
//!   `tdb_baseline::naive_firings`, a full-history re-evaluation with the
//!   manager's edge-trigger filter replayed on top;
//! * per-run metrics invariants hold on a private registry: every rule
//!   visit is accounted for by exactly one dispatch outcome, the rule
//!   evaluation histogram count equals the full-evaluation counter (one
//!   timer start per full evaluation), the firings and gate-violation
//!   counters add up to the firing log, and the registry mirrors
//!   `ManagerStats`;
//! * global free-function counters (atom memo, read-set fan-out) advance
//!   and stay consistent: memo hits never exceed lookups.

use std::sync::Arc;

use temporal_adb::baseline::naive_firings;
use temporal_adb::core::{
    Action, ActiveDatabase, FiringRecord, ManagerConfig, ManagerStats, Rule, SharedMemorySink,
};
use temporal_adb::engine::History;
use temporal_adb::obs::{ObsConfig, Registry, RegistrySnapshot};
use temporal_adb::ptl::parse_formula;
use temporal_adb::relation::Database;

use tdb_bench::workload::{
    apply_diff_step, diff_step_ops, differential_cascade_rules, differential_db,
    differential_rules, differential_steps, differential_stratified_rules, differential_writer_db,
    DIFF_RELATIONS,
};
use temporal_adb::core::BatchCertificate;

const STEP_SEED: u64 = 0xD1FF_5EED;
const RULE_SEED: u64 = 0x0B5E_CA4E;
const STEPS: usize = 520;
const RULES: usize = 12;

/// The full observable trace of one configuration, plus its metrics.
struct RunOut {
    firings: Vec<FiringRecord>,
    commits: Vec<bool>,
    db: Database,
    history: History,
    stats: ManagerStats,
    snap: RegistrySnapshot,
}

/// The dispatch configuration under test.
#[derive(Debug, Clone, Copy)]
struct Combo {
    relevance_filtering: bool,
    wal: bool,
    /// Record into the run's private registry; `false` builds the run with
    /// `ObsConfig::off()`.
    record: bool,
}

impl Combo {
    fn new(wal: bool) -> Combo {
        Combo {
            relevance_filtering: false,
            wal,
            record: true,
        }
    }

    /// A fresh database over `rules`, recording into `registry` when
    /// `self.record`.
    fn build(self, rules: &[Rule], registry: &Arc<Registry>) -> ActiveDatabase {
        let cfg = ManagerConfig {
            relevance_filtering: self.relevance_filtering,
            obs: if self.record {
                ObsConfig::with_registry(registry.clone())
            } else {
                ObsConfig::off()
            },
            ..Default::default()
        };
        let mut adb = if self.wal {
            let sink = Box::new(SharedMemorySink::new(64));
            ActiveDatabase::with_storage(differential_db(), cfg, sink).unwrap()
        } else {
            ActiveDatabase::with_config(differential_db(), cfg)
        };
        for r in rules {
            adb.add_rule(r.clone()).unwrap();
        }
        adb
    }
}

fn run_combo(wal: bool) -> RunOut {
    run_combo_with(&differential_rules(RULE_SEED, RULES), Combo::new(wal))
}

fn run_combo_with(rules: &[Rule], combo: Combo) -> RunOut {
    let registry = Arc::new(Registry::new());
    let mut adb = combo.build(rules, &registry);
    let commits: Vec<bool> = differential_steps(STEP_SEED, STEPS)
        .iter()
        .map(|s| apply_diff_step(&mut adb, s))
        .collect();
    RunOut {
        firings: adb.firings().to_vec(),
        commits,
        db: adb.db().clone(),
        history: adb.history().clone(),
        stats: adb.stats(),
        snap: registry.snapshot(),
    }
}

/// The per-run metric invariants every configuration must satisfy.
fn assert_metric_invariants(label: &str, out: &RunOut) {
    let c = |name: &str| out.snap.counter(name).unwrap_or(0);
    let visits = c("tdb_dispatch_rule_visits_total");
    let full = c("tdb_dispatch_full_evaluations_total");
    let sparse = c("tdb_dispatch_sparse_advances_total");
    let fixpoint = c("tdb_dispatch_fixpoint_skipped_rules_total");
    let gated = c("tdb_dispatch_gated_constraint_skips_total");
    let relevance = c("tdb_dispatch_relevance_skipped_rules_total");
    assert!(visits > 0, "{label}: dispatch never ran");
    assert_eq!(
        visits,
        gated + relevance + full + sparse + fixpoint,
        "{label}: every rule visit must resolve to exactly one outcome"
    );
    let commits = c("tdb_dispatch_commits_total");
    assert!(commits > 0, "{label}: no commit states dispatched");
    assert_eq!(
        visits % commits,
        0,
        "{label}: each dispatch visits the whole catalog"
    );

    let eval_hist = out
        .snap
        .histogram("tdb_rule_eval_ns")
        .expect("rule evaluation histogram registered");
    assert_eq!(
        eval_hist.count, full,
        "{label}: one evaluation timer per full evaluation"
    );
    assert_eq!(
        c("tdb_firings_total") + c("tdb_gate_violations_total"),
        out.firings.len() as u64,
        "{label}: firings and violations counters add up to the firing log"
    );
    assert_eq!(
        out.stats.firings,
        out.firings.len() as u64,
        "{label}: firings"
    );

    // The registry mirrors the legacy `ManagerStats` counters exactly
    // (the checkpoint codec still serializes the struct; the registry is
    // additive alongside it, and keeps the gate's share apart).
    assert_eq!(
        full + c("tdb_gate_full_evaluations_total"),
        out.stats.evaluations,
        "{label}: evaluations"
    );
    assert_eq!(
        sparse + fixpoint + c("tdb_gate_sparse_advances_total"),
        out.stats.sparse_advances,
        "{label}: sparse advances (registry splits out fixpoint skips)"
    );
    assert_eq!(relevance, out.stats.skips, "{label}: relevance skips");
}

#[test]
fn eight_combos_agree_and_match_the_naive_oracle() {
    // Free-function instrumentation (atom memo, read-set fan-out, WAL)
    // records into the process-global registry only while the global flag
    // is on; those counters are monotone, so snapshots stay comparable
    // even with other tests running in this binary.
    temporal_adb::obs::set_enabled(true);
    let global_before = temporal_adb::obs::global().snapshot();

    let reference = run_combo(false);
    assert!(
        !reference.firings.is_empty(),
        "the seeded workload must produce firings (dead differential test otherwise)"
    );
    assert_eq!(reference.commits.len(), STEPS);
    assert_eq!(
        reference.history.retained(),
        reference.history.len(),
        "the oracle walks the full history; nothing may be evicted"
    );

    // Oracle: naive full-history re-evaluation of every rule.
    let rules = differential_rules(RULE_SEED, RULES);
    let expected = naive_firings(&rules, &reference.history, |_, _| true).unwrap();
    assert!(
        expected.iter().any(|f| f.rule.starts_with("agg")),
        "aggregate rules must fire too (dead oracle otherwise)"
    );
    assert_eq!(
        reference.firings, expected,
        "incremental dispatch diverged from the naive full-history oracle"
    );

    // With and without a WAL: byte-identical observable traces.
    assert_metric_invariants("wal=off", &reference);
    let out = run_combo(true);
    assert_eq!(out.firings, reference.firings, "wal=on: firings diverge");
    assert_eq!(out.commits, reference.commits, "wal=on: commits diverge");
    assert_eq!(out.db, reference.db, "wal=on: final databases diverge");
    assert_metric_invariants("wal=on", &out);
    for run in [&reference, &out] {
        assert!(
            run.stats.sparse_advances > 0,
            "delta dispatch must actually take the sparse path"
        );
    }

    // Instrumentation off: the same observable trace, and nothing recorded.
    let off = run_combo_with(
        &rules,
        Combo {
            record: false,
            ..Combo::new(false)
        },
    );
    assert_eq!(off.firings, reference.firings, "obs=off: firings diverge");
    assert_eq!(off.commits, reference.commits, "obs=off: commits diverge");
    assert_eq!(off.db, reference.db, "obs=off: final databases diverge");
    assert_eq!(
        off.snap
            .counter("tdb_dispatch_rule_visits_total")
            .unwrap_or(0),
        0,
        "obs=off: the run recorded dispatch metrics"
    );

    // Global free-function counters: monotone and internally consistent.
    let global_after = temporal_adb::obs::global().snapshot();
    let delta_of = |name: &str| {
        global_after.counter(name).unwrap_or(0) - global_before.counter(name).unwrap_or(0)
    };
    let lookups = delta_of("tdb_atom_memo_lookups_total");
    let hits = delta_of("tdb_atom_memo_hits_total");
    assert!(lookups > 0, "atom memo never consulted");
    assert!(hits <= lookups, "memo hits exceed lookups");
    let query_lookups = delta_of("tdb_query_memo_lookups_total");
    assert!(query_lookups > 0, "query memo never consulted");
    assert!(
        delta_of("tdb_query_memo_hits_total") <= query_lookups,
        "query memo hits exceed lookups"
    );
    assert!(
        delta_of("tdb_atom_evaluations_total") > 0 && delta_of("tdb_atom_reuses_total") > 0,
        "delta dispatch must evaluate some atoms and keep others"
    );
    assert!(
        delta_of("tdb_states_total") > 0,
        "state counter never advanced"
    );
    assert!(
        delta_of("tdb_wal_logical_ops_total") > 0,
        "WAL combos must record logical appends"
    );
    assert!(
        delta_of("tdb_wal_checkpoints_total") > 0,
        "the in-memory sink's checkpoint cadence must have triggered"
    );
    assert!(
        delta_of("tdb_delta_touched_names_total") > 0,
        "delta summaries never counted"
    );
    assert!(
        delta_of("tdb_readset_affected_marks_total") > 0,
        "read-set fan-out never marked a rule affected"
    );
}

/// Reruns the seeded workload through `ActiveDatabase::commit_batch`,
/// regrouping the step script into group commits of `batch` steps each.
fn run_combo_batched(rules: &[Rule], combo: Combo, batch: usize) -> RunOut {
    let registry = Arc::new(Registry::new());
    let mut adb = combo.build(rules, &registry);
    let steps = differential_steps(STEP_SEED, STEPS);
    let mut rows = vec![0i64; DIFF_RELATIONS];
    let mut commits = Vec::with_capacity(STEPS);
    for chunk in steps.chunks(batch) {
        let mut ops = Vec::new();
        let mut payload_at = Vec::with_capacity(chunk.len());
        for s in chunk {
            let lowered = diff_step_ops(s, &mut rows);
            payload_at.push(ops.len() + lowered.len() - 1);
            ops.extend(lowered);
        }
        let outcomes = adb.commit_batch(&ops).unwrap();
        // The step's commit bit is its payload op's outcome (the leading
        // `AdvanceClock` never fails), mirroring `apply_diff_step`.
        for &i in &payload_at {
            commits.push(outcomes[i].result.is_ok());
        }
    }
    RunOut {
        firings: adb.firings().to_vec(),
        commits,
        db: adb.db().clone(),
        history: adb.history().clone(),
        stats: adb.stats(),
        snap: registry.snapshot(),
    }
}

/// Group commit must not change what fires: regrouping the whole 520-step
/// script into batches of 1, 7 and 64 steps — with and without §8
/// relevance filtering, on and off a live WAL sink — reproduces the per-op reference run *byte-identically* (firings
/// with their state indices and timestamps, commit pattern, final database,
/// history) and with the same work, counter for counter: a one-state slice
/// and a 64-state slice go through the same step body, and `ManagerStats`
/// and the dispatch/gate series must not be able to tell them apart.
///
/// The catalog is the generated (Notify-only) rules, temporal aggregates
/// included, plus a level-triggered rule, which the fixpoint skip must let
/// fire at every satisfying state, and an integrity constraint: gating ops
/// drain the pending states first, so its slices mix states the gate
/// already advanced it across with states it steps through like any
/// trigger. Writer catalogs are
/// [`data_writing_catalogs_are_byte_identical_when_eagerly_batched`]'s.
#[test]
fn batched_commits_reproduce_per_op_run_byte_identically() {
    temporal_adb::obs::set_enabled(true);
    let mut catalog = differential_rules(RULE_SEED, RULES);
    catalog.push(
        Rule::trigger(
            "level_r0",
            parse_formula("r0_q() > 100").unwrap(),
            Action::Notify,
        )
        .level_triggered(),
    );
    // With the constraint every gating op drains the pending states, so
    // slices stay short; without it a 64-step batch is one 64-state slice.
    let mut gated_catalog = catalog.clone();
    gated_catalog.push(Rule::constraint(
        "cap_w0",
        parse_formula("w0_q() <= 120").unwrap(),
    ));

    for (relevance_filtering, wal, gated) in [
        (false, true, true),
        (false, false, false),
        (true, true, false),
        (true, false, true),
    ] {
        // Evaluation work (full vs sparse vs skipped) depends on the
        // dispatch config, so each batched run compares against the per-op
        // run of the *same* configuration.
        let combo = Combo {
            relevance_filtering,
            wal,
            record: true,
        };
        let catalog = if gated { &gated_catalog } else { &catalog };
        let reference = run_combo_with(catalog, combo);
        assert_eq!(
            reference.commits.contains(&false),
            gated,
            "{combo:?}: the constraint, and nothing else, vetoes commits"
        );
        let level: Vec<usize> = reference
            .firings
            .iter()
            .filter(|f| f.rule == "level_r0")
            .map(|f| f.state_index)
            .collect();
        assert!(
            level.windows(2).any(|w| w[1] == w[0] + 1),
            "{combo:?}: the level-triggered rule never fired at two states running"
        );
        assert_metric_invariants(&format!("{combo:?}"), &reference);
        for batch in [1usize, 7, 64] {
            let label = format!("batch={batch} {combo:?}");
            let out = run_combo_batched(catalog, combo, batch);
            assert_eq!(out.firings, reference.firings, "{label}: firings diverge");
            assert_eq!(out.commits, reference.commits, "{label}: commits diverge");
            assert_eq!(out.db, reference.db, "{label}: final databases diverge");
            assert_eq!(
                out.history.len(),
                reference.history.len(),
                "{label}: history length diverges"
            );
            assert_eq!(out.stats, reference.stats, "{label}: ManagerStats diverge");
            for series in [
                "tdb_dispatch_commits_total",
                "tdb_dispatch_rule_visits_total",
                "tdb_dispatch_gated_constraint_skips_total",
                "tdb_dispatch_relevance_skipped_rules_total",
                "tdb_dispatch_full_evaluations_total",
                "tdb_dispatch_sparse_advances_total",
                "tdb_dispatch_fixpoint_skipped_rules_total",
                "tdb_firings_total",
                "tdb_gate_checks_total",
                "tdb_gate_full_evaluations_total",
                "tdb_gate_sparse_advances_total",
                "tdb_gate_violations_total",
            ] {
                assert_eq!(
                    out.snap.counter(series),
                    reference.snap.counter(series),
                    "{label}: {series} diverges"
                );
            }
            assert_metric_invariants(&label, &out);
        }
    }
}

// ---- batch-safety differential: data-writing catalogs -----------------------

/// Per-op oracle for the writer catalogs: typed facade calls, one step per
/// commit — the ground-truth §8 *immediate* schedule.
fn run_writer_per_op(rules: &[Rule]) -> RunOut {
    let registry = Arc::new(Registry::new());
    let cfg = ManagerConfig {
        obs: ObsConfig::with_registry(registry.clone()),
        ..Default::default()
    };
    let mut adb = ActiveDatabase::with_config(differential_writer_db(), cfg);
    for r in rules {
        adb.add_rule(r.clone()).unwrap();
    }
    let commits: Vec<bool> = differential_steps(STEP_SEED, STEPS)
        .iter()
        .map(|s| apply_diff_step(&mut adb, s))
        .collect();
    RunOut {
        firings: adb.firings().to_vec(),
        commits,
        db: adb.db().clone(),
        history: adb.history().clone(),
        stats: adb.stats(),
        snap: registry.snapshot(),
    }
}

/// The same step script regrouped into group commits of `batch` steps. Returns the run plus the certificate the runtime
/// assigned to the catalog (which decides how `commit_batch` executes:
/// fused, fence-drained sub-slices, or per-op re-entry).
fn run_writer_batched(rules: &[Rule], batch: usize) -> (RunOut, BatchCertificate) {
    let registry = Arc::new(Registry::new());
    let cfg = ManagerConfig {
        obs: ObsConfig::with_registry(registry.clone()),
        ..Default::default()
    };
    let mut adb = ActiveDatabase::with_config(differential_writer_db(), cfg);
    for r in rules {
        adb.add_rule(r.clone()).unwrap();
    }
    let cert = adb.batch_certificate();
    let steps = differential_steps(STEP_SEED, STEPS);
    let mut rows = vec![0i64; DIFF_RELATIONS];
    let mut commits = Vec::with_capacity(STEPS);
    for chunk in steps.chunks(batch) {
        let mut ops = Vec::new();
        let mut payload_at = Vec::with_capacity(chunk.len());
        for s in chunk {
            let lowered = diff_step_ops(s, &mut rows);
            payload_at.push(ops.len() + lowered.len() - 1);
            ops.extend(lowered);
        }
        let outcomes = adb.commit_batch(&ops).unwrap();
        for &i in &payload_at {
            commits.push(outcomes[i].result.is_ok());
        }
    }
    let out = RunOut {
        firings: adb.firings().to_vec(),
        commits,
        db: adb.db().clone(),
        history: adb.history().clone(),
        stats: adb.stats(),
        snap: registry.snapshot(),
    };
    (out, cert)
}

/// The §8 gap, closed end to end: catalogs whose fired actions *write
/// data* — one per batch-safety certificate class — replay the seeded
/// 520-step script as eager group commits of 1, 7 and 64 steps, and every
/// run is **byte-identical** to the per-op oracle: same firing records
/// (rule, state index, timestamp, environment), same commit pattern, same
/// final database (the sinks only actions write), same history length.
///
/// Per class this exercises a different execution path in `commit_batch`:
///
/// * `exact` (no writers: the generated catalog, temporal aggregates
///   included — an aggregate is formula state, not a writer) — fully
///   fused slice dispatch;
/// * `stratified(2)` — fence-drained sub-slices; the catalog includes a
///   bare-`previously` writer (temporal memory: its firings must coincide
///   with read-set fences — the inertia property), an impure action value
///   (materialization point pinned by the fences) and a `lasttime` reader;
/// * `cascade-required` — a self-cycling writer forcing per-op re-entry.
///
/// Every firing also crosses the runtime write-cover tripwire
/// (`CoreError::WriteSetViolation`): the test passing means no fired
/// action ever produced a delta outside the analyzer's write set
/// (the static-vs-runtime soundness check).
#[test]
fn data_writing_catalogs_are_byte_identical_when_eagerly_batched() {
    let catalogs: [(&str, Vec<Rule>, BatchCertificate); 3] = [
        (
            "exact",
            differential_rules(RULE_SEED, RULES),
            BatchCertificate::Exact,
        ),
        (
            "stratified",
            differential_stratified_rules(),
            BatchCertificate::Stratified { strata: 2 },
        ),
        (
            "cascade-required",
            differential_cascade_rules(),
            BatchCertificate::CascadeRequired,
        ),
    ];
    for (label, rules, want_cert) in &catalogs {
        let reference = run_writer_per_op(rules);
        assert!(!reference.firings.is_empty(), "{label}: dead workload");
        // Every hand-rolled rule must fire (generated `agg…` rules may
        // legitimately stay quiet under this seed; the existing combos
        // test already guards the generated catalog's liveness).
        for r in rules.iter().filter(|r| !r.name.starts_with("agg")) {
            assert!(
                reference.firings.iter().any(|f| f.rule == r.name),
                "{label}: rule `{}` never fired — differential signal too weak",
                r.name
            );
        }
        for batch in [1usize, 7, 64] {
            let tag = format!("{label} batch={batch}");
            let (out, cert) = run_writer_batched(rules, batch);
            assert_eq!(cert, *want_cert, "{tag}: unexpected certificate");
            assert_eq!(out.firings, reference.firings, "{tag}: firings diverge");
            assert_eq!(out.commits, reference.commits, "{tag}: commits diverge");
            assert_eq!(out.db, reference.db, "{tag}: final databases diverge");
            assert_eq!(
                out.history.len(),
                reference.history.len(),
                "{tag}: history length diverges"
            );
            assert_metric_invariants(&tag, &out);
        }
    }
}
