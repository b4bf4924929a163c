//! The experiment harness: regenerates the EXPERIMENTS.md tables of the
//! paper's claims, E1–E12 and E14 (the closed experiments' tables are
//! frozen there).
//!
//! ```text
//! cargo run --release -p tdb-bench --bin harness            # all experiments
//! cargo run --release -p tdb-bench --bin harness -- e1 e5   # a subset
//! cargo run --release -p tdb-bench --bin harness -- --quick # smaller sweeps
//! ```
//!
//! An unknown name selects nothing.

use std::io::Write;

use tdb_bench::experiments as ex;
use tdb_bench::table::{f2, render};

/// Progress marker on stderr (stdout is block-buffered when redirected)
/// plus an explicit stdout flush after each table.
fn mark(name: &str) {
    eprintln!("[harness] running {name} …");
}

fn flush() {
    let _ = std::io::stdout().flush();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let run = |name: &str| wanted.is_empty() || wanted.contains(&name);
    let seed = 42u64;

    if run("e1") {
        mark("e1");
        let sizes: &[usize] = if quick {
            &[100, 500, 2_000]
        } else {
            &[100, 1_000, 5_000, 20_000]
        };
        let rows = ex::e1_incremental_vs_naive(sizes, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.history_len.to_string(),
                    f2(r.incremental_us),
                    f2(r.naive_us),
                    f2(r.speedup),
                    r.firings_agree.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E1: incremental vs naive re-evaluation (per-update µs, tail of history)",
                &[
                    "history",
                    "incremental",
                    "naive",
                    "speedup",
                    "firings agree"
                ],
                &body,
            )
        );
    }

    if run("e2") {
        mark("e2");
        let sizes: &[usize] = if quick {
            &[200, 1_000, 4_000]
        } else {
            &[200, 2_000, 5_000, 50_000]
        };
        let rows = ex::e2_pruning(sizes, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.history_len.to_string(),
                    r.retained_pruned.to_string(),
                    r.retained_unpruned
                        .map(|u| u.to_string())
                        .unwrap_or_else(|| "- (skipped: quadratic)".into()),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E2: retained formula-state size, with vs without §5 pruning",
                &["history", "pruned", "unpruned"],
                &body,
            )
        );
    }

    if run("e3") {
        mark("e3");
        let counts: &[usize] = if quick {
            &[8, 64]
        } else {
            &[8, 64, 256, 1_024]
        };
        let states = if quick { 200 } else { 500 };
        let rows = ex::e3_relevance(counts, states, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.rules.to_string(),
                    r.evals_filtered.to_string(),
                    r.evals_default.to_string(),
                    r.evals_exhaustive.to_string(),
                    f2(r.us_per_state_filtered),
                    f2(r.us_per_state_default),
                    r.firings_agree.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E3: §8 relevance filtering (rule evaluations and µs per state)",
                &[
                    "rules",
                    "evals(filt)",
                    "evals(default)",
                    "evals(exhaustive, computed)",
                    "µs(filt)",
                    "µs(default)",
                    "agree"
                ],
                &body,
            )
        );
    }

    if run("e4") {
        mark("e4");
        let counts: &[usize] = if quick {
            &[50, 200]
        } else {
            &[50, 200, 1_000, 4_000]
        };
        let rows = ex::e4_aggregates(counts, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.samples.to_string(),
                    f2(r.accumulator_us),
                    f2(r.naive_us),
                    r.values_agree.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E4: §6.1.1 aggregate accumulator vs naive recomputation (µs/sample)",
                &["samples", "accumulator", "naive", "values agree"],
                &body,
            )
        );
    }

    if run("e5") {
        mark("e5");
        let ks: &[usize] = if quick {
            &[2, 4, 6, 8]
        } else {
            &[2, 4, 6, 8, 10, 12]
        };
        let rows = ex::e5_eventexpr(ks, 300, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.k.to_string(),
                    r.expr_size.to_string(),
                    r.nfa_states.to_string(),
                    r.dfa_states.to_string(),
                    r.min_dfa_states.to_string(),
                    r.ptl_formula_size.to_string(),
                    r.ptl_retained_size.to_string(),
                    r.detectors_agree.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E5: §10 event-expression DFA blowup vs PTL formula states (look-back k)",
                &[
                    "k",
                    "expr",
                    "NFA",
                    "DFA",
                    "minDFA",
                    "PTL size",
                    "PTL state",
                    "agree"
                ],
                &body,
            )
        );
    }

    if run("e6") {
        mark("e6");
        let retro: &[u32] = if quick {
            &[0, 200]
        } else {
            &[0, 100, 300, 500]
        };
        let updates = if quick { 150 } else { 400 };
        let rows = ex::e6_validtime(retro, updates, 20, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}%", r.retro_permille as f64 / 10.0),
                    r.max_delay.to_string(),
                    f2(r.tentative_us_per_update),
                    f2(r.confirm_us_per_update),
                    r.tentative_firings.to_string(),
                    r.confirmed_firings.to_string(),
                    f2(r.confirmed_lag),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E6: §9.2 tentative vs definite (confirmed) firings under retroactive updates",
                &[
                    "retro",
                    "Δ",
                    "tentative µs",
                    "confirm µs",
                    "tent fires",
                    "confirmed",
                    "lag"
                ],
                &body,
            )
        );
    }

    if run("e7") {
        mark("e7");
        let counts: &[usize] = if quick { &[1, 16] } else { &[1, 16, 64, 256] };
        let commits = if quick { 100 } else { 300 };
        let rows = ex::e7_constraints(counts, commits, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.constraints.to_string(),
                    f2(r.us_per_commit),
                    r.aborts.to_string(),
                    r.history_consistent.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E7: temporal integrity-constraint gate cost per commit",
                &["constraints", "µs/commit", "aborts", "consistent"],
                &body,
            )
        );
    }

    if run("e8") {
        mark("e8");
        let r = ex::e8_temporal_action();
        println!(
            "{}",
            render(
                "E8: §7 temporal action — A every 10 minutes for 1 hour after C",
                &["schedule", "times"],
                &[
                    vec!["expected".into(), format!("{:?}", r.expected_times)],
                    vec!["executed".into(), format!("{:?}", r.execution_times)],
                    vec![
                        "match".into(),
                        (r.execution_times == r.expected_times).to_string(),
                    ],
                ],
            )
        );
    }

    if run("e9") {
        mark("e9");
        let trials = if quick { 200 } else { 2_000 };
        let r = ex::e9_online_offline(trials, seed);
        println!(
            "{}",
            render(
                "E9: §9.3 online vs offline constraint satisfaction",
                &["metric", "value"],
                &[
                    vec!["random valid-time histories".into(), r.trials.to_string()],
                    vec!["online ≠ offline".into(), r.disagreements.to_string()],
                    vec![
                        "disagreements on collapsed history (Thm 2 ⇒ 0)".into(),
                        r.collapsed_disagreements.to_string(),
                    ],
                ],
            )
        );
    }

    if run("e10") {
        mark("e10");
        let sizes: &[usize] = if quick {
            &[200, 1_000]
        } else {
            &[200, 2_000, 10_000]
        };
        let rows = ex::e10_auxrel(sizes, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.history_len.to_string(),
                    f2(r.formula_state_us),
                    f2(r.aux_relation_us),
                    r.formula_state_retained.to_string(),
                    r.aux_versions_retained.to_string(),
                    r.firings_agree.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E10: formula-state vs auxiliary-relation strategy (µs/update)",
                &[
                    "history",
                    "F-state µs",
                    "aux-rel µs",
                    "F retained",
                    "aux versions",
                    "agree"
                ],
                &body,
            )
        );
    }

    flush();
    if run("e12") {
        mark("e12");
        let sizes: &[usize] = if quick {
            &[200, 1_000]
        } else {
            &[200, 2_000, 10_000]
        };
        let rows = ex::e12_durability(sizes, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.history_len.to_string(),
                    r.checkpoint_bytes.to_string(),
                    r.wal_tail_bytes.to_string(),
                    f2(r.recovery_ms),
                    r.ops_replayed.to_string(),
                    r.state_matches.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E12: Theorem-1 checkpoints — size and recovery latency vs history",
                &[
                    "history",
                    "ckpt bytes",
                    "wal tail bytes",
                    "recovery ms",
                    "replayed",
                    "matches"
                ],
                &body,
            )
        );
    }

    flush();
    if run("e11") {
        mark("e11");
        let rows = ex::e11_worked_examples();
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.example.to_string(),
                    if r.pass { "PASS" } else { "FAIL" }.into(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E11: worked examples from the paper",
                &["example", "result"],
                &body
            )
        );
    }

    flush();
    if run("e14") {
        mark("e14");
        let (n_short, n_long) = if quick { (300, 1_200) } else { (1_000, 4_000) };
        let rows = ex::e14_verdict_vs_growth(n_short, n_long);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.to_string(),
                    r.verdict.clone(),
                    r.retained_short.to_string(),
                    r.retained_long.to_string(),
                    f2(r.growth),
                    r.consistent.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E14: analyzer verdicts vs measured residual growth",
                &[
                    "workload",
                    "verdict",
                    "retained@short",
                    "retained@long",
                    "growth",
                    "consistent"
                ],
                &body,
            )
        );
    }
    flush();
}
