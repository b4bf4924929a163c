//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p tdb-bench --bin harness            # all experiments
//! cargo run --release -p tdb-bench --bin harness -- e1 e5   # a subset
//! cargo run --release -p tdb-bench --bin harness -- --quick # smaller sweeps
//! cargo run --release -p tdb-bench --bin harness -- e16 --metrics-json m.json
//! ```
//!
//! `--metrics-json PATH` enables the global obs registry for the whole run
//! and writes its JSON snapshot to `PATH` on exit.

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
    // `--metrics-json out.json`: turn the global obs registry on for the
    // whole run and dump its JSON snapshot to `out.json` before exiting.
    let metrics_json: Option<String> = args
        .iter()
        .position(|a| a == "--metrics-json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if metrics_json.is_some() {
        tdb_obs::set_enabled(true);
    }
    let mut wanted: Vec<String> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--metrics-json" {
            skip_next = true;
        } else if !a.starts_with("--") {
            wanted.push(a.clone());
        }
    }
    let run = |name: &str| wanted.is_empty() || wanted.iter().any(|w| w == name);
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
                    f2(r.rewritten_us),
                    f2(r.naive_us),
                    r.values_agree.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E4: §6.1.1 aggregate rewriting vs naive recomputation (µs/sample)",
                &["samples", "rewritten", "naive", "values agree"],
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
                    f2(r.definite_us_per_update),
                    r.tentative_firings.to_string(),
                    r.definite_firings.to_string(),
                    f2(r.definite_lag),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E6: §9.2 tentative vs definite triggers under retroactive updates",
                &[
                    "retro",
                    "Δ",
                    "tentative µs",
                    "definite µs",
                    "tent fires",
                    "def fires",
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
    if run("e16") {
        mark("e16");
        let (rules, relations, states) = if quick {
            (100, 10, 60)
        } else {
            (1_000, 100, 400)
        };
        let rows = ex::e16_obs_overhead(rules, relations, states, seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.rules.to_string(),
                    r.obs_enabled.to_string(),
                    f2(r.us_per_state),
                    f2(r.states_per_sec),
                    format!("{:.2}%", r.overhead_pct),
                    r.identical_firings.to_string(),
                    r.distinct_metrics.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E16: observability overhead — obs off vs recording registry",
                &[
                    "rules",
                    "obs",
                    "us/state",
                    "states/s",
                    "overhead",
                    "identical",
                    "metrics"
                ],
                &body,
            )
        );
        // Machine-readable copy for tooling (scripts/bench_e16.sh).
        let mut json = String::from("{\n  \"experiment\": \"e16\",\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"rules\": {}, \"relations\": {}, \"obs_enabled\": {}, \
                 \"us_per_state\": {:.3}, \"states_per_sec\": {:.1}, \
                 \"overhead_pct\": {:.3}, \"identical_firings\": {}, \
                 \"distinct_metrics\": {}}}{}\n",
                r.rules,
                r.relations,
                r.obs_enabled,
                r.us_per_state,
                r.states_per_sec,
                r.overhead_pct,
                r.identical_firings,
                r.distinct_metrics,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        match std::fs::write("BENCH_E16.json", &json) {
            Ok(()) => eprintln!("[harness] wrote BENCH_E16.json"),
            Err(e) => eprintln!("[harness] could not write BENCH_E16.json: {e}"),
        }
    }

    flush();
    if run("e17") {
        mark("e17");
        let states = if quick { 200 } else { 1_500 };
        let rows = ex::e17_shard_scaling(&[1, 2, 4, 8], states);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.shards.to_string(),
                    r.total_states.to_string(),
                    f2(r.elapsed_us / 1e3),
                    f2(r.agg_states_per_sec),
                    f2(r.speedup_vs_one),
                    if r.shards > r.host_cpus { "yes" } else { "no" }.to_string(),
                    r.firings_ok.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E17: server shard scaling — aggregate states/s over TCP, one tenant per worker",
                &[
                    "shards",
                    "states",
                    "ms",
                    "states/s",
                    "speedup",
                    "host-limited",
                    "firings ok"
                ],
                &body,
            )
        );
        // Machine-readable copy for tooling (scripts/bench_e17.sh).
        let mut json = String::from("{\n  \"experiment\": \"e17\",\n");
        let host_cpus = rows.first().map(|r| r.host_cpus).unwrap_or(1);
        json.push_str(&format!("  \"host_cpus\": {host_cpus},\n  \"rows\": [\n"));
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"shards\": {}, \"states_per_tenant\": {}, \"total_states\": {}, \
                 \"elapsed_us\": {:.1}, \"agg_states_per_sec\": {:.1}, \
                 \"speedup_vs_one\": {:.3}, \"host_limited\": {}, \"firings_ok\": {}}}{}\n",
                r.shards,
                r.states_per_tenant,
                r.total_states,
                r.elapsed_us,
                r.agg_states_per_sec,
                r.speedup_vs_one,
                r.shards > r.host_cpus,
                r.firings_ok,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        match std::fs::write("BENCH_E17.json", &json) {
            Ok(()) => eprintln!("[harness] wrote BENCH_E17.json"),
            Err(e) => eprintln!("[harness] could not write BENCH_E17.json: {e}"),
        }
    }

    flush();
    if run("e18") {
        mark("e18");
        let (rule_counts, relations, states): (&[usize], usize, usize) = if quick {
            (&[20, 100], 10, 240)
        } else {
            (&[100, 1_000], 100, 2_000)
        };
        let rows = ex::e18_group_commit(rule_counts, relations, states, seed, &[1, 7, 64]);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.rules.to_string(),
                    if r.batch == 0 {
                        "per-op".to_string()
                    } else {
                        r.batch.to_string()
                    },
                    f2(r.us_per_state),
                    f2(r.states_per_sec),
                    f2(r.speedup_vs_per_op),
                    r.identical_firings.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E18: group commit — durable ingest throughput (SyncPolicy::Always)",
                &[
                    "rules",
                    "batch",
                    "us/state",
                    "states/s",
                    "speedup",
                    "identical"
                ],
                &body,
            )
        );
        // Machine-readable copy for tooling (scripts/bench_e18.sh and the
        // CI smoke job via scripts/check_bench_e18.py).
        let mut json = String::from("{\n  \"experiment\": \"e18\",\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"rules\": {}, \"batch\": {}, \"us_per_state\": {:.3}, \
                 \"states_per_sec\": {:.1}, \"speedup_vs_per_op\": {:.3}, \
                 \"identical_firings\": {}}}{}\n",
                r.rules,
                r.batch,
                r.us_per_state,
                r.states_per_sec,
                r.speedup_vs_per_op,
                r.identical_firings,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        match std::fs::write("BENCH_E18.json", &json) {
            Ok(()) => eprintln!("[harness] wrote BENCH_E18.json"),
            Err(e) => eprintln!("[harness] could not write BENCH_E18.json: {e}"),
        }
    }

    flush();
    if run("e21") {
        mark("e21");
        let n = if quick { 2_000 } else { 20_000 };
        let rows = ex::e21_disorder_stream(n, &[0, 5, 50], &[0, 200, 800], seed);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.max_delay.to_string(),
                    r.rate_permille.to_string(),
                    r.events.to_string(),
                    r.disordered.to_string(),
                    f2(r.us_per_event),
                    r.tentative.to_string(),
                    r.confirmed.to_string(),
                    r.retracted.to_string(),
                    r.max_live_states.to_string(),
                    f2(r.mean_confirm_lag),
                    r.oracle_identical.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                "E21: watermarked out-of-order ingestion — tentative/definite stream vs Δ and disorder rate",
                &[
                    "Δ",
                    "rate ‰",
                    "events",
                    "late",
                    "µs/event",
                    "tentative",
                    "confirmed",
                    "retracted",
                    "max live",
                    "confirm lag",
                    "oracle =="
                ],
                &body,
            )
        );

        // Machine-readable copy for tooling (scripts/bench_e21.sh and the
        // CI smoke job via scripts/check_bench_e21.py).
        let mut json = String::from("{\n  \"experiment\": \"e21\",\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"max_delay\": {}, \"rate_permille\": {}, \"events\": {}, \
                 \"disordered\": {}, \"elapsed_us\": {:.1}, \"us_per_event\": {:.3}, \
                 \"tentative\": {}, \"confirmed\": {}, \"retracted\": {}, \
                 \"max_live_states\": {}, \"mean_confirm_lag\": {:.2}, \
                 \"oracle_identical\": {}}}{}\n",
                r.max_delay,
                r.rate_permille,
                r.events,
                r.disordered,
                r.elapsed_us,
                r.us_per_event,
                r.tentative,
                r.confirmed,
                r.retracted,
                r.max_live_states,
                r.mean_confirm_lag,
                r.oracle_identical,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        match std::fs::write("BENCH_E21.json", &json) {
            Ok(()) => eprintln!("[harness] wrote BENCH_E21.json"),
            Err(e) => eprintln!("[harness] could not write BENCH_E21.json: {e}"),
        }
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

    if let Some(path) = metrics_json {
        match std::fs::write(&path, tdb_obs::global().render_json()) {
            Ok(()) => eprintln!("[harness] wrote metrics snapshot to {path}"),
            Err(e) => eprintln!("[harness] could not write {path}: {e}"),
        }
    }
}
