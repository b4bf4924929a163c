//! Snapshot tests for `tdb-lint` over the example rule files.
//!
//! Each `examples/lint/NAME.rules` has a checked-in
//! `examples/lint/NAME.expected` holding the exact text report. Regenerate
//! after an intentional output change with:
//!
//! ```text
//! TDB_UPDATE_SNAPSHOTS=1 cargo test --test lint_snapshots
//! ```

use temporal_adb::analysis::{
    analyze_rule_set, parse_rule_file, render_sarif, BatchCertificate, Boundedness, Report,
    SarifEntry,
};

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/lint");

fn report_for(name: &str) -> (String, Report) {
    let src = std::fs::read_to_string(format!("{DIR}/{name}.rules")).unwrap();
    let file = parse_rule_file(&src).unwrap();
    (src.clone(), analyze_rule_set(&file.rules))
}

fn check_snapshot(name: &str) -> Report {
    let (src, report) = report_for(name);
    let rendered = report.render_text(Some(&src));
    let expected_path = format!("{DIR}/{name}.expected");
    if std::env::var_os("TDB_UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&expected_path, &rendered).unwrap();
        return report;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!("missing snapshot {expected_path} ({e}); run with TDB_UPDATE_SNAPSHOTS=1")
    });
    assert_eq!(
        rendered, expected,
        "lint output for {name}.rules diverged from its snapshot; \
         rerun with TDB_UPDATE_SNAPSHOTS=1 if the change is intentional"
    );
    report
}

#[test]
fn quickstart_flags_raw_rule_and_certifies_windowed_variant() {
    let report = check_snapshot("quickstart");
    assert_eq!(report.verdicts[0].rule, "audit_raw");
    assert_eq!(report.verdicts[0].boundedness, Boundedness::Unbounded);
    assert_eq!(report.verdicts[1].rule, "audit_windowed");
    assert_eq!(
        report.verdicts[1].boundedness,
        Boundedness::BoundedByWindow { delta: 30 }
    );
    // The TDB001 span must point at the offending `once` subformula.
    let (src, _) = report_for("quickstart");
    let tdb001: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code.code() == "TDB001")
        .collect();
    assert_eq!(tdb001.len(), 1);
    assert_eq!(
        tdb001[0].span.unwrap().slice(&src).unwrap(),
        "once @login(u)"
    );
}

#[test]
fn stock_monitor_certified_window_bounded_and_graph_silent() {
    let report = check_snapshot("stock_monitor");
    assert_eq!(
        report.verdicts[0].boundedness,
        Boundedness::BoundedByWindow { delta: 10 }
    );
    assert_eq!(
        report.verdicts[1].boundedness,
        Boundedness::BoundedByWindow { delta: 120 }
    );
    // Both rules read `time`, so as writers they are order-sensitive and
    // self-cycle: batched evaluation must drain the cascade per op.
    let bs = report.batch_safety.as_ref().unwrap();
    assert_eq!(bs.certificate, BatchCertificate::CascadeRequired);
    assert!(
        !report.has_denials(),
        "batch hazards are info/warn, not deny"
    );
}

#[test]
fn login_audit_reports_unbounded_per_user_state() {
    let report = check_snapshot("login_audit");
    assert_eq!(report.verdicts[0].boundedness, Boundedness::Unbounded);
    assert!(report.has_denials());
}

#[test]
fn inventory_constraints_are_clean() {
    let report = check_snapshot("inventory_constraints");
    assert!(matches!(
        report.verdicts[0].boundedness,
        Boundedness::Bounded { .. }
    ));
    assert_eq!(
        report.verdicts[1].boundedness,
        Boundedness::BoundedByWindow { delta: 7 }
    );
    // `shrinkage_audit` reads `time`: an order-sensitive writer, so the
    // catalog needs per-op cascade drains when batched.
    let bs = report.batch_safety.as_ref().unwrap();
    assert_eq!(bs.certificate, BatchCertificate::CascadeRequired);
    assert!(
        !report.has_denials(),
        "batch hazards are info/warn, not deny"
    );
}

#[test]
fn cycle_example_reports_trigger_cycle() {
    let report = check_snapshot("cycle");
    assert!(report.diagnostics.iter().any(|d| d.code.code() == "TDB010"));
    assert!(report.diagnostics.iter().any(|d| d.code.code() == "TDB012"));
    assert!(!report.has_denials(), "cycle is warn-level, not deny");
}

#[test]
fn batch_notify_only_is_single_stratum_with_no_findings() {
    let report = check_snapshot("batch_notify_only");
    // File-loaded rules record each firing in `__executed_<name>`, so a
    // notify-only catalog is stratified(1), not exact — but with no
    // reader of those relations the lone stratum carries no fences and
    // the runtime fuses the batch exactly as it would an exact catalog.
    let bs = report.batch_safety.as_ref().unwrap();
    assert_eq!(bs.certificate, BatchCertificate::Stratified { strata: 1 });
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn batch_stratified_reports_tdb013_with_span() {
    let report = check_snapshot("batch_stratified");
    let bs = report.batch_safety.as_ref().unwrap();
    assert!(matches!(
        bs.certificate,
        BatchCertificate::Stratified { .. }
    ));
    let (src, _) = report_for("batch_stratified");
    let tdb013: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code.code() == "TDB013")
        .collect();
    assert_eq!(tdb013.len(), 1);
    // The span points at the reader condition influenced by the writer.
    assert_eq!(
        tdb013[0].span.unwrap().slice(&src).unwrap(),
        "alarm_level() >= 2"
    );
    assert!(!report.diagnostics.iter().any(|d| d.code.code() == "TDB014"));
}

/// `batch_cascade`: a writer whose impure value feeds its own condition
/// self-cycles (TDB014) and is reported impure (TDB015).
#[test]
fn batch_opaque_reports_tdb015_cascade_required() {
    let report = check_snapshot("batch_cascade");
    let bs = report.batch_safety.as_ref().unwrap();
    assert_eq!(bs.certificate, BatchCertificate::CascadeRequired);
    assert_eq!(bs.cycles, vec![vec!["escalate".to_string()]]);
    assert_eq!(bs.impure, vec!["escalate".to_string()]);
    for code in ["TDB014", "TDB015"] {
        assert!(report.diagnostics.iter().any(|d| d.code.code() == code));
    }
}

/// The `--batch-safety --sarif` view over the three batch examples must
/// match the checked-in SARIF golden byte for byte (CI uploads the same
/// log as an artifact, so its shape is part of the tool's contract).
#[test]
fn batch_safety_sarif_matches_golden() {
    let names = ["batch_notify_only", "batch_stratified", "batch_cascade"];
    let loaded: Vec<(String, String, Report)> = names
        .iter()
        .map(|n| {
            let (src, report) = report_for(n);
            (
                format!("examples/lint/{n}.rules"),
                src,
                report.batch_safety_only(),
            )
        })
        .collect();
    let entries: Vec<SarifEntry<'_>> = loaded
        .iter()
        .map(|(uri, src, report)| SarifEntry {
            uri,
            report,
            src: Some(src),
        })
        .collect();
    let rendered = format!("{}\n", render_sarif(&entries));
    let golden_path = format!("{DIR}/batch_safety.sarif.expected");
    if std::env::var_os("TDB_UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&golden_path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("missing SARIF golden {golden_path} ({e}); run with TDB_UPDATE_SNAPSHOTS=1")
    });
    assert_eq!(
        rendered, expected,
        "SARIF output diverged from golden; rerun with TDB_UPDATE_SNAPSHOTS=1 if intentional"
    );
}

#[test]
fn json_rendering_is_stable_for_quickstart() {
    let (src, report) = report_for("quickstart");
    let json = report.render_json(Some(&src));
    assert!(json.contains("\"verdict\":\"unbounded\""));
    assert!(json.contains("\"verdict\":\"bounded-by-window\",\"delta\":30"));
    assert!(json.contains("\"code\":\"TDB001\""));
    assert!(json.contains("\"snippet\":\"once @login(u)\""));
}
