//! # tdb-analysis
//!
//! Whole-rule-set static verifier for PTL-conditioned active rules
//! (Sistla & Wolfson, SIGMOD 1995 — Section 5 discusses when the
//! incremental evaluator's retained state stays bounded).
//!
//! Four passes:
//!
//! 1. [`certify`] — per-condition **boundedness certification**:
//!    `Bounded(k)` / `BoundedByWindow(Δ)` / `Unbounded`, with diagnostics
//!    pointing at the exact offending subformula;
//! 2. [`TriggerGraph`] — **triggering-graph** analysis: read/write sets,
//!    cycles (potential non-termination), self-triggers, and non-commuting
//!    unordered pairs (confluence hazards);
//! 3. [`CascadeGraph`] — **batch-safety certification**: is fused slice
//!    evaluation byte-identical to the per-op schedule (`Exact`), or does
//!    it need fence-drained sub-slices (`Stratified(k)`) or mid-batch
//!    re-entry (`CascadeRequired`)? The graph keeps the certificate
//!    current as rules are added, one rule's worth of work at a time;
//!    [`certify_batch_safety`] is the from-scratch form of the same thing;
//! 4. [`Report`] — **structured diagnostics** with stable lint codes
//!    (`TDB001`…), severities, and source spans, rendered as text, JSON,
//!    or SARIF 2.1.0.
//!
//! Every pass reads a rule's reads and writes in one typed vocabulary,
//! [`ReadSet`] and [`Resource`], which `tdb-core`'s dispatch, relevance
//! filtering and batch fences read too.
//!
//! The same passes back the `tdb-lint` CLI binary and the rule manager's
//! registration-time lint (`ManagerConfig { lint }` in `tdb-core`).

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod batchsafety;
pub mod boundedness;
pub mod diagnostics;
mod graph;
pub mod readset;
pub mod rulefile;
pub mod ruleset;
pub mod triggering;

pub use batchsafety::{
    certify_batch_safety, BatchCertificate, BatchRule, BatchSafety, CascadeEdge, CascadeGraph,
};
pub use boundedness::{certify, BoundCertificate, Boundedness, Offender};
pub use diagnostics::{
    render_sarif, Diagnostic, LintCode, LintLevel, Report, RuleVerdict, SarifEntry, Severity,
};
pub use readset::{ReadSet, Resource};
pub use rulefile::{
    parse_rule_file, parse_rule_file_full, ParsedAction, ParsedRule, ParsedRuleFile, RuleFile,
};
pub use ruleset::{analyze_rule_set, lint_rule, RuleInput};
pub use triggering::{analyze_triggering, TriggerGraph};
