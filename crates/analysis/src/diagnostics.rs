//! Structured lint diagnostics: codes, severities, spans, rendering.
//!
//! Every finding the verifier produces is a [`Diagnostic`] carrying a lint
//! code (`TDB001`…), a severity, the rule it concerns, and — when the rule
//! was parsed from source — a byte span pointing at the offending
//! subformula. Reports render as human-readable text or as JSON (hand
//! rolled; the build environment is offline, so no serde).

use std::fmt;

use tdb_ptl::Span;

use crate::batchsafety::{BatchCertificate, BatchSafety};
use crate::boundedness::Boundedness;

/// Severity of a finding. `Deny` findings reject rule registration when the
/// manager runs with `LintLevel::Deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never blocks anything.
    Allow,
    /// Suspicious; reported but registration proceeds.
    Warn,
    /// Rejected under `LintLevel::Deny`.
    Deny,
}

impl Severity {
    /// The level name used in JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// The prefix used in human-readable output.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Allow => "info",
            Severity::Warn => "warning",
            Severity::Deny => "error",
        }
    }
}

/// How strictly the rule manager applies lint findings at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// Do not lint at registration.
    Allow,
    /// Lint and record findings, but never reject.
    #[default]
    Warn,
    /// Reject registration on any `Severity::Deny` finding.
    Deny,
}

/// The lint catalogue. Codes are stable; new lints append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// TDB001: a temporal operator accumulates one clause per state and no
    /// monotone time-clause guard (Section 5) ever prunes them.
    UnboundedState,
    /// TDB002: the condition is literally `true` or `false`.
    TrivialCondition,
    /// TDB003: the condition references no events, no data and no clock, so
    /// relevance filtering can never skip the rule.
    AlwaysRelevant,
    /// TDB010: a cycle in the triggering graph — the rules may cascade
    /// forever (potential non-termination).
    TriggerCycle,
    /// TDB011: a rule's action writes data its own condition reads.
    SelfTrigger,
    /// TDB012: an unordered rule pair does not commute (shared read/write
    /// sets) — the outcome depends on execution order.
    ConfluenceHazard,
    /// TDB013: a data-writing action can influence a condition evaluated
    /// inside the same batch — fused slice dispatch would follow a delayed
    /// (Section 8) schedule on this edge.
    BatchWriteHazard,
    /// TDB014: the write-cascade graph is cyclic; batched evaluation must
    /// re-enter dispatch after every state-producing op to stay exact.
    CascadeCycle,
    /// TDB015: a data-writing action whose value terms read database state
    /// at materialization time — its written values are unstable under
    /// fusion.
    ImpureAction,
}

impl LintCode {
    pub fn code(&self) -> &'static str {
        match self {
            LintCode::UnboundedState => "TDB001",
            LintCode::TrivialCondition => "TDB002",
            LintCode::AlwaysRelevant => "TDB003",
            LintCode::TriggerCycle => "TDB010",
            LintCode::SelfTrigger => "TDB011",
            LintCode::ConfluenceHazard => "TDB012",
            LintCode::BatchWriteHazard => "TDB013",
            LintCode::CascadeCycle => "TDB014",
            LintCode::ImpureAction => "TDB015",
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            LintCode::UnboundedState => "unbounded-state",
            LintCode::TrivialCondition => "trivial-condition",
            LintCode::AlwaysRelevant => "always-relevant",
            LintCode::TriggerCycle => "trigger-cycle",
            LintCode::SelfTrigger => "self-trigger",
            LintCode::ConfluenceHazard => "confluence-hazard",
            LintCode::BatchWriteHazard => "batch-write-hazard",
            LintCode::CascadeCycle => "cascade-cycle",
            LintCode::ImpureAction => "impure-action",
        }
    }

    pub fn default_severity(&self) -> Severity {
        match self {
            LintCode::UnboundedState => Severity::Deny,
            LintCode::TrivialCondition => Severity::Warn,
            LintCode::AlwaysRelevant => Severity::Allow,
            LintCode::TriggerCycle => Severity::Warn,
            LintCode::SelfTrigger => Severity::Warn,
            LintCode::ConfluenceHazard => Severity::Allow,
            LintCode::BatchWriteHazard => Severity::Allow,
            LintCode::CascadeCycle => Severity::Warn,
            LintCode::ImpureAction => Severity::Warn,
        }
    }

    /// Every code in the catalogue, in code order (drives the SARIF
    /// `tool.driver.rules` table).
    pub fn all() -> &'static [LintCode] {
        &[
            LintCode::UnboundedState,
            LintCode::TrivialCondition,
            LintCode::AlwaysRelevant,
            LintCode::TriggerCycle,
            LintCode::SelfTrigger,
            LintCode::ConfluenceHazard,
            LintCode::BatchWriteHazard,
            LintCode::CascadeCycle,
            LintCode::ImpureAction,
        ]
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: LintCode,
    pub severity: Severity,
    /// The rule the finding concerns.
    pub rule: String,
    pub message: String,
    /// Byte span into the rule's source, when it was parsed from text.
    pub span: Option<Span>,
    /// Pretty-printed offending subformula (always present for formula
    /// lints, so programmatically-built rules still get a pointer).
    pub subformula: Option<String>,
    /// An optional fix-it hint.
    pub note: Option<String>,
}

impl Diagnostic {
    pub fn new(code: LintCode, rule: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            rule: rule.into(),
            message: message.into(),
            span: None,
            subformula: None,
            note: None,
        }
    }
}

/// One rule's boundedness verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleVerdict {
    pub rule: String,
    pub boundedness: Boundedness,
}

/// The result of analysing a rule set: per-rule verdicts plus findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub verdicts: Vec<RuleVerdict>,
    pub diagnostics: Vec<Diagnostic>,
    /// Batch-safety certificate for the whole rule set (set by
    /// `analyze_rule_set`; absent for single-rule lints).
    pub batch_safety: Option<BatchSafety>,
}

impl Report {
    /// Whether any finding has `Deny` severity.
    pub fn has_denials(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// Restricts the report to the batch-safety view: the certificate plus
    /// TDB013–TDB015 findings, dropping per-rule verdicts and other lints.
    pub fn batch_safety_only(&self) -> Report {
        Report {
            verdicts: Vec::new(),
            diagnostics: self
                .diagnostics
                .iter()
                .filter(|d| {
                    matches!(
                        d.code,
                        LintCode::BatchWriteHazard
                            | LintCode::CascadeCycle
                            | LintCode::ImpureAction
                    )
                })
                .cloned()
                .collect(),
            batch_safety: self.batch_safety.clone(),
        }
    }

    /// Renders the report as human-readable text. When `src` (the rule
    /// file's source) is given, spans resolve to `line:col` plus the source
    /// snippet they cover.
    pub fn render_text(&self, src: Option<&str>) -> String {
        let mut out = String::new();
        for v in &self.verdicts {
            out.push_str(&format!("rule `{}`: {}\n", v.rule, v.boundedness));
        }
        if let Some(bs) = &self.batch_safety {
            out.push_str(&format!("batch-safety: {}\n", bs.certificate));
        }
        let header = !self.verdicts.is_empty() || self.batch_safety.is_some();
        if header && !self.diagnostics.is_empty() {
            out.push('\n');
        }
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}[{}] rule `{}`: {}: {}\n",
                d.severity.label(),
                d.code.code(),
                d.rule,
                d.code.name(),
                d.message
            ));
            match (d.span, src) {
                (Some(span), Some(src)) => {
                    let (line, col) = span.line_col(src);
                    let snippet = span.slice(src).unwrap_or("<span out of range>");
                    out.push_str(&format!("  --> {line}:{col}: {snippet}\n"));
                }
                _ => {
                    if let Some(sub) = &d.subformula {
                        out.push_str(&format!("  --> in subformula: {sub}\n"));
                    }
                }
            }
            if let Some(note) = &d.note {
                out.push_str(&format!("  = note: {note}\n"));
            }
        }
        let denies = count(self, Severity::Deny);
        let warns = count(self, Severity::Warn);
        let infos = count(self, Severity::Allow);
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            denies, warns, infos
        ));
        out
    }

    /// Renders the report as a JSON object.
    pub fn render_json(&self, src: Option<&str>) -> String {
        let mut out = String::from("{\"verdicts\":[");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},{}}}",
                json_str(&v.rule),
                v.boundedness.json_fields()
            ));
        }
        out.push_str("],\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"name\":{},\"severity\":{},\"rule\":{},\"message\":{}",
                json_str(d.code.code()),
                json_str(d.code.name()),
                json_str(d.severity.as_str()),
                json_str(&d.rule),
                json_str(&d.message)
            ));
            if let Some(span) = d.span {
                out.push_str(&format!(
                    ",\"span\":{{\"start\":{},\"end\":{}}}",
                    span.start, span.end
                ));
                if let Some(src) = src {
                    let (line, col) = span.line_col(src);
                    out.push_str(&format!(",\"line\":{line},\"col\":{col}"));
                    if let Some(snippet) = span.slice(src) {
                        out.push_str(&format!(",\"snippet\":{}", json_str(snippet)));
                    }
                }
            }
            if let Some(sub) = &d.subformula {
                out.push_str(&format!(",\"subformula\":{}", json_str(sub)));
            }
            if let Some(note) = &d.note {
                out.push_str(&format!(",\"note\":{}", json_str(note)));
            }
            out.push('}');
        }
        out.push(']');
        if let Some(bs) = &self.batch_safety {
            out.push_str(&format!(
                ",\"batch_safety\":{{\"certificate\":{}",
                json_str(bs.certificate.as_str())
            ));
            if let BatchCertificate::Stratified { strata } = bs.certificate {
                out.push_str(&format!(",\"strata\":{strata}"));
            }
            out.push_str(",\"edges\":[");
            for (i, e) in bs.edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"writer\":{},\"reader\":{},\"via\":[{}]}}",
                    json_str(&e.writer),
                    json_str(&e.reader),
                    e.via
                        .iter()
                        .map(|v| json_str(&v.to_string()))
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }

    /// Renders the report as a SARIF 2.1.0 log with a single run, for CI
    /// code-scanning annotations. `uri` names the analysed rule file;
    /// `src` (when given) resolves spans to line/column regions.
    pub fn render_sarif(&self, uri: &str, src: Option<&str>) -> String {
        render_sarif(&[SarifEntry {
            uri,
            report: self,
            src,
        }])
    }
}

/// One analysed file for the SARIF renderer.
#[derive(Debug, Clone, Copy)]
pub struct SarifEntry<'a> {
    pub uri: &'a str,
    pub report: &'a Report,
    pub src: Option<&'a str>,
}

/// Renders one SARIF 2.1.0 log covering every entry (one run, one result
/// per diagnostic). Hand rolled like the JSON renderer — the build
/// environment is offline, so no serde.
pub fn render_sarif(entries: &[SarifEntry<'_>]) -> String {
    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"tdb-lint\",\"rules\":[",
    );
    for (i, code) in LintCode::all().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"name\":{},\"defaultConfiguration\":{{\"level\":{}}}}}",
            json_str(code.code()),
            json_str(code.name()),
            json_str(sarif_level(code.default_severity()))
        ));
    }
    out.push_str("]}},\"results\":[");
    let mut first = true;
    for entry in entries {
        for d in &entry.report.diagnostics {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"ruleId\":{},\"level\":{},\"message\":{{\"text\":{}}}",
                json_str(d.code.code()),
                json_str(sarif_level(d.severity)),
                json_str(&format!("rule `{}`: {}", d.rule, d.message))
            ));
            out.push_str(&format!(
                ",\"locations\":[{{\"physicalLocation\":{{\
                 \"artifactLocation\":{{\"uri\":{}}}",
                json_str(entry.uri)
            ));
            if let (Some(span), Some(src)) = (d.span, entry.src) {
                let (line, col) = span.line_col(src);
                out.push_str(&format!(
                    ",\"region\":{{\"startLine\":{line},\"startColumn\":{col}}}"
                ));
            }
            out.push_str("}}]}");
        }
    }
    out.push_str("]}]}");
    out
}

fn sarif_level(sev: Severity) -> &'static str {
    match sev {
        Severity::Allow => "note",
        Severity::Warn => "warning",
        Severity::Deny => "error",
    }
}

fn count(r: &Report, sev: Severity) -> usize {
    r.diagnostics.iter().filter(|d| d.severity == sev).count()
}

/// JSON string literal with the escapes the grammar requires.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for Diagnostic {
    /// One-line form; `Report::render_text` adds spans and notes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] rule `{}`: {}: {}",
            self.severity.label(),
            self.code.code(),
            self.rule,
            self.code.name(),
            self.message
        )
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_and_names() {
        assert!(Severity::Deny > Severity::Warn);
        assert!(Severity::Warn > Severity::Allow);
        assert_eq!(Severity::Deny.label(), "error");
        assert_eq!(LintCode::UnboundedState.code(), "TDB001");
        assert_eq!(LintCode::UnboundedState.name(), "unbounded-state");
        assert_eq!(LintCode::UnboundedState.default_severity(), Severity::Deny);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
