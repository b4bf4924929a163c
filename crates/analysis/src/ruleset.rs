//! Whole-rule-set analysis: per-rule lints + the triggering-graph pass,
//! combined into one [`Report`].

use std::collections::{BTreeSet, HashMap};

use tdb_ptl::{Formula, Span, SpanNode};

use crate::batchsafety::{certify_batch_safety, BatchRule};
use crate::boundedness::certify;
use crate::diagnostics::{Diagnostic, LintCode, Report, RuleVerdict};
use crate::readset::{ReadSet, Resource};
use crate::triggering::analyze_triggering;

/// Everything the verifier needs to know about one rule. `tdb-core` builds
/// these from registered [`Rule`]s; the `tdb-lint` CLI builds them from
/// rule files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleInput {
    /// The rule's facts for the rule graphs; its reads are at least
    /// [`ReadSet::of`] the condition, resolved against the catalog when
    /// there is one.
    pub facts: BatchRule,
    /// The rule's firing condition.
    pub condition: Formula,
    /// Span tree mirroring `condition`, when it was parsed from source.
    pub spans: Option<SpanNode>,
}

impl Default for RuleInput {
    fn default() -> Self {
        RuleInput {
            facts: BatchRule::default(),
            condition: Formula::True,
            spans: None,
        }
    }
}

/// Lints a single rule: boundedness certification (TDB001) plus the
/// per-rule structural lints (TDB002, TDB003). Returns the verdict and any
/// findings.
pub fn lint_rule(rule: &RuleInput) -> (RuleVerdict, Vec<Diagnostic>) {
    let mut diags = Vec::new();

    let cert = certify(&rule.condition, rule.spans.as_ref());
    for off in &cert.offenders {
        let mut d = Diagnostic::new(
            LintCode::UnboundedState,
            &rule.facts.name,
            format!("retained state grows without bound: {}", off.reason),
        );
        d.span = off.span;
        d.subformula = Some(off.subformula.clone());
        d.note = Some(
            "guard the operator body with a clock-variable window, e.g. \
             `[t := time] previously(... and time >= t - DELTA)`"
                .into(),
        );
        diags.push(d);
    }

    if matches!(rule.condition, Formula::True | Formula::False) {
        let which = if rule.condition == Formula::True {
            "fires on every state transition"
        } else {
            "can never fire"
        };
        diags.push(Diagnostic::new(
            LintCode::TrivialCondition,
            &rule.facts.name,
            format!("condition is literally `{}` — {which}", rule.condition),
        ));
    }

    let reads = ReadSet::of(&rule.condition);
    let inputs = reads.iter().any(|r| *r != Resource::Order);
    if !inputs && !matches!(rule.condition, Formula::True | Formula::False) {
        let mut d = Diagnostic::new(
            LintCode::AlwaysRelevant,
            &rule.facts.name,
            "condition references no events, queries, or clock; \
             relevance filtering can never skip this rule",
        );
        d.subformula = Some(rule.condition.to_string());
        diags.push(d);
    }

    (
        RuleVerdict {
            rule: rule.facts.name.clone(),
            boundedness: cert.verdict,
        },
        diags,
    )
}

/// Runs every pass over the whole rule set and assembles the [`Report`]:
/// per-rule verdicts, per-rule lints, then the triggering-graph findings.
pub fn analyze_rule_set(rules: &[RuleInput]) -> Report {
    let mut report = Report::default();
    for rule in rules {
        let (verdict, diags) = lint_rule(rule);
        report.verdicts.push(verdict);
        report.diagnostics.extend(diags);
    }

    // The same facts feed both graphs: the triggering graph here, the
    // write-cascade graph below.
    let batch_rules: Vec<BatchRule> = rules.iter().map(|r| r.facts.clone()).collect();
    let graph = analyze_triggering(&batch_rules);

    for cycle in &graph.cycles {
        let mut d = Diagnostic::new(
            LintCode::TriggerCycle,
            cycle.join(", "),
            format!(
                "rules {} form a triggering cycle; a cascade may never terminate",
                cycle
                    .iter()
                    .map(|r| format!("`{r}`"))
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ),
        );
        d.note = Some(
            "break the cycle by narrowing a condition's read set or an action's write set".into(),
        );
        report.diagnostics.push(d);
    }
    for st in &graph.self_triggers {
        report.diagnostics.push(Diagnostic::new(
            LintCode::SelfTrigger,
            &st.from,
            format!(
                "action writes {} which the rule's own condition reads",
                join_resources(&st.via)
            ),
        ));
    }
    for pair in &graph.confluence_hazards {
        report.diagnostics.push(Diagnostic::new(
            LintCode::ConfluenceHazard,
            format!("{}, {}", pair.a, pair.b),
            format!(
                "unordered rules `{}` and `{}` do not commute (conflict on {}); \
                 the final state depends on dispatch order",
                pair.a,
                pair.b,
                join_resources(&pair.via)
            ),
        ));
    }

    // Batch-safety certification (TDB013–TDB015): can a whole batch be
    // evaluated as one fused slice without changing any firing?
    let safety = certify_batch_safety(&batch_rules);

    // First definition of a name, as a scan from the front would find it.
    let mut by_name: HashMap<&str, &RuleInput> = HashMap::new();
    for r in rules {
        by_name.entry(r.facts.name.as_str()).or_insert(r);
    }
    for edge in &safety.edges {
        let mut d = Diagnostic::new(
            LintCode::BatchWriteHazard,
            &edge.reader,
            format!(
                "firing `{}` writes {} which this condition observes; \
                 fused batch evaluation would follow a delayed (Section 8) schedule",
                edge.writer,
                join_resources(&edge.via)
            ),
        );
        if let Some(reader) = by_name.get(edge.reader.as_str()) {
            if let Some(spans) = reader.spans.as_ref() {
                d.span = edge
                    .via
                    .iter()
                    .find_map(|res| find_read_span(&reader.condition, spans, res));
            }
            if d.span.is_none() {
                d.subformula = Some(reader.condition.to_string());
            }
        }
        d.note = Some(
            "batched execution fences before ops that can fire the writer, \
             draining the cascade to preserve the per-op schedule"
                .into(),
        );
        report.diagnostics.push(d);
    }
    for cycle in &safety.cycles {
        let mut d = Diagnostic::new(
            LintCode::CascadeCycle,
            cycle.join(", "),
            format!(
                "write-cascade cycle through {}; exact batched evaluation \
                 must re-enter dispatch after every state-producing op",
                cycle
                    .iter()
                    .map(|r| format!("`{r}`"))
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ),
        );
        d.note = Some(
            "batched execution drains the cascade after every state-producing op; \
             break the cycle to regain slice fusion"
                .into(),
        );
        report.diagnostics.push(d);
    }
    for name in &safety.impure {
        let mut d = Diagnostic::new(
            LintCode::ImpureAction,
            name,
            "action value terms read database state at materialization time; \
             a fused (delayed) schedule could write different values",
        );
        d.note = Some("batched execution fences before materializing this action".into());
        report.diagnostics.push(d);
    }
    report.batch_safety = Some(safety);

    report
}

/// Locates the subformula through which `f` reads `res`, walking the span
/// tree in parallel: the first atom or assignment term whose [`ReadSet`]
/// holds it, or the first `lasttime` for [`Resource::Order`].
fn find_read_span(f: &Formula, sn: &SpanNode, res: &Resource) -> Option<Span> {
    let here = match f {
        Formula::Cmp(..) | Formula::Member { .. } | Formula::Event { .. } => {
            ReadSet::of(f).contains(res)
        }
        Formula::Lasttime(_) => *res == Resource::Order,
        Formula::Assign { term, .. } => ReadSet::of_term(term).contains(res),
        _ => false,
    };
    if here {
        return Some(sn.span);
    }
    let kids: Vec<&Formula> = match f {
        Formula::Not(g)
        | Formula::Lasttime(g)
        | Formula::Previously(g)
        | Formula::ThroughoutPast(g) => vec![g],
        Formula::And(gs) | Formula::Or(gs) => gs.iter().collect(),
        Formula::Since(g, h) => vec![g, h],
        Formula::Assign { body, .. } => vec![body],
        _ => Vec::new(),
    };
    kids.iter()
        .enumerate()
        .find_map(|(i, k)| sn.child(i).and_then(|c| find_read_span(k, c, res)))
}

fn join_resources(set: &BTreeSet<Resource>) -> String {
    set.iter()
        .map(|r| format!("`{r}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::boundedness::Boundedness;
    use crate::diagnostics::Severity;
    use tdb_ptl::{parse_formula, parse_formula_spanned};

    fn input(name: &str, src: &str, writes: &[Resource]) -> RuleInput {
        let (condition, spans) = parse_formula_spanned(src).unwrap();
        RuleInput {
            facts: BatchRule {
                name: name.into(),
                reads: ReadSet::of(&condition),
                writes: writes.iter().cloned().collect(),
                ..BatchRule::default()
            },
            condition,
            spans: Some(spans),
        }
    }

    fn query(name: &str) -> Resource {
        Resource::Query(name.into())
    }

    #[test]
    fn unbounded_once_yields_tdb001_with_span() {
        let src = "@pulse and once @login(u)";
        let rule = input("audit", src, &[]);
        let (verdict, diags) = lint_rule(&rule);
        assert_eq!(verdict.boundedness, Boundedness::Unbounded);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::UnboundedState);
        assert_eq!(diags[0].span.unwrap().slice(src).unwrap(), "once @login(u)");
    }

    #[test]
    fn guarded_variant_is_clean() {
        let rule = input(
            "audit",
            "[t := time] @pulse and once(@login(u) and time >= t - 30)",
            &[],
        );
        let (verdict, diags) = lint_rule(&rule);
        assert_eq!(
            verdict.boundedness,
            Boundedness::BoundedByWindow { delta: 30 }
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn trivial_and_always_relevant_lints() {
        let rule = RuleInput::default();
        let (_, diags) = lint_rule(&rule);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::TrivialCondition);

        let rule = RuleInput {
            condition: parse_formula("x > 3").unwrap(),
            ..RuleInput::default()
        };
        let (_, diags) = lint_rule(&rule);
        assert!(diags.iter().any(|d| d.code == LintCode::AlwaysRelevant));
    }

    #[test]
    fn rule_set_reports_cycle_and_confluence() {
        let rules = vec![
            input("ping", "pong_count() > 0", &[query("ping_count")]),
            input("pong", "ping_count() > 0", &[query("pong_count")]),
        ];
        let report = analyze_rule_set(&rules);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::TriggerCycle));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::ConfluenceHazard));
    }

    #[test]
    fn acyclic_chain_reports_no_cycle_but_notes_noncommuting_pair() {
        let rules = vec![
            input(
                "watch",
                "price(\"IBM\") > 100",
                &[Resource::Event("alert".into())],
            ),
            input("log", "@alert", &[]),
        ];
        let report = analyze_rule_set(&rules);
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| matches!(d.code, LintCode::TriggerCycle | LintCode::SelfTrigger)));
        // `watch` writes what `log` reads: a genuine (info-level)
        // non-commuting pair, even though the graph is acyclic.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::ConfluenceHazard && d.severity == Severity::Allow));
    }

    #[test]
    fn disjoint_rules_are_fully_silent_on_graph_lints() {
        let rules = vec![
            input("watch", "price(\"IBM\") > 100", &[]),
            input("log", "@alert", &[]),
        ];
        let report = analyze_rule_set(&rules);
        assert!(!report.diagnostics.iter().any(|d| matches!(
            d.code,
            LintCode::TriggerCycle | LintCode::SelfTrigger | LintCode::ConfluenceHazard
        )));
    }

    #[test]
    fn condition_reads_cover_queries_events_and_clock() {
        let f = parse_formula("[t := time] price(\"IBM\") > 10 and @tick").unwrap();
        let reads = ReadSet::of(&f);
        assert!(reads.contains(&query("price")));
        assert!(reads.contains(&Resource::Event("tick".into())));
        assert!(reads.contains(&Resource::Clock));
        let printed: Vec<String> = reads.iter().map(ToString::to_string).collect();
        assert_eq!(
            printed,
            ["event:tick", "item:time", "order:states", "query:price"]
        );
    }

    #[test]
    fn uses_time_detection() {
        let uses = |src: &str| ReadSet::of(&parse_formula(src).unwrap()).contains(&Resource::Clock);
        assert!(uses("time > 5"));
        assert!(uses("[t := time] previously(a() > 0)"));
        assert!(uses("x in names(time) and x > 0"));
        assert!(!uses("a() > 0"));
    }
}
