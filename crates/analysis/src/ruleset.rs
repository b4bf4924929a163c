//! Whole-rule-set analysis: per-rule lints + the triggering-graph pass,
//! combined into one [`Report`].

use std::collections::{BTreeSet, HashMap};

use tdb_ptl::{Formula, Span, SpanNode, Term};

use crate::batchsafety::{certify_batch_safety, BatchRule, STATE_ORDER};
use crate::boundedness::certify;
use crate::diagnostics::{Diagnostic, LintCode, Report, RuleVerdict};
use crate::triggering::{analyze_triggering, RuleSpec};

/// Everything the verifier needs to know about one rule. `tdb-core` builds
/// these from registered [`Rule`]s; the `tdb-lint` CLI builds them from
/// rule files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleInput {
    pub name: String,
    /// The rule's firing condition (post aggregate-rewrite if applicable).
    pub condition: Formula,
    /// Span tree mirroring `condition`, when it was parsed from source.
    pub spans: Option<SpanNode>,
    /// Resources the condition reads beyond what it mentions syntactically
    /// (e.g. the relations behind named queries). Syntactic reads —
    /// events, queries, the clock — are derived from `condition` here.
    pub extra_reads: BTreeSet<String>,
    /// Resources the action writes (`item:X`, `relation:R`, `event:E`).
    pub writes: BTreeSet<String>,
    /// The action's value terms read database state (queries, aggregates,
    /// the clock), so a delayed schedule can materialize different values.
    pub impure_action_values: bool,
    /// The rule fires at *every* satisfying state, not just on rising
    /// edges — which makes it order-sensitive for batch-safety purposes
    /// (an inserted write state is one more state it can fire at).
    pub level_triggered: bool,
}

impl Default for RuleInput {
    fn default() -> Self {
        RuleInput {
            name: String::new(),
            condition: Formula::True,
            spans: None,
            extra_reads: BTreeSet::new(),
            writes: BTreeSet::new(),
            impure_action_values: false,
            level_triggered: false,
        }
    }
}

/// Read set derived from the condition: queries, events, and the clock.
pub fn condition_reads(f: &Formula) -> BTreeSet<String> {
    let mut reads: BTreeSet<String> = f
        .query_names()
        .into_iter()
        .map(|q| format!("query:{q}"))
        .collect();
    reads.extend(f.event_names().into_iter().map(|e| format!("event:{e}")));
    if uses_time(f) {
        reads.insert("item:time".into());
    }
    reads
}

/// Whether the condition reads the clock through the `time` term — in a
/// comparison, a pattern, a generator or assignment term, or an aggregate.
pub fn uses_time(f: &Formula) -> bool {
    fn term(t: &Term) -> bool {
        match t {
            Term::Time => true,
            Term::Arith(_, a, b) => term(a) || term(b),
            Term::Neg(a) | Term::Abs(a) => term(a),
            Term::Query { args, .. } => args.iter().any(term),
            Term::Agg(agg) => term(&agg.query) || uses_time(&agg.start) || uses_time(&agg.sample),
            Term::Const(_) | Term::Var(_) => false,
        }
    }
    match f {
        Formula::True | Formula::False => false,
        Formula::Cmp(_, a, b) => term(a) || term(b),
        Formula::Member { source, pattern } => source.args.iter().chain(pattern).any(term),
        Formula::Event { pattern, .. } => pattern.iter().any(term),
        Formula::Not(g)
        | Formula::Lasttime(g)
        | Formula::Previously(g)
        | Formula::ThroughoutPast(g) => uses_time(g),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().any(uses_time),
        Formula::Since(g, h) => uses_time(g) || uses_time(h),
        Formula::Assign { term: t, body, .. } => term(t) || uses_time(body),
    }
}

/// Whether a condition's value depends on *where* a fired action's write
/// state lands in the history, rather than just on current data values:
/// event atoms are false at inserted write states, `lasttime` looks at the
/// immediate predecessor state, aggregate terms sample inserted states
/// too, and clock reads see the write state's timestamp — which
/// under a delayed schedule is the batch-end clock, not the firing state's
/// clock. Such conditions can change value when a fired action inserts a
/// state, even if they never read what it writes.
pub fn order_sensitive(f: &Formula) -> bool {
    fn term(t: &Term) -> bool {
        match t {
            Term::Agg(_) | Term::Time => true,
            Term::Arith(_, a, b) => term(a) || term(b),
            Term::Neg(a) | Term::Abs(a) => term(a),
            Term::Query { args, .. } => args.iter().any(term),
            Term::Const(_) | Term::Var(_) => false,
        }
    }
    match f {
        Formula::Event { .. } | Formula::Lasttime(_) => true,
        Formula::True | Formula::False => false,
        Formula::Cmp(_, a, b) => term(a) || term(b),
        Formula::Member { source, pattern } => {
            source.args.iter().any(term) || pattern.iter().any(term)
        }
        Formula::Not(g) | Formula::Previously(g) | Formula::ThroughoutPast(g) => order_sensitive(g),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().any(order_sensitive),
        Formula::Since(g, h) => order_sensitive(g) || order_sensitive(h),
        Formula::Assign { term: t, body, .. } => term(t) || order_sensitive(body),
    }
}

/// Whether evaluating this term reads database state (a query, an
/// aggregate, or the clock) — as opposed to constants and per-state
/// bound variables, which materialize identically under any schedule.
pub fn term_reads_state(t: &Term) -> bool {
    match t {
        Term::Query { .. } | Term::Agg(_) | Term::Time => true,
        Term::Arith(_, a, b) => term_reads_state(a) || term_reads_state(b),
        Term::Neg(a) | Term::Abs(a) => term_reads_state(a),
        Term::Const(_) | Term::Var(_) => false,
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
            &rule.name,
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
            &rule.name,
            format!("condition is literally `{}` — {which}", rule.condition),
        ));
    }

    let reads = condition_reads(&rule.condition);
    if reads.is_empty() && !matches!(rule.condition, Formula::True | Formula::False) {
        let mut d = Diagnostic::new(
            LintCode::AlwaysRelevant,
            &rule.name,
            "condition references no events, queries, or clock; \
             relevance filtering can never skip this rule",
        );
        d.subformula = Some(rule.condition.to_string());
        diags.push(d);
    }

    (
        RuleVerdict {
            rule: rule.name.clone(),
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

    // Each rule's read and write sets, computed once for both graphs: the
    // triggering graph here, the write-cascade graph below.
    let batch_rules: Vec<BatchRule> = rules
        .iter()
        .map(|r| {
            let mut reads = condition_reads(&r.condition);
            reads.extend(r.extra_reads.iter().cloned());
            BatchRule {
                name: r.name.clone(),
                reads,
                writes: r.writes.clone(),
                order_sensitive: order_sensitive(&r.condition) || r.level_triggered,
                impure_action_values: r.impure_action_values,
            }
        })
        .collect();
    let specs: Vec<RuleSpec> = batch_rules
        .iter()
        .map(|r| RuleSpec {
            name: r.name.clone(),
            reads: r.reads.clone(),
            writes: r.writes.clone(),
        })
        .collect();
    let graph = analyze_triggering(&specs);

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
        by_name.entry(r.name.as_str()).or_insert(r);
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
/// tree in parallel. [`STATE_ORDER`] resolves to the first order-sensitive
/// construct (event atom, `lasttime`, aggregate term).
fn find_read_span(f: &Formula, sn: &SpanNode, res: &str) -> Option<Span> {
    fn term_reads(t: &Term, res: &str) -> bool {
        match t {
            Term::Query { name, args } => {
                res.strip_prefix("query:") == Some(name.as_str())
                    || args.iter().any(|a| term_reads(a, res))
            }
            Term::Agg(agg) => res == STATE_ORDER || term_reads(&agg.query, res),
            Term::Time => res == "item:time" || res == STATE_ORDER,
            Term::Arith(_, a, b) => term_reads(a, res) || term_reads(b, res),
            Term::Neg(a) | Term::Abs(a) => term_reads(a, res),
            Term::Const(_) | Term::Var(_) => false,
        }
    }
    let here = match f {
        Formula::Cmp(_, a, b) => term_reads(a, res) || term_reads(b, res),
        Formula::Member { source, pattern } => {
            res.strip_prefix("query:") == Some(source.name.as_str())
                || source.args.iter().any(|t| term_reads(t, res))
                || pattern.iter().any(|t| term_reads(t, res))
        }
        Formula::Event { name, pattern } => {
            res.strip_prefix("event:") == Some(name.as_str())
                || res == STATE_ORDER
                || pattern.iter().any(|t| term_reads(t, res))
        }
        Formula::Lasttime(_) => res == STATE_ORDER,
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
        Formula::Assign { term, body, .. } => {
            if term_reads(term, res) {
                return Some(sn.span);
            }
            vec![body]
        }
        _ => Vec::new(),
    };
    kids.iter()
        .enumerate()
        .find_map(|(i, k)| sn.child(i).and_then(|c| find_read_span(k, c, res)))
}

fn join_resources(set: &BTreeSet<String>) -> String {
    set.iter()
        .map(|r| format!("`{r}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundedness::Boundedness;
    use crate::diagnostics::Severity;
    use tdb_ptl::{parse_formula, parse_formula_spanned};

    fn input(name: &str, src: &str, writes: &[&str]) -> RuleInput {
        let (condition, spans) = parse_formula_spanned(src).unwrap();
        RuleInput {
            name: name.into(),
            condition,
            spans: Some(spans),
            writes: writes.iter().map(|s| s.to_string()).collect(),
            ..RuleInput::default()
        }
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
        let rule = RuleInput {
            name: "noop".into(),
            condition: Formula::True,
            ..RuleInput::default()
        };
        let (_, diags) = lint_rule(&rule);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::TrivialCondition);

        let rule = RuleInput {
            name: "ghost".into(),
            condition: parse_formula("x > 3").unwrap(),
            ..RuleInput::default()
        };
        let (_, diags) = lint_rule(&rule);
        assert!(diags.iter().any(|d| d.code == LintCode::AlwaysRelevant));
    }

    #[test]
    fn rule_set_reports_cycle_and_confluence() {
        let rules = vec![
            input("ping", "pong_count() > 0", &["query:ping_count"]),
            input("pong", "ping_count() > 0", &["query:pong_count"]),
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
            input("watch", "price(\"IBM\") > 100", &["event:alert"]),
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
        let reads = condition_reads(&f);
        assert!(reads.contains("query:price"));
        assert!(reads.contains("event:tick"));
        assert!(reads.contains("item:time"));
    }

    #[test]
    fn uses_time_detection() {
        let uses = |src: &str| uses_time(&parse_formula(src).unwrap());
        assert!(uses("time > 5"));
        assert!(uses("[t := time] previously(a() > 0)"));
        assert!(uses("x in names(time) and x > 0"));
        assert!(!uses("a() > 0"));
    }
}
