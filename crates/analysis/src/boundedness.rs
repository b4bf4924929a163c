//! Boundedness certification for PTL conditions.
//!
//! The incremental evaluator (Theorem 1) retains one residual formula
//! `F_{g,i}` per subformula `g`. For `g = g1 Since g2` the recurrence
//! `F_i = F_{g2,i} ∨ (F_{g1,i} ∧ F_{i-1})` accumulates one disjunct per
//! state, so retained state grows with history length **unless** one of the
//! Section 5 conditions applies:
//!
//! 1. **Ground operands.** If the operand subtrees mention no variables,
//!    every per-state residual partially evaluates to `true`/`false` and
//!    the disjunction collapses — retained state is bounded by the number
//!    of subformula nodes: `Bounded(k)`.
//! 2. **Monotone time-clause pruning.** If the `Since` body carries a
//!    conjunct comparing a clock variable `t` (one assigned `t := time`)
//!    against `time` with a window `Δ` — e.g. `time >= t - Δ`, which
//!    partially evaluates at state `i` to the constraint `t ≤ τ_i + Δ` —
//!    then the pruner deletes the whole disjunct once `now > τ_i + Δ`:
//!    at most `Δ` time units of disjuncts are live: `BoundedByWindow(Δ)`.
//!
//! Otherwise the operator is reported `Unbounded`, with the offending
//! subformula (and its source span when available).
//!
//! The verdict is *conservative*: `Bounded`/`BoundedByWindow` are sound
//! claims (the property test `tests/analysis_properties.rs` checks them
//! against the real evaluator), while `Unbounded` means "no bound could be
//! certified", which on adversarial histories does grow.

use std::collections::BTreeSet;
use std::fmt;

use tdb_ptl::analysis::time_vars;
use tdb_ptl::{to_core, Formula, Span, SpanNode, Term};
use tdb_relation::{ArithOp, CmpOp, Value};

/// A symbolic bound on the retained residual size of a condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Boundedness {
    /// Retained residual size never exceeds `nodes`, independent of history
    /// length. When `data_scaled` is set the bound additionally scales with
    /// the per-state generator fan-out (rows matched by membership/event
    /// atoms with free variables), but still not with history length.
    Bounded { nodes: usize, data_scaled: bool },
    /// Retained state is bounded by the rule-visible states inside the last
    /// `delta` time units (monotone time-clause pruning applies).
    BoundedByWindow { delta: i64 },
    /// No bound could be certified; state may grow linearly with history.
    Unbounded,
}

impl fmt::Display for Boundedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Boundedness::Bounded { nodes, data_scaled } => {
                if *data_scaled {
                    write!(f, "bounded ({nodes} nodes, scaled by generator fan-out)")
                } else {
                    write!(f, "bounded ({nodes} nodes)")
                }
            }
            Boundedness::BoundedByWindow { delta } => {
                write!(f, "bounded by time window (delta = {delta})")
            }
            Boundedness::Unbounded => write!(f, "UNBOUNDED (state grows with history)"),
        }
    }
}

impl Boundedness {
    /// JSON object fields (without braces) describing the verdict.
    pub(crate) fn json_fields(&self) -> String {
        match self {
            Boundedness::Bounded { nodes, data_scaled } => {
                format!("\"verdict\":\"bounded\",\"nodes\":{nodes},\"data_scaled\":{data_scaled}")
            }
            Boundedness::BoundedByWindow { delta } => {
                format!("\"verdict\":\"bounded-by-window\",\"delta\":{delta}")
            }
            Boundedness::Unbounded => "\"verdict\":\"unbounded\"".to_string(),
        }
    }
}

/// One uncertifiable temporal operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offender {
    /// Span of the offending subformula, when the formula was parsed with
    /// [`tdb_ptl::parse_formula_spanned`].
    pub span: Option<Span>,
    /// Pretty-printed offending subformula.
    pub subformula: String,
    /// Why no bound could be certified.
    pub reason: String,
}

/// The certification result for one condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundCertificate {
    pub verdict: Boundedness,
    /// Non-empty exactly when the verdict is [`Boundedness::Unbounded`].
    pub offenders: Vec<Offender>,
}

/// Internal lattice: `Unbounded` dominates, windows take the max.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum V {
    Bounded,
    Window(i64),
    Unbounded,
}

fn join(a: V, b: V) -> V {
    match (a, b) {
        (V::Unbounded, _) | (_, V::Unbounded) => V::Unbounded,
        (V::Window(x), V::Window(y)) => V::Window(x.max(y)),
        (V::Window(x), _) | (_, V::Window(x)) => V::Window(x),
        _ => V::Bounded,
    }
}

/// Certifies the retained-state bound of `f`. `spans` is the span tree from
/// [`tdb_ptl::parse_formula_spanned`] when the formula came from source;
/// without it, diagnostics fall back to pretty-printing the subformula.
pub fn certify(f: &Formula, spans: Option<&SpanNode>) -> BoundCertificate {
    let tv = time_vars(f);
    let mut offenders = Vec::new();
    let v = go(f, spans, &tv, &mut offenders);
    let verdict = match v {
        V::Bounded => Boundedness::Bounded {
            // Ground per-state residuals are one node per subformula DAG
            // node; assigned-variable constraints cost at most one extra
            // node each, hence the factor of two (validated by the
            // property test against `IncrementalEvaluator::retained_size`).
            nodes: 2 * to_core(f).size() + 4,
            data_scaled: !f.free_vars().is_empty(),
        },
        V::Window(delta) => Boundedness::BoundedByWindow { delta },
        V::Unbounded => Boundedness::Unbounded,
    };
    BoundCertificate { verdict, offenders }
}

fn go(f: &Formula, sp: Option<&SpanNode>, tv: &BTreeSet<String>, out: &mut Vec<Offender>) -> V {
    match f {
        Formula::True | Formula::False => V::Bounded,
        Formula::Cmp(..) | Formula::Member { .. } | Formula::Event { .. } => {
            // Atoms hold no history themselves, but the formulas of aggregates
            // in their terms retain state in the rule's evaluator — certify
            // those too (no spans: they live in terms).
            let mut v = V::Bounded;
            for g in agg_subformulas(f) {
                v = join(v, go(g, None, &time_vars(g), out));
            }
            v
        }
        Formula::Not(g) | Formula::Lasttime(g) => go(g, sp.and_then(|s| s.child(0)), tv, out),
        Formula::Assign { body, .. } => go(body, sp.and_then(|s| s.child(0)), tv, out),
        Formula::And(gs) | Formula::Or(gs) => {
            let mut v = V::Bounded;
            for (i, g) in gs.iter().enumerate() {
                v = join(v, go(g, sp.and_then(|s| s.child(i)), tv, out));
            }
            v
        }
        Formula::Since(g, h) => {
            let vg = go(g, sp.and_then(|s| s.child(0)), tv, out);
            let vh = go(h, sp.and_then(|s| s.child(1)), tv, out);
            let own = since_bound(f, h, Some(g), sp, tv, "since", out);
            join(join(vg, vh), own)
        }
        Formula::Previously(h) => {
            let vh = go(h, sp.and_then(|s| s.child(0)), tv, out);
            let own = since_bound(f, h, None, sp, tv, "previously/once", out);
            join(vh, own)
        }
        Formula::ThroughoutPast(g) => {
            let vg = go(g, sp.and_then(|s| s.child(0)), tv, out);
            // Core form is ¬(true Since ¬g): a time guard inside g appears
            // negated in the accumulating body, so pruning does not apply —
            // only ground operands are certifiable.
            let own = if subtree_ground(g) {
                V::Bounded
            } else {
                out.push(Offender {
                    span: sp.map(|s| s.span),
                    subformula: f.to_string(),
                    reason: "`throughout_past` over a non-ground operand retains one clause \
                             per state and time guards cannot prune its negated body"
                        .into(),
                });
                V::Unbounded
            };
            join(vg, own)
        }
    }
}

/// Bound contributed by one `Since`-like node itself (`g Since h`;
/// `Previously h` is `true Since h`).
fn since_bound(
    whole: &Formula,
    h: &Formula,
    g: Option<&Formula>,
    sp: Option<&SpanNode>,
    tv: &BTreeSet<String>,
    op: &str,
    out: &mut Vec<Offender>,
) -> V {
    let g_ground = g.map(subtree_ground).unwrap_or(true);
    if g_ground && subtree_ground(h) {
        // Every per-state residual is ground, so the accumulated
        // disjunction folds to true/false at each step.
        return V::Bounded;
    }
    if let Some(delta) = window_guard(h, tv) {
        // Each accumulated disjunct carries the guard's `t ≤ τ_j + Δ`
        // constraint conjoined, so the pruner deletes the whole disjunct
        // (bindings included) once `now > τ_j + Δ`.
        return V::Window(delta);
    }
    out.push(Offender {
        span: sp.map(|s| s.span),
        subformula: whole.to_string(),
        reason: format!(
            "`{op}` retains one clause per state and no clock-variable window guards its body"
        ),
    });
    V::Unbounded
}

/// Formulas nested inside temporal aggregates in this atom's terms. Each
/// aggregate's `start` and `sample` compile into the rule's own evaluator,
/// so their retained state counts against this rule.
fn agg_subformulas(f: &Formula) -> Vec<&Formula> {
    let mut out = Vec::new();
    let mut terms: Vec<&Term> = Vec::new();
    match f {
        Formula::Cmp(_, a, b) => terms.extend([a, b]),
        Formula::Member { pattern, .. } => terms.extend(pattern.iter()),
        Formula::Event { pattern, .. } => terms.extend(pattern.iter()),
        _ => {}
    }
    while let Some(t) = terms.pop() {
        match t {
            Term::Arith(_, a, b) => terms.extend([a.as_ref(), b.as_ref()]),
            Term::Neg(a) | Term::Abs(a) => terms.push(a),
            Term::Query { args, .. } => terms.extend(args.iter()),
            Term::Agg(agg) => {
                terms.push(&agg.query);
                out.push(&agg.start);
                out.push(&agg.sample);
            }
            Term::Const(_) | Term::Var(_) | Term::Time => {}
        }
    }
    out
}

/// No variables anywhere in the subtree: every residual it produces is
/// ground (`free_vars` on the subtree alone also reports variables assigned
/// by *enclosing* assignments, which is exactly what matters here).
fn subtree_ground(f: &Formula) -> bool {
    f.free_vars().is_empty()
}

/// Finds a pruning-effective window guard in the body of a `Since`: a
/// top-level conjunct comparing a clock variable to `time` such that
/// partial evaluation yields an upper bound `t ≤ τ + Δ` (which the
/// monotone-clock pruner kills after `Δ` time units). An `Or` body is
/// guarded only if every disjunct is.
fn window_guard(h: &Formula, tv: &BTreeSet<String>) -> Option<i64> {
    match h {
        Formula::Cmp(op, a, b) => cmp_guard(*op, a, b, tv),
        Formula::And(gs) => gs.iter().filter_map(|g| window_guard(g, tv)).min(),
        Formula::Or(gs) => {
            let deltas: Vec<i64> = gs
                .iter()
                .map(|g| window_guard(g, tv))
                .collect::<Option<_>>()?;
            deltas.into_iter().max()
        }
        Formula::Assign { body, .. } => window_guard(body, tv),
        _ => None,
    }
}

/// A term decomposed as `base + offset` with an integer offset.
enum Base<'a> {
    Time,
    Var(&'a str),
}

fn decompose(t: &Term) -> Option<(Base<'_>, i64)> {
    match t {
        Term::Time => Some((Base::Time, 0)),
        Term::Var(v) => Some((Base::Var(v), 0)),
        Term::Arith(ArithOp::Add, a, b) => {
            if let Some(c) = int_const(b) {
                decompose(a).map(|(base, k)| (base, k + c))
            } else if let Some(c) = int_const(a) {
                decompose(b).map(|(base, k)| (base, k + c))
            } else {
                None
            }
        }
        Term::Arith(ArithOp::Sub, a, b) => {
            let c = int_const(b)?;
            decompose(a).map(|(base, k)| (base, k - c))
        }
        _ => None,
    }
}

fn int_const(t: &Term) -> Option<i64> {
    match t {
        Term::Const(Value::Int(i)) => Some(*i),
        Term::Neg(inner) => int_const(inner).map(|i| -i),
        _ => None,
    }
}

/// Matches one comparison as a window guard and returns its `Δ`.
///
/// With `L = time + a` and `R = t + b` (t a clock variable), the partial
/// evaluator linearizes `L op R` at state `i` (clock `τ`) into the
/// constraint `t flip(op) τ + (a − b)`; the pruner needs an *upper* bound,
/// i.e. `flip(op) ∈ {≤, <, =}`.
fn cmp_guard(op: CmpOp, l: &Term, r: &Term, tv: &BTreeSet<String>) -> Option<i64> {
    let (lb, lk) = decompose(l)?;
    let (rb, rk) = decompose(r)?;
    let (upper_op, delta) = match (lb, rb) {
        (Base::Time, Base::Var(v)) if tv.contains(v) => (op.flip(), lk - rk),
        (Base::Var(v), Base::Time) if tv.contains(v) => (op, rk - lk),
        _ => return None,
    };
    match upper_op {
        CmpOp::Le | CmpOp::Lt | CmpOp::Eq => Some(delta.max(0)),
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_ptl::{parse_formula, parse_formula_spanned};

    fn verdict(src: &str) -> Boundedness {
        certify(&parse_formula(src).unwrap(), None).verdict
    }

    #[test]
    fn ground_formulas_are_bounded() {
        assert!(matches!(
            verdict("previously(price(\"IBM\") > 20)"),
            Boundedness::Bounded {
                data_scaled: false,
                ..
            }
        ));
        assert!(matches!(
            verdict("not @logout(\"X\") since @login(\"X\")"),
            Boundedness::Bounded { .. }
        ));
        assert!(matches!(
            verdict("historically(a() > 0)"),
            Boundedness::Bounded { .. }
        ));
    }

    #[test]
    fn paper_ibm_doubling_is_window_bounded() {
        let v = verdict(
            "[t := time] [x := price(\"IBM\")] \
             previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
        );
        assert_eq!(v, Boundedness::BoundedByWindow { delta: 10 });
    }

    #[test]
    fn guard_variants_all_match() {
        for guard in [
            "time >= t - 10",
            "time > t - 10",
            "t <= time + 10",
            "t < time + 10",
            "t - 10 <= time",
            "10 + time >= t",
        ] {
            let src = format!("[t := time] previously(price(\"IBM\") <= 5 and {guard})");
            match verdict(&src) {
                Boundedness::BoundedByWindow { delta } => assert_eq!(delta, 10, "{guard}"),
                other => panic!("{guard}: expected window, got {other:?}"),
            }
        }
        // `time = t` pins the body to the assignment instant: window 0.
        assert_eq!(
            verdict("[t := time] previously(price(\"IBM\") <= 5 and time = t)"),
            Boundedness::BoundedByWindow { delta: 0 }
        );
    }

    #[test]
    fn lower_bound_guard_does_not_count() {
        // `time <= t + 10` lower-bounds the clock variable; the pruner can
        // never delete such constraints.
        assert_eq!(
            verdict("[t := time] previously(price(\"IBM\") <= 5 and time <= t + 10)"),
            Boundedness::Unbounded
        );
        // A guard on a non-clock variable is no guard at all.
        assert_eq!(
            verdict("[t := price(\"IBM\")] previously(price(\"IBM\") <= 5 and time >= t - 10)"),
            Boundedness::Unbounded
        );
    }

    #[test]
    fn unguarded_once_is_unbounded_with_span() {
        let src = "@pulse and once @login(u)";
        let (f, spans) = parse_formula_spanned(src).unwrap();
        let cert = certify(&f, Some(&spans));
        assert_eq!(cert.verdict, Boundedness::Unbounded);
        assert_eq!(cert.offenders.len(), 1);
        let off = &cert.offenders[0];
        assert_eq!(off.span.unwrap().slice(src).unwrap(), "once @login(u)");
    }

    #[test]
    fn or_body_needs_every_disjunct_guarded() {
        assert_eq!(
            verdict(
                "[t := time] previously((@a(u) and time >= t - 5) or (@b(u) and time >= t - 9))"
            ),
            Boundedness::BoundedByWindow { delta: 9 }
        );
        assert_eq!(
            verdict("[t := time] previously((@a(u) and time >= t - 5) or @b(u))"),
            Boundedness::Unbounded
        );
    }

    #[test]
    fn throughout_past_with_variables_is_conservative() {
        assert_eq!(
            verdict("[t := time] throughout_past(@a(u) and time >= t - 5)"),
            Boundedness::Unbounded
        );
    }

    #[test]
    fn free_variable_atoms_scale_with_data_not_history() {
        match verdict("x in names() and price(x) > 100") {
            Boundedness::Bounded { data_scaled, .. } => assert!(data_scaled),
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_subformulas_are_certified() {
        // The sample sub-formula hides an unguarded `previously` over an
        // event with a variable — the rule's evaluator would retain
        // unbounded state for it.
        assert_eq!(
            verdict("avg(price(\"IBM\"); time = 0; previously @login(u)) > 70"),
            Boundedness::Unbounded
        );
        assert!(matches!(
            verdict("avg(price(\"IBM\"); time = 0; @update_stocks) > 70"),
            Boundedness::Bounded { .. }
        ));
    }

    #[test]
    fn window_takes_max_across_operators() {
        let v = verdict(
            "[t := time] (previously(@a(u) and time >= t - 5)) \
             and ([s := time] previously(@b(u) and time >= s - 20))",
        );
        assert_eq!(v, Boundedness::BoundedByWindow { delta: 20 });
    }
}
