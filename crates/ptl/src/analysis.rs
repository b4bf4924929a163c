//! Static analysis of PTL formulas.
//!
//! Three checks run when a rule is registered:
//!
//! 1. **Single assignment** — each bound variable is assigned at most once
//!    (the paper's normal form; violations must be renamed).
//! 2. **Safety** — every *free* variable is range-restricted: it occurs in a
//!    positively occurring generator position (a membership or event atom
//!    pattern), so the set of satisfying assignments is finite. This is the
//!    paper's point that the assignment operator "naturally ensures safety"
//!    — assigned variables are always safe; only free variables need
//!    generators.
//! 3. **Ground generators** — generator atoms' query arguments must be
//!    variable-free so the generator can be expanded at evaluation time.
//!
//! The module also computes which assigned variables are bound to the clock
//! (`time_vars`) — the monotone-pruning optimization of Section 5 applies
//! to exactly those.

use std::collections::BTreeSet;

use crate::error::{PtlError, Result};
use crate::formula::Formula;
use crate::term::Term;

/// The result of analyzing a formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Free variables, in first-occurrence order.
    pub free_vars: Vec<String>,
    /// Variables bound by assignment operators.
    pub assigned_vars: Vec<String>,
    /// Assigned variables whose term is exactly the clock (`time`) — the
    /// monotone-clock pruning may be applied to comparisons on these.
    pub time_vars: BTreeSet<String>,
    /// Event names referenced (relevance filtering).
    pub event_names: Vec<String>,
    /// Query names referenced (relevance filtering).
    pub query_names: Vec<String>,
    /// Whether any temporal operator occurs.
    pub temporal: bool,
}

/// Runs all static checks and returns the analysis, or the first error.
pub fn analyze(f: &Formula) -> Result<Analysis> {
    check_single_assignment(f)?;
    check_safety(f)?;
    Ok(Analysis {
        free_vars: f.free_vars(),
        assigned_vars: f.assigned_vars(),
        time_vars: time_vars(f),
        event_names: f.event_names(),
        query_names: f.query_names(),
        temporal: f.is_temporal(),
    })
}

/// Rejects formulas assigning the same variable twice.
pub fn check_single_assignment(f: &Formula) -> Result<()> {
    let mut seen = BTreeSet::new();
    let mut dup = None;
    f.visit(&mut |g| {
        if let Formula::Assign { var, .. } = g {
            if !seen.insert(var.clone()) && dup.is_none() {
                dup = Some(var.clone());
            }
        }
    });
    match dup {
        Some(v) => Err(PtlError::DuplicateAssignment(v)),
        None => Ok(()),
    }
}

/// Assigned variables whose assignment term is the clock.
pub fn time_vars(f: &Formula) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    f.visit(&mut |g| {
        if let Formula::Assign {
            var,
            term: Term::Time,
            ..
        } = g
        {
            out.insert(var.clone());
        }
    });
    out
}

/// Safety check: every free variable must have a positive generator
/// occurrence, and generator query arguments must be ground.
pub fn check_safety(f: &Formula) -> Result<()> {
    // Collect generator-covered variables (positive polarity only) and
    // check generator argument groundness.
    let mut covered = BTreeSet::new();
    collect_generators(f, true, &mut covered)?;
    for v in f.free_vars() {
        if !covered.contains(&v) {
            return Err(PtlError::Unsafe {
                var: v,
                reason: "has no positive membership/event generator occurrence".into(),
            });
        }
    }
    Ok(())
}

fn collect_generators(f: &Formula, positive: bool, covered: &mut BTreeSet<String>) -> Result<()> {
    match f {
        Formula::True | Formula::False | Formula::Cmp(..) => Ok(()),
        Formula::Member { source, pattern } => {
            for a in &source.args {
                if let Some(v) = a.vars().into_iter().next() {
                    return Err(PtlError::NonGroundGeneratorArgs {
                        query: source.name.clone(),
                        var: v,
                    });
                }
            }
            if positive {
                for t in pattern {
                    if let Term::Var(v) = t {
                        covered.insert(v.clone());
                    }
                }
            }
            Ok(())
        }
        Formula::Event { pattern, .. } => {
            if positive {
                for t in pattern {
                    if let Term::Var(v) = t {
                        covered.insert(v.clone());
                    }
                }
            }
            Ok(())
        }
        Formula::Not(g) => collect_generators(g, !positive, covered),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                collect_generators(g, positive, covered)?;
            }
            Ok(())
        }
        Formula::Since(g, h) => {
            collect_generators(g, positive, covered)?;
            collect_generators(h, positive, covered)
        }
        Formula::Lasttime(g) | Formula::Previously(g) | Formula::ThroughoutPast(g) => {
            collect_generators(g, positive, covered)
        }
        Formula::Assign { body, term, .. } => {
            // Aggregate sub-formulas must be safe on their own.
            if let Term::Agg(agg) = term {
                check_safety(&agg.start)?;
                check_safety(&agg.sample)?;
            }
            collect_generators(body, positive, covered)
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::formula::QueryRef;
    use tdb_relation::CmpOp;

    #[test]
    fn closed_formula_is_safe() {
        let f = Formula::previously(Formula::cmp(
            CmpOp::Gt,
            Term::query("price", vec![Term::lit("IBM")]),
            Term::lit(50i64),
        ));
        let a = analyze(&f).unwrap();
        assert!(a.free_vars.is_empty());
        assert!(a.temporal);
        assert_eq!(a.query_names, vec!["price".to_string()]);
    }

    #[test]
    fn free_var_without_generator_is_unsafe() {
        // x > 50 with x free and no generator.
        let f = Formula::cmp(CmpOp::Gt, Term::var("x"), Term::lit(50i64));
        assert!(matches!(analyze(&f), Err(PtlError::Unsafe { .. })));
    }

    #[test]
    fn member_generator_makes_var_safe() {
        let f = Formula::and([
            Formula::member(QueryRef::new("names", vec![]), vec![Term::var("x")]),
            Formula::cmp(
                CmpOp::Gt,
                Term::query("price", vec![Term::var("x")]),
                Term::lit(50i64),
            ),
        ]);
        analyze(&f).unwrap();
    }

    #[test]
    fn negated_generator_does_not_cover() {
        let f = Formula::not(Formula::member(
            QueryRef::new("names", vec![]),
            vec![Term::var("x")],
        ));
        assert!(matches!(analyze(&f), Err(PtlError::Unsafe { .. })));
        // Double negation restores positivity.
        let f2 = Formula::not(f);
        analyze(&f2).unwrap();
    }

    #[test]
    fn event_generator_covers() {
        let f = Formula::event("login", vec![Term::var("user")]);
        analyze(&f).unwrap();
    }

    #[test]
    fn assigned_vars_need_no_generator() {
        let f = Formula::assign(
            "x",
            Term::query("price", vec![Term::lit("IBM")]),
            Formula::cmp(
                CmpOp::Lt,
                Term::query("price", vec![Term::lit("IBM")]),
                Term::var("x"),
            ),
        );
        analyze(&f).unwrap();
    }

    #[test]
    fn duplicate_assignment_rejected() {
        let inner = Formula::assign("x", Term::Time, Formula::True);
        let f = Formula::assign("x", Term::Time, inner);
        assert_eq!(
            check_single_assignment(&f),
            Err(PtlError::DuplicateAssignment("x".into()))
        );
    }

    #[test]
    fn time_vars_detected() {
        let f = Formula::assign(
            "t",
            Term::Time,
            Formula::assign("x", Term::lit(1i64), Formula::True),
        );
        let tv = time_vars(&f);
        assert!(tv.contains("t"));
        assert!(!tv.contains("x"));
    }

    #[test]
    fn non_ground_generator_args_rejected() {
        let f = Formula::member(
            QueryRef::new("holdings", vec![Term::var("y")]),
            vec![Term::var("x")],
        );
        assert!(matches!(
            analyze(&f),
            Err(PtlError::NonGroundGeneratorArgs { .. })
        ));
    }
}
