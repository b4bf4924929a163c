//! Temporal-aggregate rewriting (Section 6.1.1).
//!
//! An aggregate term `f(q, φ, ψ)` in a rule condition is compiled away by
//! introducing fresh database items (registers) and two generated helper
//! rules: one with condition φ that *resets* the registers, one with
//! condition ψ that *accumulates* the current value of `q` — exactly the
//! paper's
//!
//! ```text
//! r  : (CUM_PRICE / TOTAL_UPDATES > 70) → A
//! r1 : time = 9AM       → CUM_PRICE := 0; TOTAL_UPDATES := 0
//! r2 : @update_stocks   → CUM_PRICE := CUM_PRICE + price(IBM); TOTAL_UPDATES++
//! ```
//!
//! Aggregates may be nested (a start/sampling formula may itself contain an
//! aggregate); nested occurrences are rewritten first and the outer helper
//! rules are built over the rewritten formulas.
//!
//! Because the helper rules run their actions as follow-up transactions,
//! the rewritten aggregate becomes visible one system state after the
//! sampling state (the paper's "firing may be delayed, but not go
//! unrecognized"). Aggregates whose query or formulas mention free
//! variables would need registers indexed per binding (the paper sketches
//! this); this implementation rejects them with a clear error.

use tdb_ptl::{Formula, QueryRef, TemporalAgg, Term};
use tdb_relation::{AggFunc, ArithOp, Value};

use crate::error::{CoreError, Result};
use crate::rules::{Action, ActionOp, Rule, RuleKind};

/// A register (scalar data item) introduced by the rewriting, plus the
/// 0-ary named query that reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterDef {
    pub item: String,
    pub query: String,
    pub initial: Value,
}

/// The result of rewriting every aggregate out of a condition.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRewrite {
    /// The condition with aggregate terms replaced by register reads.
    pub condition: Formula,
    /// Registers to create (items + reader queries).
    pub registers: Vec<RegisterDef>,
    /// Generated init/update rules, in the order they must be registered
    /// (reset before accumulate).
    pub helper_rules: Vec<Rule>,
}

impl AggRewrite {
    /// True if the condition contained no aggregates.
    pub fn is_identity(&self) -> bool {
        self.registers.is_empty() && self.helper_rules.is_empty()
    }
}

/// Rewrites all temporal aggregates in `condition`.
pub fn rewrite_aggregates(rule_name: &str, condition: &Formula) -> Result<AggRewrite> {
    let mut ctx = Ctx {
        rule_name,
        counter: 0,
        registers: Vec::new(),
        rules: Vec::new(),
    };
    let condition = rewrite_formula(condition, &mut ctx)?;
    Ok(AggRewrite {
        condition,
        registers: ctx.registers,
        helper_rules: ctx.rules,
    })
}

struct Ctx<'a> {
    rule_name: &'a str,
    counter: usize,
    registers: Vec<RegisterDef>,
    rules: Vec<Rule>,
}

fn rewrite_formula(f: &Formula, ctx: &mut Ctx<'_>) -> Result<Formula> {
    Ok(match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Cmp(op, a, b) => Formula::Cmp(*op, rewrite_term(a, ctx)?, rewrite_term(b, ctx)?),
        Formula::Member { source, pattern } => Formula::Member {
            source: QueryRef {
                name: source.name.clone(),
                args: source
                    .args
                    .iter()
                    .map(|t| rewrite_term(t, ctx))
                    .collect::<Result<_>>()?,
            },
            pattern: pattern
                .iter()
                .map(|t| rewrite_term(t, ctx))
                .collect::<Result<_>>()?,
        },
        Formula::Event { name, pattern } => Formula::Event {
            name: name.clone(),
            pattern: pattern
                .iter()
                .map(|t| rewrite_term(t, ctx))
                .collect::<Result<_>>()?,
        },
        Formula::Not(g) => Formula::not(rewrite_formula(g, ctx)?),
        Formula::And(gs) => Formula::And(
            gs.iter()
                .map(|g| rewrite_formula(g, ctx))
                .collect::<Result<_>>()?,
        ),
        Formula::Or(gs) => Formula::Or(
            gs.iter()
                .map(|g| rewrite_formula(g, ctx))
                .collect::<Result<_>>()?,
        ),
        Formula::Since(g, h) => Formula::since(rewrite_formula(g, ctx)?, rewrite_formula(h, ctx)?),
        Formula::Lasttime(g) => Formula::lasttime(rewrite_formula(g, ctx)?),
        Formula::Previously(g) => Formula::previously(rewrite_formula(g, ctx)?),
        Formula::ThroughoutPast(g) => Formula::throughout_past(rewrite_formula(g, ctx)?),
        Formula::Assign { var, term, body } => Formula::assign(
            var.clone(),
            rewrite_term(term, ctx)?,
            rewrite_formula(body, ctx)?,
        ),
    })
}

fn rewrite_term(t: &Term, ctx: &mut Ctx<'_>) -> Result<Term> {
    Ok(match t {
        Term::Const(_) | Term::Var(_) | Term::Time => t.clone(),
        Term::Arith(op, a, b) => Term::arith(*op, rewrite_term(a, ctx)?, rewrite_term(b, ctx)?),
        Term::Neg(a) => Term::Neg(Box::new(rewrite_term(a, ctx)?)),
        Term::Abs(a) => Term::Abs(Box::new(rewrite_term(a, ctx)?)),
        Term::Query { name, args } => Term::Query {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_term(a, ctx))
                .collect::<Result<_>>()?,
        },
        Term::Agg(agg) => rewrite_one_aggregate(agg, ctx)?,
    })
}

fn rewrite_one_aggregate(agg: &TemporalAgg, ctx: &mut Ctx<'_>) -> Result<Term> {
    // Free-variable aggregates would need per-binding indexed registers.
    let mut vars = agg.query.vars();
    agg.start.collect_free_vars_into(&mut vars);
    agg.sample.collect_free_vars_into(&mut vars);
    if let Some(v) = vars.first() {
        return Err(CoreError::Ptl(tdb_ptl::PtlError::Unsafe {
            var: v.clone(),
            reason: "occurs in a temporal aggregate; indexed registers are not supported".into(),
        }));
    }

    // Rewrite nested aggregates in the start/sampling formulas and query.
    let start = rewrite_formula(&agg.start, ctx)?;
    let sample = rewrite_formula(&agg.sample, ctx)?;
    let q = rewrite_term(&agg.query, ctx)?;

    let k = ctx.counter;
    ctx.counter += 1;
    let prefix = format!("__agg_{}_{k}", ctx.rule_name);
    let reg = |suffix: &str| format!("{prefix}_{suffix}");
    let read = |item: &str| Term::query(format!("{item}_q"), vec![]);

    let def = |ctx: &mut Ctx<'_>, item: String, initial: Value| {
        ctx.registers.push(RegisterDef {
            query: format!("{item}_q"),
            item,
            initial,
        });
    };

    let (replacement, init_ops, update_ops) = match agg.func {
        AggFunc::Sum => {
            let s = reg("sum");
            def(ctx, s.clone(), Value::Int(0));
            (
                read(&s),
                vec![ActionOp::SetItem {
                    item: s.clone(),
                    value: Term::lit(0i64),
                }],
                vec![ActionOp::SetItem {
                    item: s.clone(),
                    value: Term::arith(ArithOp::Add, read(&s), q.clone()),
                }],
            )
        }
        AggFunc::Count => {
            let c = reg("cnt");
            def(ctx, c.clone(), Value::Int(0));
            (
                read(&c),
                vec![ActionOp::SetItem {
                    item: c.clone(),
                    value: Term::lit(0i64),
                }],
                vec![ActionOp::SetItem {
                    item: c.clone(),
                    value: Term::arith(ArithOp::Add, read(&c), Term::lit(1i64)),
                }],
            )
        }
        AggFunc::Avg => {
            let (s, c, a) = (reg("sum"), reg("cnt"), reg("avg"));
            def(ctx, s.clone(), Value::Int(0));
            def(ctx, c.clone(), Value::Int(0));
            def(ctx, a.clone(), Value::Null);
            let new_sum = Term::arith(ArithOp::Add, read(&s), q.clone());
            let new_cnt = Term::arith(ArithOp::Add, read(&c), Term::lit(1i64));
            // Multiply by 1.0 to force float division (avg of ints is a
            // float, matching `AggFunc::Avg`).
            let new_avg = Term::arith(
                ArithOp::Div,
                Term::arith(ArithOp::Mul, new_sum.clone(), Term::lit(1.0)),
                new_cnt.clone(),
            );
            (
                read(&a),
                vec![
                    ActionOp::SetItem {
                        item: s.clone(),
                        value: Term::lit(0i64),
                    },
                    ActionOp::SetItem {
                        item: c.clone(),
                        value: Term::lit(0i64),
                    },
                    ActionOp::SetItem {
                        item: a.clone(),
                        value: Term::Const(Value::Null),
                    },
                ],
                vec![
                    // All terms evaluate against the pre-update state, so
                    // the average uses the incremented sum and count.
                    ActionOp::SetItem {
                        item: a.clone(),
                        value: new_avg,
                    },
                    ActionOp::SetItem {
                        item: s.clone(),
                        value: new_sum,
                    },
                    ActionOp::SetItem {
                        item: c.clone(),
                        value: new_cnt,
                    },
                ],
            )
        }
        AggFunc::Min => {
            let m = reg("min");
            def(ctx, m.clone(), Value::Null);
            (
                read(&m),
                vec![ActionOp::SetItem {
                    item: m.clone(),
                    value: Term::Const(Value::Null),
                }],
                vec![ActionOp::UpdateMin {
                    item: m.clone(),
                    value: q.clone(),
                }],
            )
        }
        AggFunc::Max => {
            let m = reg("max");
            def(ctx, m.clone(), Value::Null);
            (
                read(&m),
                vec![ActionOp::SetItem {
                    item: m.clone(),
                    value: Term::Const(Value::Null),
                }],
                vec![ActionOp::UpdateMax {
                    item: m.clone(),
                    value: q.clone(),
                }],
            )
        }
        AggFunc::Last => {
            let l = reg("last");
            def(ctx, l.clone(), Value::Null);
            (
                read(&l),
                vec![ActionOp::SetItem {
                    item: l.clone(),
                    value: Term::Const(Value::Null),
                }],
                vec![ActionOp::SetItem {
                    item: l.clone(),
                    value: q.clone(),
                }],
            )
        }
    };

    // Reset rule first, then accumulate rule: when φ and ψ hold at the same
    // state, the sample is taken after the reset (the aggregate's window
    // includes its starting point).
    ctx.rules.push(Rule {
        name: format!("{prefix}_init"),
        condition: start,
        params: Vec::new(),
        action: Action::DbOps(init_ops),
        kind: RuleKind::Trigger,
        record_executed: false,
        edge_triggered: true,
    });
    ctx.rules.push(Rule {
        name: format!("{prefix}_upd"),
        condition: sample,
        params: Vec::new(),
        action: Action::DbOps(update_ops),
        kind: RuleKind::Trigger,
        record_executed: false,
        edge_triggered: true,
    });

    Ok(replacement)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_ptl::parse_formula;

    #[test]
    fn identity_on_aggregate_free_conditions() {
        let f = parse_formula("previously(price(\"IBM\") > 20)").unwrap();
        let rw = rewrite_aggregates("r", &f).unwrap();
        assert!(rw.is_identity());
        assert_eq!(rw.condition, f);
    }

    #[test]
    fn avg_produces_three_registers_and_two_rules() {
        // The paper's hourly-average rule.
        let f = parse_formula("avg(price(\"IBM\"); time = 540; @update_stocks) > 70").unwrap();
        let rw = rewrite_aggregates("r", &f).unwrap();
        assert_eq!(rw.registers.len(), 3);
        assert_eq!(rw.helper_rules.len(), 2);
        assert!(rw.helper_rules[0].name.ends_with("_init"));
        assert!(rw.helper_rules[1].name.ends_with("_upd"));
        // The init rule's condition is the starting formula.
        assert_eq!(
            rw.helper_rules[0].condition,
            parse_formula("time = 540").unwrap()
        );
        // The rewritten condition reads the avg register.
        let mut reads_register = false;
        rw.condition.visit(&mut |g| {
            if let Formula::Cmp(_, Term::Query { name, .. }, _) = g {
                if name.contains("avg") {
                    reads_register = true;
                }
            }
        });
        assert!(reads_register);
    }

    #[test]
    fn sum_update_reads_register_and_query() {
        let f = parse_formula("sum(price(\"IBM\"); time = 540; @update_stocks) > 0").unwrap();
        let rw = rewrite_aggregates("r", &f).unwrap();
        match &rw.helper_rules[1].action {
            Action::DbOps(ops) => match &ops[0] {
                ActionOp::SetItem { value, .. } => {
                    assert!(matches!(value, Term::Arith(ArithOp::Add, ..)));
                }
                other => panic!("expected SetItem, got {other:?}"),
            },
            other => panic!("expected DbOps, got {other:?}"),
        }
    }

    #[test]
    fn nested_aggregates_rewrite_inner_first() {
        // Outer count samples whenever the inner sum exceeds 10.
        let f = parse_formula("count(1; time = 0; sum(price(\"IBM\"); time = 0; @u) > 10) > 2")
            .unwrap();
        let rw = rewrite_aggregates("r", &f).unwrap();
        // Inner: 1 register (sum), outer: 1 register (cnt).
        assert_eq!(rw.registers.len(), 2);
        assert_eq!(rw.helper_rules.len(), 4);
        // Outer update rule's condition must reference the inner register.
        let outer_upd = &rw.helper_rules[3];
        assert!(outer_upd
            .condition
            .query_names()
            .iter()
            .any(|q| q.contains("__agg_r_0")));
    }

    #[test]
    fn free_variable_aggregates_rejected() {
        let f = parse_formula("x in names() and avg(price(x); time = 0; @u) > 70").unwrap();
        assert!(rewrite_aggregates("r", &f).is_err());
    }

    #[test]
    fn distinct_aggregates_get_distinct_registers() {
        let f = parse_formula("sum(price(\"IBM\"); time = 0; @u) > sum(1; time = 0; @u)").unwrap();
        let rw = rewrite_aggregates("r", &f).unwrap();
        assert_eq!(rw.registers.len(), 2);
        assert_ne!(rw.registers[0].item, rw.registers[1].item);
    }
}
