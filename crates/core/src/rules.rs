//! The Condition–Action rule model (Section 3).
//!
//! A rule is a PTL condition plus an action. "The action part of our C-A
//! rules may be a database operation, a program, or it may simply be an
//! abort operation on the current transaction. Furthermore, the action part
//! can refer to some of the free variables referred to in the condition
//! part" — parameter passing.
//!
//! A rule is either a **trigger** or an **integrity constraint**: "an
//! integrity constraint is a rule in which the action is abort(X), and the
//! condition consists of the event `attempts_to_commit(X)` and the negation
//! of the integrity constraint" — [`Rule::constraint`] builds exactly that
//! desugared condition.

use tdb_engine::event::names::ATTEMPTS_TO_COMMIT;
use tdb_ptl::{Env, Formula, Term};
use tdb_relation::{Timestamp, Value};

/// The reserved variable bound to the committing transaction id inside a
/// constraint's desugared condition.
pub const TXN_VAR: &str = "__txn";

/// One database operation inside an action, with term-valued arguments
/// evaluated at firing time (against the current state, under the firing
/// bindings).
#[derive(Debug, Clone, PartialEq)]
pub enum ActionOp {
    /// `item := value` (the paper's `CUM_PRICE := CUM_PRICE + price(IBM)`).
    SetItem { item: String, value: Term },
    /// Insert a tuple built from terms.
    Insert { relation: String, tuple: Vec<Term> },
    /// Delete the tuple built from terms.
    Delete { relation: String, tuple: Vec<Term> },
}

impl ActionOp {
    /// The op's value terms.
    pub(crate) fn terms(&self) -> &[Term] {
        match self {
            ActionOp::SetItem { value, .. } => std::slice::from_ref(value),
            ActionOp::Insert { tuple, .. } | ActionOp::Delete { tuple, .. } => tuple,
        }
    }

    /// The op with `f` applied to each of its value terms.
    pub(crate) fn map_terms(&self, mut f: impl FnMut(&Term) -> Term) -> ActionOp {
        match self {
            ActionOp::SetItem { item, value } => ActionOp::SetItem {
                item: item.clone(),
                value: f(value),
            },
            ActionOp::Insert { relation, tuple } => ActionOp::Insert {
                relation: relation.clone(),
                tuple: tuple.iter().map(f).collect(),
            },
            ActionOp::Delete { relation, tuple } => ActionOp::Delete {
                relation: relation.clone(),
                tuple: tuple.iter().map(f).collect(),
            },
        }
    }
}

/// The action part of a rule. Every action is data: it can be logged,
/// replayed, shipped as rule-file text and linted. The paper's "a program"
/// is a [`Action::DbOps`] list whose term arguments compute the values.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Database operations, run as one (gated) transaction.
    DbOps(Vec<ActionOp>),
    /// Abort the committing transaction — only meaningful for constraints.
    AbortTxn,
    /// Record the firing only (monitoring / notification rules).
    Notify,
}

impl Action {
    /// The database operations the action runs (none for `AbortTxn` and
    /// `Notify`).
    pub(crate) fn ops(&self) -> &[ActionOp] {
        match self {
            Action::DbOps(ops) => ops,
            Action::AbortTxn | Action::Notify => &[],
        }
    }
}

/// Trigger vs integrity constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// Detached (T-CA) rule: condition evaluated on every relevant system
    /// state; action runs as its own transaction.
    Trigger,
    /// TCA rule evaluated at `attempts_to_commit`, as part of the user's
    /// transaction; a firing aborts the transaction.
    Constraint,
}

/// How deep a rule's condition, and each action term, may nest formulas
/// and terms ([`Formula::depth`]). Registration refuses a deeper rule, and
/// a log or checkpoint decoder a deeper definition, so neither a client's
/// frame nor a recovery overflows the stack.
pub const MAX_NESTING: usize = 256;

/// A Condition–Action rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    /// The user-written condition (for constraints: the *constraint* C, not
    /// the desugared firing condition).
    pub condition: Formula,
    /// Ordered parameters passed to the action and recorded in the
    /// `executed` relation; defaults to the condition's free variables.
    pub params: Vec<String>,
    pub action: Action,
    pub kind: RuleKind,
    /// Maintain the `__executed_<name>` relation for this rule even if no
    /// other registered rule references it yet.
    pub record_executed: bool,
    /// Edge-triggered (default): a binding fires when it *newly* satisfies
    /// the condition — i.e. it did not satisfy it at the previous evaluated
    /// state. Level-triggered rules fire at every satisfying state, which
    /// can cascade forever when the rule's own action keeps the condition
    /// true; opt in with [`Rule::level_triggered`].
    pub edge_triggered: bool,
}

impl Rule {
    /// A detached trigger.
    pub fn trigger(name: impl Into<String>, condition: Formula, action: Action) -> Rule {
        let params = condition.free_vars();
        Rule {
            name: name.into(),
            condition,
            params,
            action,
            kind: RuleKind::Trigger,
            record_executed: false,
            edge_triggered: true,
        }
    }

    /// A temporal integrity constraint over the formula `c`: the rule fires
    /// (and aborts the committing transaction) when a transaction attempts
    /// to commit and `c` does NOT hold.
    pub fn constraint(name: impl Into<String>, c: Formula) -> Rule {
        let params = c.free_vars();
        Rule {
            name: name.into(),
            condition: c,
            params,
            action: Action::AbortTxn,
            kind: RuleKind::Constraint,
            record_executed: false,
            edge_triggered: false,
        }
    }

    /// Makes the rule fire at *every* satisfying state instead of only on
    /// rising edges. Use with care: an action that keeps the condition true
    /// will cascade until the facade's cascade limit trips.
    #[must_use]
    pub fn level_triggered(mut self) -> Rule {
        self.edge_triggered = false;
        self
    }

    /// Overrides the action parameter list.
    #[must_use]
    pub fn with_params(mut self, params: Vec<String>) -> Rule {
        self.params = params;
        self
    }

    /// Enables `executed` bookkeeping for this rule.
    #[must_use]
    pub fn recording_executed(mut self) -> Rule {
        self.record_executed = true;
        self
    }

    /// The condition actually evaluated by the rule manager. Triggers use
    /// their condition as written; constraints use the paper's desugaring
    /// `attempts_to_commit(X) ∧ ¬C`.
    pub fn firing_condition(&self) -> Formula {
        match self.kind {
            RuleKind::Trigger => self.condition.clone(),
            RuleKind::Constraint => Formula::and([
                Formula::event(ATTEMPTS_TO_COMMIT, vec![Term::var(TXN_VAR)]),
                Formula::not(self.condition.clone()),
            ]),
        }
    }
}

/// A recorded rule firing.
#[derive(Debug, Clone, PartialEq)]
pub struct FiringRecord {
    pub rule: String,
    /// Global index of the system state at which the condition held.
    pub state_index: usize,
    pub time: Timestamp,
    /// The satisfying assignment of the condition's free variables.
    pub env: Env,
}

impl FiringRecord {
    /// The firing parameters in the rule's declared order (`Null` for
    /// parameters the condition left unbound).
    pub fn params(&self, rule: &Rule) -> Vec<Value> {
        rule.params
            .iter()
            .map(|p| self.env.get(p).cloned().unwrap_or(Value::Null))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_ptl::parse_formula;

    #[test]
    fn trigger_params_default_to_free_vars() {
        let f = parse_formula("x in names() and price(x) > 300").unwrap();
        let r = Rule::trigger("overpriced", f, Action::Notify);
        assert_eq!(r.params, vec!["x".to_string()]);
        assert_eq!(r.firing_condition(), r.condition);
    }

    #[test]
    fn constraint_desugars_per_paper() {
        let c = parse_formula("balance() >= 0").unwrap();
        let r = Rule::constraint("non_negative", c.clone());
        let fc = r.firing_condition();
        match &fc {
            Formula::And(parts) => {
                assert!(
                    matches!(&parts[0], Formula::Event { name, .. } if name == ATTEMPTS_TO_COMMIT)
                );
                assert_eq!(parts[1], Formula::not(c));
            }
            other => panic!("expected and, got {other}"),
        }
        assert_eq!(fc.free_vars(), vec![TXN_VAR.to_string()]);
    }

    #[test]
    fn firing_params_follow_declared_order() {
        let f = parse_formula("x in names() and @login(u)").unwrap();
        let r = Rule::trigger("r", f, Action::Notify).with_params(vec!["u".into(), "x".into()]);
        let mut env = Env::new();
        env.insert("x".into(), Value::str("IBM"));
        env.insert("u".into(), Value::str("alice"));
        let rec = FiringRecord {
            rule: "r".into(),
            state_index: 3,
            time: Timestamp(9),
            env,
        };
        assert_eq!(rec.params(&r), vec![Value::str("alice"), Value::str("IBM")]);
    }
}
