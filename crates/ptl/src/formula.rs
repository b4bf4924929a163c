//! PTL formulas.
//!
//! The logic's operators (Section 4): comparisons of terms, event atoms,
//! membership atoms over database queries (how relations are referenced),
//! the boolean connectives, the basic past temporal operators `Since` and
//! `Lasttime`, the derived operators `Previously` (reflexive "once in the
//! past") and `ThroughoutPast`, and the assignment operator `[x := t] φ`
//! that binds `x` to the value of `t` at the evaluation instant.

use std::fmt;

use tdb_relation::CmpOp;

use crate::term::Term;

/// A reference to a named database query with argument terms — the source
/// of a membership atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryRef {
    pub name: String,
    pub args: Vec<Term>,
}

impl QueryRef {
    pub fn new(name: impl Into<String>, args: Vec<Term>) -> QueryRef {
        QueryRef {
            name: name.into(),
            args,
        }
    }
}

/// A PTL formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    True,
    False,
    /// Comparison of two terms: `t1 θ t2`.
    Cmp(CmpOp, Term, Term),
    /// Membership atom: the tuple of `pattern` terms is a row of the named
    /// query's result at the current state. Variables in the pattern act as
    /// *generators* — this is what makes free variables range-restricted
    /// (safe), the paper's answer to Chomicki's unsafe formulas.
    Member {
        source: QueryRef,
        pattern: Vec<Term>,
    },
    /// Event atom: an event with this name and matching arguments occurs in
    /// the current state. Pattern variables bind to event arguments.
    Event {
        name: String,
        pattern: Vec<Term>,
    },
    Not(Box<Formula>),
    And(Vec<Formula>),
    Or(Vec<Formula>),
    /// `g Since h`: h held at some past-or-present state, and g has held at
    /// every state since (exclusive of that state, inclusive of now).
    Since(Box<Formula>, Box<Formula>),
    /// `Lasttime g`: g held at the immediately preceding state.
    Lasttime(Box<Formula>),
    /// `Previously g` (a.k.a. *Once*): g held at some state ≤ now.
    /// Derived: `true Since g`.
    Previously(Box<Formula>),
    /// `ThroughoutPast g`: g held at every state ≤ now.
    /// Derived: `¬ Previously ¬g`.
    ThroughoutPast(Box<Formula>),
    /// The assignment operator `[var := term] body`.
    Assign {
        var: String,
        term: Term,
        body: Box<Formula>,
    },
}

impl Formula {
    pub fn cmp(op: CmpOp, a: Term, b: Term) -> Formula {
        Formula::Cmp(op, a, b)
    }

    pub fn event(name: impl Into<String>, pattern: Vec<Term>) -> Formula {
        Formula::Event {
            name: name.into(),
            pattern,
        }
    }

    pub fn member(source: QueryRef, pattern: Vec<Term>) -> Formula {
        Formula::Member { source, pattern }
    }

    /// Builder named for the logic's connective, not `std::ops::Not`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    pub fn and(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut v: Vec<Formula> = fs.into_iter().collect();
        match v.len() {
            0 | 1 => v.pop().unwrap_or(Formula::True),
            _ => Formula::And(v),
        }
    }

    pub fn or(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut v: Vec<Formula> = fs.into_iter().collect();
        match v.len() {
            0 | 1 => v.pop().unwrap_or(Formula::False),
            _ => Formula::Or(v),
        }
    }

    pub fn since(g: Formula, h: Formula) -> Formula {
        Formula::Since(Box::new(g), Box::new(h))
    }

    pub fn lasttime(g: Formula) -> Formula {
        Formula::Lasttime(Box::new(g))
    }

    pub fn previously(g: Formula) -> Formula {
        Formula::Previously(Box::new(g))
    }

    pub fn throughout_past(g: Formula) -> Formula {
        Formula::ThroughoutPast(Box::new(g))
    }

    pub fn assign(var: impl Into<String>, term: Term, body: Formula) -> Formula {
        Formula::Assign {
            var: var.into(),
            term,
            body: Box::new(body),
        }
    }

    /// Free variables, in first-occurrence order. A variable is free if it
    /// occurs outside the scope of an assignment binding it.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_free_vars_into(&mut out);
        out
    }

    /// Appends free variables not already present (first-occurrence order).
    pub fn collect_free_vars_into(&self, out: &mut Vec<String>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Cmp(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Formula::Member { source, pattern } => {
                for t in &source.args {
                    t.collect_vars(out);
                }
                for t in pattern {
                    t.collect_vars(out);
                }
            }
            Formula::Event { pattern, .. } => {
                for t in pattern {
                    t.collect_vars(out);
                }
            }
            Formula::Not(g)
            | Formula::Lasttime(g)
            | Formula::Previously(g)
            | Formula::ThroughoutPast(g) => g.collect_free_vars_into(out),
            Formula::And(gs) | Formula::Or(gs) => {
                for g in gs {
                    g.collect_free_vars_into(out);
                }
            }
            Formula::Since(g, h) => {
                g.collect_free_vars_into(out);
                h.collect_free_vars_into(out);
            }
            Formula::Assign { var, term, body } => {
                term.collect_vars(out);
                let mut inner = Vec::new();
                body.collect_free_vars_into(&mut inner);
                for v in inner {
                    if v != *var && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
    }

    /// Variables bound by assignment operators anywhere in the formula.
    pub fn assigned_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |f| {
            if let Formula::Assign { var, .. } = f {
                out.push(var.clone());
            }
        });
        out
    }

    /// True if the formula is closed (no free variables).
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// True if the formula contains any temporal operator (including inside
    /// assignment bodies). Atom-only formulas can skip history machinery.
    pub fn is_temporal(&self) -> bool {
        let mut found = false;
        self.visit(&mut |f| {
            if matches!(
                f,
                Formula::Since(..)
                    | Formula::Lasttime(..)
                    | Formula::Previously(..)
                    | Formula::ThroughoutPast(..)
            ) {
                found = true;
            }
        });
        found
    }

    /// Names of events the formula references, inside aggregate sampling
    /// and starting formulas too (for relevance filtering).
    pub fn event_names(&self) -> Vec<String> {
        self.names(true)
    }

    /// Names of queries the formula references — through membership atoms,
    /// query terms and aggregate queries (for relevance filtering).
    pub fn query_names(&self) -> Vec<String> {
        self.names(false)
    }

    /// The event (`events`) or query names the formula references, in
    /// first-occurrence order, aggregate sub-formulas included.
    fn names(&self, events: bool) -> Vec<String> {
        fn add(out: &mut Vec<String>, n: &str) {
            if !out.iter().any(|m| m == n) {
                out.push(n.to_string());
            }
        }
        // An aggregate's formulas are visited on their own.
        fn queries(t: &Term, out: &mut Vec<String>) {
            match t {
                Term::Query { name, args } => {
                    add(out, name);
                    args.iter().for_each(|a| queries(a, out));
                }
                Term::Agg(agg) => queries(&agg.query, out),
                Term::Arith(_, a, b) => {
                    queries(a, out);
                    queries(b, out);
                }
                Term::Neg(a) | Term::Abs(a) => queries(a, out),
                Term::Const(_) | Term::Var(_) | Term::Time => {}
            }
        }
        let mut out = Vec::new();
        self.visit(&mut |f| match f {
            Formula::Event { name, .. } if events => add(&mut out, name),
            _ if events => {}
            Formula::Cmp(_, a, b) => [a, b].into_iter().for_each(|t| queries(t, &mut out)),
            Formula::Member { source, pattern } => {
                add(&mut out, &source.name);
                source
                    .args
                    .iter()
                    .chain(pattern)
                    .for_each(|t| queries(t, &mut out));
            }
            Formula::Event { pattern, .. } => pattern.iter().for_each(|t| queries(t, &mut out)),
            Formula::Assign { term, .. } => queries(term, &mut out),
            _ => {}
        });
        out
    }

    /// Visits every subformula, top-down — the starting and sampling
    /// formulas of aggregates inside its terms too.
    pub fn visit(&self, f: &mut impl FnMut(&Formula)) {
        fn terms(t: &Term, f: &mut impl FnMut(&Formula)) {
            match t {
                Term::Agg(agg) => {
                    terms(&agg.query, f);
                    agg.start.visit(f);
                    agg.sample.visit(f);
                }
                Term::Arith(_, a, b) => {
                    terms(a, f);
                    terms(b, f);
                }
                Term::Neg(a) | Term::Abs(a) => terms(a, f),
                Term::Query { args, .. } => args.iter().for_each(|a| terms(a, f)),
                Term::Const(_) | Term::Var(_) | Term::Time => {}
            }
        }
        f(self);
        match self {
            Formula::True | Formula::False => {}
            Formula::Cmp(_, a, b) => {
                terms(a, f);
                terms(b, f);
            }
            Formula::Member { source, pattern } => {
                source.args.iter().chain(pattern).for_each(|t| terms(t, f));
            }
            Formula::Event { pattern, .. } => pattern.iter().for_each(|t| terms(t, f)),
            Formula::Not(g)
            | Formula::Lasttime(g)
            | Formula::Previously(g)
            | Formula::ThroughoutPast(g) => g.visit(f),
            Formula::And(gs) | Formula::Or(gs) => gs.iter().for_each(|g| g.visit(f)),
            Formula::Since(g, h) => {
                g.visit(f);
                h.visit(f);
            }
            Formula::Assign { term, body, .. } => {
                terms(term, f);
                body.visit(f);
            }
        }
    }

    /// The most formulas and terms on one path down from this formula,
    /// itself included.
    pub fn depth(&self) -> usize {
        let terms = |ts: &[Term]| ts.iter().map(Term::depth).max().unwrap_or(0);
        1 + match self {
            Formula::True | Formula::False => 0,
            Formula::Cmp(_, a, b) => a.depth().max(b.depth()),
            Formula::Member { source, pattern } => terms(&source.args).max(terms(pattern)),
            Formula::Event { pattern, .. } => terms(pattern),
            Formula::Not(g)
            | Formula::Lasttime(g)
            | Formula::Previously(g)
            | Formula::ThroughoutPast(g) => g.depth(),
            Formula::And(gs) | Formula::Or(gs) => gs.iter().map(Formula::depth).max().unwrap_or(0),
            Formula::Since(g, h) => g.depth().max(h.depth()),
            Formula::Assign { term, body, .. } => term.depth().max(body.depth()),
        }
    }

    /// Number of subformula nodes (a size measure used by the experiments).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Cmp(op, a, b) => write!(f, "{a} {} {b}", op.symbol()),
            Formula::Member { source, pattern } => {
                if pattern.len() == 1 {
                    write!(f, "{} in ", pattern[0])?;
                } else {
                    write!(f, "(")?;
                    for (i, t) in pattern.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    write!(f, ") in ")?;
                }
                write!(f, "{}(", source.name)?;
                for (i, a) in source.args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Formula::Event { name, pattern } => {
                write!(f, "@{name}")?;
                if !pattern.is_empty() {
                    write!(f, "(")?;
                    for (i, t) in pattern.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Formula::Not(g) => write!(f, "not ({g})"),
            Formula::And(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Formula::Or(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Formula::Since(g, h) => write!(f, "({g} since {h})"),
            Formula::Lasttime(g) => write!(f, "lasttime ({g})"),
            Formula::Previously(g) => write!(f, "previously ({g})"),
            Formula::ThroughoutPast(g) => write!(f, "throughout_past ({g})"),
            // Self-parenthesized: the parser gives assignment the loosest
            // binding (its body extends rightward), so a bare rendering
            // inside a connective would swallow the rest of the formula.
            Formula::Assign { var, term, body } => write!(f, "([{var} := {term}] {body})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_relation::Value;

    /// The paper's running example: the IBM price doubled within 10 units.
    fn ibm_doubled() -> Formula {
        let price = || Term::query("price", vec![Term::lit("IBM")]);
        Formula::assign(
            "t",
            Term::Time,
            Formula::assign(
                "x",
                price(),
                Formula::previously(Formula::and([
                    Formula::cmp(
                        CmpOp::Le,
                        price(),
                        Term::mul(Term::lit(0.5), Term::var("x")),
                    ),
                    Formula::cmp(
                        CmpOp::Ge,
                        Term::Time,
                        Term::sub(Term::var("t"), Term::lit(10i64)),
                    ),
                ])),
            ),
        )
    }

    #[test]
    fn ibm_formula_is_closed_and_temporal() {
        let f = ibm_doubled();
        assert!(f.is_closed());
        assert!(f.is_temporal());
        assert_eq!(f.assigned_vars(), vec!["t".to_string(), "x".into()]);
        assert_eq!(f.query_names(), vec!["price".to_string()]);
    }

    #[test]
    fn free_vars_respect_assignment_scope() {
        // [x := price(y)] (x > z) — y and z free, x bound.
        let f = Formula::assign(
            "x",
            Term::query("price", vec![Term::var("y")]),
            Formula::cmp(CmpOp::Gt, Term::var("x"), Term::var("z")),
        );
        assert_eq!(f.free_vars(), vec!["y".to_string(), "z".into()]);
    }

    #[test]
    fn event_and_member_vars_are_free() {
        let f = Formula::and([
            Formula::event("login", vec![Term::var("u")]),
            Formula::member(QueryRef::new("names", vec![]), vec![Term::var("s")]),
        ]);
        assert_eq!(f.free_vars(), vec!["u".to_string(), "s".into()]);
        assert_eq!(f.event_names(), vec!["login".to_string()]);
        assert_eq!(f.query_names(), vec!["names".to_string()]);
    }

    #[test]
    fn and_or_collapse_trivial_cases() {
        assert_eq!(Formula::and([]), Formula::True);
        assert_eq!(Formula::or([]), Formula::False);
        assert_eq!(Formula::and([Formula::True]), Formula::True);
    }

    #[test]
    fn size_counts_nodes() {
        let f = Formula::and([Formula::True, Formula::not(Formula::False)]);
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn display_roundtrips_visually() {
        let f = Formula::since(
            Formula::not(Formula::event("logout", vec![Term::lit(Value::str("X"))])),
            Formula::event("login", vec![Term::lit(Value::str("X"))]),
        );
        assert_eq!(f.to_string(), "(not (@logout(\"X\")) since @login(\"X\"))");
    }
}
