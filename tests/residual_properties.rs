//! Property tests for the residual-formula algebra: the smart constructors
//! preserve semantics under substitution, and the Section 5 pruning is
//! sound for monotone clock substitutions.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use temporal_adb::core::residual::{Env, Junction, PTerm, Residual};
use temporal_adb::core::EvalContext;
use temporal_adb::relation::{ArithOp, CmpOp, Timestamp, Value};

/// The one context every residual in this file is built in (strategies
/// and test bodies must agree on it for the pointer-identity properties).
fn cx() -> &'static EvalContext {
    static CX: OnceLock<EvalContext> = OnceLock::new();
    CX.get_or_init(EvalContext::new)
}

/// A small symbolic term over variables x, y and the time variable t.
fn pterm_strategy() -> impl Strategy<Value = Arc<PTerm>> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(PTerm::val),
        Just(PTerm::var("x")),
        Just(PTerm::var("y")),
        Just(PTerm::var("t")),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (inner.clone(), inner.clone(), 0usize..3).prop_map(|(a, b, op)| {
            let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul][op];
            PTerm::arith(op, a, b).unwrap_or_else(|_| PTerm::val(0i64))
        })
    })
}

fn cmp_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Ge),
        Just(CmpOp::Gt),
    ]
}

fn residual_strategy() -> impl Strategy<Value = Arc<Residual>> {
    let atom = (cmp_strategy(), pterm_strategy(), pterm_strategy())
        .prop_map(|(op, a, b)| cx().rcmp(op, a, b).unwrap_or_else(|_| cx().rfalse()));
    atom.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|r| cx().rnot(r)),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(|rs| cx().rand(rs)),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(|rs| cx().ror(rs)),
        ]
    })
}

/// A kernel child: a constant, or a residual the constructors built.
fn child_strategy() -> impl Strategy<Value = Arc<Residual>> {
    prop_oneof![Just(cx().rtrue()), Just(cx().rfalse()), residual_strategy()]
}

fn env(x: i64, y: i64, t: i64) -> Env {
    let mut e = Env::new();
    e.insert("x".into(), Value::Int(x));
    e.insert("y".into(), Value::Int(y));
    e.insert("t".into(), Value::Time(Timestamp(t)));
    e
}

/// Ground truth: evaluate a residual under a full environment by
/// substituting everything (the constructors fold ground formulas).
fn eval_full(r: &Arc<Residual>, e: &Env) -> Option<bool> {
    match *cx().subst_env(r, e).ok()? {
        Residual::True => Some(true),
        Residual::False => Some(false),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Substitution in any order gives the same verdict.
    #[test]
    fn substitution_order_is_irrelevant(
        r in residual_strategy(),
        x in -20i64..20, y in -20i64..20, t in 0i64..40,
    ) {
        let full = env(x, y, t);
        let via_x_first = cx().subst_env(&r, &full).ok().map(|s| (*s).clone());
        // Reverse order.
        let mut rev = Env::new();
        for (k, v) in full.iter().rev() {
            rev.insert(k.clone(), v.clone());
        }
        let via_rev = cx().subst_env(&r, &rev).ok().map(|s| (*s).clone());
        prop_assert_eq!(via_x_first, via_rev);
    }

    /// Every binding returned by `solve` actually satisfies the residual.
    #[test]
    fn solve_is_sound(r in residual_strategy()) {
        if let Ok(solutions) = cx().solve(&r) {
            for env in solutions {
                // Extend with arbitrary values for unmentioned variables:
                // the solution must hold regardless.
                let mut full = env.clone();
                for v in ["x", "y", "t"] {
                    full.entry(v.into()).or_insert(Value::Int(7));
                }
                prop_assert_eq!(
                    eval_full(&r, &full),
                    Some(true),
                    "solution {:?} does not satisfy {}",
                    env, r
                );
            }
        }
    }

    /// Pruning with time threshold `now` preserves the verdict for every
    /// substitution whose t is strictly greater than `now` (which is how
    /// the evaluator uses it).
    #[test]
    fn pruning_is_sound_for_future_clocks(
        r in residual_strategy(),
        x in -20i64..20, y in -20i64..20,
        now in 0i64..30,
        ahead in 1i64..10,
    ) {
        let tv: BTreeSet<String> = ["t".to_string()].into();
        let pruned = cx().prune_time(&r, Timestamp(now), &tv);
        let e = env(x, y, now + ahead);
        prop_assert_eq!(
            eval_full(&r, &e),
            eval_full(&pruned, &e),
            "pruned {} vs original {} at t={}",
            pruned, r, now + ahead
        );
    }

    /// Deciding constants before the arena changes nothing: `junction`
    /// returns the very node `rand`/`ror` build on the same children, and
    /// a `Since` step the one `ror([h, rand([g, prev])])` builds.
    #[test]
    fn junction_is_the_constructors_answer(
        children in proptest::collection::vec(child_strategy(), 0..4),
        g in child_strategy(), h in child_strategy(), prev in child_strategy(),
    ) {
        let and = cx().junction(&children, Junction::And);
        let or = cx().junction(&children, Junction::Or);
        prop_assert!(Arc::ptr_eq(&and, &cx().rand(children.clone())), "and: {}", and);
        prop_assert!(Arc::ptr_eq(&or, &cx().ror(children.clone())), "or: {}", or);
        let step = cx().ror([h.clone(), cx().rand([g.clone(), prev.clone()])]);
        prop_assert!(Arc::ptr_eq(&cx().since(&g, &h, &prev), &step), "since: {}", step);
    }

    /// The boolean constructors satisfy De Morgan-style laws under full
    /// substitution.
    #[test]
    fn constructors_respect_boolean_semantics(
        a in residual_strategy(),
        b in residual_strategy(),
        x in -20i64..20, y in -20i64..20, t in 0i64..40,
    ) {
        let e = env(x, y, t);
        let (va, vb) = (eval_full(&a, &e), eval_full(&b, &e));
        if let (Some(va), Some(vb)) = (va, vb) {
            prop_assert_eq!(eval_full(&cx().rand([a.clone(), b.clone()]), &e), Some(va && vb));
            prop_assert_eq!(eval_full(&cx().ror([a.clone(), b.clone()]), &e), Some(va || vb));
            prop_assert_eq!(eval_full(&cx().rnot(a.clone()), &e), Some(!va));
        }
    }
}

// ===== hash-consing: structurally equal residuals share one node =============

mod interning {
    use std::sync::Arc;

    use proptest::prelude::*;
    use temporal_adb::core::residual::{PTerm, Residual};
    use temporal_adb::core::EvalContext;
    use temporal_adb::relation::CmpOp;

    use super::cx;

    /// A symbolic comparison that cannot fold to a constant.
    fn atom(var: &str, k: i64) -> Arc<Residual> {
        cx().rcmp(CmpOp::Gt, PTerm::var(var), PTerm::val(k))
            .unwrap()
    }

    #[test]
    fn equal_constructions_are_pointer_equal() {
        let a1 = atom("x", 3);
        let a2 = atom("x", 3);
        assert!(Arc::ptr_eq(&a1, &a2), "equal atoms must share one node");
        assert!(!Arc::ptr_eq(&a1, &atom("x", 4)));
        assert!(!Arc::ptr_eq(&a1, &atom("y", 3)));

        let c1 = cx().rand([atom("x", 3), atom("y", 1)]);
        let c2 = cx().rand([atom("y", 1), atom("x", 3)]); // rand sorts children
        assert!(Arc::ptr_eq(&c1, &c2), "And nodes must unify");

        let d1 = cx().ror([c1.clone(), cx().rnot(atom("x", 0))]);
        let d2 = cx().ror([cx().rnot(atom("x", 0)), c2]);
        assert!(Arc::ptr_eq(&d1, &d2), "Or nodes must unify");
    }

    #[test]
    fn foreign_trees_reintern_to_canonical_nodes() {
        // x > y is not linearizable, so the constructor keeps a Cmp node
        // and we can reproduce the exact structure by hand.
        let canonical = cx().rnot(
            cx().rcmp(CmpOp::Gt, PTerm::var("x"), PTerm::var("y"))
                .unwrap(),
        );
        let foreign = Arc::new(Residual::Not(Arc::new(Residual::Cmp(
            CmpOp::Gt,
            PTerm::var("x"),
            PTerm::var("y"),
        ))));
        assert!(!Arc::ptr_eq(&canonical, &foreign));
        let reinterned = cx().intern_arc(&foreign);
        assert!(
            Arc::ptr_eq(&canonical, &reinterned),
            "intern_arc must map a foreign copy onto the canonical node"
        );
        // Idempotent and O(1) on already-canonical nodes.
        assert!(Arc::ptr_eq(&reinterned, &cx().intern_arc(&reinterned)));

        // Another context's canonical node is just as foreign: nothing is
        // shared between contexts, and each maps the other's nodes onto
        // its own.
        let other = EvalContext::new();
        let theirs = other.intern_arc(&canonical);
        assert!(!Arc::ptr_eq(&canonical, &theirs));
        assert_eq!(canonical, theirs);
        assert!(Arc::ptr_eq(&canonical, &cx().intern_arc(&theirs)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any residual built by the constructors re-interns to itself:
        /// the arena holds exactly one node per structure.
        #[test]
        fn constructed_residuals_are_canonical(r in super::residual_strategy()) {
            prop_assert!(Arc::ptr_eq(&r, &cx().intern_arc(&r)));
        }
    }
}
