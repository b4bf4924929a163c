//! Property test: the PTL pretty-printer and parser are mutual inverses —
//! `parse(display(f)) == f` for every formula the generator produces
//! (modulo the core-form rewriting both sides share). A rule's log
//! encoding reads back as the same rule, constants the text cannot spell
//! included, and registers to the same evaluator state.

use proptest::prelude::*;

use temporal_adb::core::RuleState;
use temporal_adb::prelude::*;
use temporal_adb::relation::{AggFunc, CmpOp, Timestamp};
use temporal_adb::storage::codec::{get_rule, put_rule, Dec, Enc};

fn term_strategy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(Term::lit),
        Just(Term::Time),
        "[a-z][a-z0-9]{0,3}".prop_map(Term::var),
        ("[A-Z]{2,4}", any::<bool>()).prop_map(|(name, with_arg)| {
            if with_arg {
                Term::query("price", vec![Term::Const(Value::str(name))])
            } else {
                Term::query("names", vec![])
            }
        }),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::sub(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::mul(a, b)),
            inner.clone().prop_map(|a| Term::Abs(Box::new(a))),
        ]
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

fn formula_strategy() -> impl Strategy<Value = Formula> {
    let atom = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        (cmp_strategy(), term_strategy(), term_strategy())
            .prop_map(|(op, a, b)| Formula::cmp(op, a, b)),
        "[a-z][a-z0-9]{0,3}".prop_map(|e| Formula::event(e, vec![])),
        ("[a-z][a-z0-9]{0,3}", "[a-z][a-z]{0,2}")
            .prop_map(|(e, v)| { Formula::event(e, vec![Term::var(v)]) }),
    ];
    atom.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::And(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::Or(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::since(a, b)),
            inner.clone().prop_map(Formula::lasttime),
            inner.clone().prop_map(Formula::previously),
            inner.clone().prop_map(Formula::throughout_past),
            ("[a-z][a-z]{0,2}", term_strategy(), inner.clone())
                .prop_map(|(v, t, body)| Formula::assign(v, t, body)),
        ]
    })
}

/// A constant PTL text does not spell back: a timestamp, or a string
/// holding quotes, backslashes or non-ASCII text.
fn odd_const_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        any::<i64>().prop_map(|t| Term::Const(Value::Time(Timestamp(t)))),
        "[a-zé☃\"'\\\\]{0,4}".prop_map(|s| Term::Const(Value::str(s))),
    ]
}

/// An action term: a plain term, an odd constant, or a temporal aggregate
/// over a term.
fn action_term_strategy() -> impl Strategy<Value = Term> {
    let func = prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::Sum),
        Just(AggFunc::Avg),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
        Just(AggFunc::Last),
    ];
    let agg = (
        func,
        term_strategy(),
        formula_strategy(),
        formula_strategy(),
    )
        .prop_map(|(func, q, start, sample)| Term::agg(func, q, start, sample));
    prop_oneof![term_strategy(), odd_const_strategy(), agg]
}

fn action_op_strategy() -> impl Strategy<Value = ActionOp> {
    let tuple = || collection::vec(action_term_strategy(), 0..3);
    prop_oneof![
        ("[a-z][a-z0-9]{0,3}", action_term_strategy())
            .prop_map(|(item, value)| ActionOp::SetItem { item, value }),
        ("[a-z][a-z0-9]{0,3}", tuple())
            .prop_map(|(relation, tuple)| ActionOp::Insert { relation, tuple }),
        ("[a-z][a-z0-9]{0,3}", tuple())
            .prop_map(|(relation, tuple)| ActionOp::Delete { relation, tuple }),
    ]
}

/// Triggers (notify or database actions) and constraints, edge- or
/// level-triggered, recording or not, with their params in an explicit
/// order, and their conditions sometimes comparing against an odd
/// constant.
fn rule_strategy() -> impl Strategy<Value = Rule> {
    let shape = (0u8..3, any::<bool>(), any::<bool>(), any::<bool>());
    let ops = collection::vec(action_op_strategy(), 0..3);
    let odd = prop_oneof![Just(None), odd_const_strategy().prop_map(Some)];
    let condition = (formula_strategy(), odd).prop_map(|(f, odd)| match odd {
        Some(c) => Formula::and([f, Formula::cmp(CmpOp::Ne, Term::query("names", vec![]), c)]),
        None => f,
    });
    ("[a-z][a-z0-9_]{0,5}", condition, ops, shape).prop_map(
        |(name, condition, ops, (kind, level, recording, reorder))| {
            let mut rule = match kind {
                0 => Rule::constraint(name, condition),
                1 => Rule::trigger(name, condition, Action::Notify),
                _ => Rule::trigger(name, condition, Action::DbOps(ops)),
            };
            if level {
                rule = rule.level_triggered();
            }
            if recording {
                rule = rule.recording_executed();
            }
            if reorder {
                let mut params = rule.params.clone();
                params.reverse();
                params.push("unbound".into());
                rule = rule.with_params(params);
            }
            rule
        },
    )
}

/// A database the generated queries resolve against.
fn registration_db() -> Database {
    let mut db = Database::new();
    db.set_item("n", Value::Int(3));
    db.define_query("names", QueryDef::new(0, parse_query("item n").unwrap()));
    db.define_query("price", QueryDef::new(1, parse_query("item n").unwrap()));
    db
}

/// What registering `rule` and running two states leaves: the rules'
/// exported evaluator states, or the error. A level-triggered writer
/// cascades; a short cascade limit keeps that to a few states.
fn registered_state(rule: Rule) -> Result<Vec<RuleState>, String> {
    let mut adb = ActiveDatabase::new(registration_db());
    adb.set_cascade_limit(4).map_err(|e| e.to_string())?;
    adb.add_rule(rule).map_err(|e| e.to_string())?;
    adb.advance_clock(1).map_err(|e| e.to_string())?;
    adb.tick().map_err(|e| e.to_string())?;
    Ok(adb.snapshot().map_err(|e| e.to_string())?.rules)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rule_encoding_reads_back_and_registers_alike(r in rule_strategy()) {
        let mut e = Enc::new();
        put_rule(&mut e, &r);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = get_rule(&mut d).unwrap_or_else(|err| panic!("{r:?} did not decode: {err}"));
        d.finish("rule").unwrap();
        prop_assert_eq!(&back, &r);
        prop_assert_eq!(registered_state(back), registered_state(r));
    }

    #[test]
    fn display_then_parse_is_identity(f in formula_strategy()) {
        let text = f.to_string();
        let parsed = parse_formula(&text)
            .unwrap_or_else(|e| panic!("reparse failed on `{text}`: {e}"));
        prop_assert_eq!(&parsed, &f, "text was `{}`", text);
    }

    #[test]
    fn term_display_then_parse_is_identity(t in term_strategy()) {
        let text = t.to_string();
        let parsed = parse_term(&text)
            .unwrap_or_else(|e| panic!("reparse failed on `{text}`: {e}"));
        prop_assert_eq!(&parsed, &t, "text was `{}`", text);
    }

    /// Core-form rewriting preserves free variables and referenced names.
    #[test]
    fn core_rewrite_preserves_interface(f in formula_strategy()) {
        let core = temporal_adb::ptl::to_core(&f);
        prop_assert_eq!(core.free_vars(), f.free_vars());
        prop_assert_eq!(core.event_names(), f.event_names());
        prop_assert_eq!(core.query_names(), f.query_names());
    }
}

/// String constants read back through their text: non-ASCII text, both
/// quote kinds and backslashes; the lexer also reads either quote style.
#[test]
fn string_constants_display_then_parse_is_identity() {
    for s in [
        "Zürich",
        "☃ snow",
        "say \"hi\"",
        "it's",
        "C:\\tmp\\",
        "\\\"'é",
    ] {
        let f = Formula::cmp(
            CmpOp::Eq,
            Term::query("city", vec![]),
            Term::Const(Value::str(s)),
        );
        let text = f.to_string();
        assert_eq!(parse_formula(&text).unwrap(), f, "text was `{text}`");
    }
    assert_eq!(
        parse_term("'Zürich'").unwrap(),
        Term::Const(Value::str("Zürich"))
    );
    assert_eq!(
        parse_term(r#"'a\'b"c'"#).unwrap(),
        Term::Const(Value::str("a'b\"c"))
    );
}
