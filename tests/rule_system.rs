//! Cross-crate integration tests of the full rule system: triggers,
//! constraints, aggregates, `executed`, coupling, batching, relevance
//! filtering — driven through the `ActiveDatabase` facade.

use temporal_adb::core::ManagerConfig;
use temporal_adb::prelude::*;

fn stock_adb() -> ActiveDatabase {
    let mut db = Database::new();
    db.create_relation(
        "STOCK",
        Relation::empty(Schema::untyped(&["name", "price"])),
    )
    .unwrap();
    db.define_query(
        "price",
        QueryDef::new(
            1,
            parse_query("select price from STOCK where name = $0").unwrap(),
        ),
    );
    db.define_query(
        "names",
        QueryDef::new(0, parse_query("select name from STOCK").unwrap()),
    );
    ActiveDatabase::new(db)
}

fn set_price(adb: &mut ActiveDatabase, name: &str, p: i64) {
    let old = adb
        .db()
        .relation("STOCK")
        .unwrap()
        .iter()
        .find(|t| t.get(0) == Some(&Value::str(name)))
        .cloned();
    let mut ops = Vec::new();
    if let Some(old) = old {
        ops.push(WriteOp::Delete {
            relation: "STOCK".into(),
            tuple: old,
        });
    }
    ops.push(WriteOp::Insert {
        relation: "STOCK".into(),
        tuple: tuple![name, p],
    });
    adb.advance_clock(1).unwrap();
    adb.update(ops).unwrap();
}

#[test]
fn multi_rule_interaction() {
    // Three rules watching the same ticker fire independently.
    let mut adb = stock_adb();
    adb.add_rule(Rule::trigger(
        "rise",
        parse_formula("[x := price(\"IBM\")] lasttime(price(\"IBM\") < x)").unwrap(),
        Action::Notify,
    ))
    .unwrap();
    adb.add_rule(Rule::trigger(
        "above_100",
        parse_formula("price(\"IBM\") > 100").unwrap(),
        Action::Notify,
    ))
    .unwrap();
    adb.add_rule(Rule::trigger(
        "ever_doubled",
        parse_formula("[x := price(\"IBM\")] previously(price(\"IBM\") <= 0.5 * x)").unwrap(),
        Action::Notify,
    ))
    .unwrap();

    for p in [50, 60, 55, 120, 80] {
        set_price(&mut adb, "IBM", p);
    }
    let count = |name: &str| adb.firings().iter().filter(|f| f.rule == name).count();
    // rise: 50→60 and 55→120 (edge-triggered: 60 fires, 120 fires anew
    // because the 55-state reset the edge).
    assert_eq!(count("rise"), 2);
    assert_eq!(count("above_100"), 1);
    // ever_doubled: first true at 120 (120 ≥ 2·55); stays true but edges once.
    assert_eq!(count("ever_doubled"), 1);
}

#[test]
fn level_triggered_rules_fire_repeatedly() {
    let mut adb = stock_adb();
    adb.add_rule(
        Rule::trigger(
            "high",
            parse_formula("price(\"IBM\") > 100").unwrap(),
            Action::Notify,
        )
        .level_triggered(),
    )
    .unwrap();
    for p in [150, 160, 170] {
        set_price(&mut adb, "IBM", p);
    }
    assert_eq!(
        adb.firings().len(),
        3,
        "level semantics: every satisfying state"
    );
}

#[test]
fn constraint_on_multi_statement_transaction() {
    let mut adb = stock_adb();
    adb.set_item("total", Value::Int(0)).unwrap();
    adb.define_query("total", QueryDef::new(0, Query::item("total")))
        .unwrap();
    adb.add_rule(Rule::constraint(
        "cap",
        parse_formula("total() <= 10").unwrap(),
    ))
    .unwrap();

    // A transaction built op by op; the commit is gated as a whole.
    adb.advance_clock(1).unwrap();
    let txn = adb.begin().unwrap();
    adb.write(
        txn,
        WriteOp::SetItem {
            item: "total".into(),
            value: Value::Int(5),
        },
    )
    .unwrap();
    adb.write(
        txn,
        WriteOp::SetItem {
            item: "total".into(),
            value: Value::Int(25),
        },
    )
    .unwrap();
    assert!(adb.commit(txn).is_err(), "final state 25 > 10");
    assert_eq!(adb.db().item("total").unwrap(), Value::Int(0));

    adb.advance_clock(1).unwrap();
    let txn = adb.begin().unwrap();
    adb.write(
        txn,
        WriteOp::SetItem {
            item: "total".into(),
            value: Value::Int(25),
        },
    )
    .unwrap();
    adb.write(
        txn,
        WriteOp::SetItem {
            item: "total".into(),
            value: Value::Int(7),
        },
    )
    .unwrap();
    adb.commit(txn).unwrap();
    assert_eq!(
        adb.db().item("total").unwrap(),
        Value::Int(7),
        "intermediate 25 is invisible: only the commit state is checked"
    );
}

#[test]
fn relevance_filtering_preserves_firings_for_event_rules() {
    for filtering in [false, true] {
        let mut db = Database::new();
        db.set_item("hits", Value::Int(0));
        db.define_query("hits", QueryDef::new(0, Query::item("hits")));
        let mut adb = ActiveDatabase::with_config(
            db,
            ManagerConfig {
                relevance_filtering: filtering,
                ..Default::default()
            },
        );
        adb.add_rule(Rule::trigger(
            "on_ping",
            parse_formula("@ping(u)").unwrap(),
            Action::Notify,
        ))
        .unwrap();
        adb.advance_clock(1).unwrap();
        adb.emit(Event::new("ping", vec![Value::str("a")])).unwrap();
        adb.emit(Event::simple("noise")).unwrap();
        adb.emit(Event::new("ping", vec![Value::str("b")])).unwrap();
        let users: Vec<String> = adb
            .firings()
            .iter()
            .map(|f| f.env["u"].to_string())
            .collect();
        assert_eq!(users, vec!["\"a\"", "\"b\""], "filtering={filtering}");
        if filtering {
            assert!(adb.stats().skips > 0, "the noise state was skipped");
        }
    }
}

#[test]
fn aggregate_with_start_reset() {
    // Average resets at @open events: avg(price; @open; @sample).
    let mut adb = stock_adb();
    adb.add_rule(Rule::trigger(
        "session_avg_high",
        parse_formula("avg(price(\"IBM\"); @open; @sample) > 100").unwrap(),
        Action::Notify,
    ))
    .unwrap();
    let fired = |adb: &ActiveDatabase| -> Vec<usize> {
        let firings = adb.firings().iter();
        firings.map(|f| f.state_index).collect()
    };
    set_price(&mut adb, "IBM", 200);
    adb.emit(Event::simple("open")).unwrap();
    adb.emit(Event::simple("sample")).unwrap(); // avg = 200: fires at this state
    let sampled = adb.history().last_index().unwrap();
    adb.tick().unwrap();
    assert_eq!(fired(&adb), [sampled]);

    // A new session resets the window; a low sample keeps it below 100.
    set_price(&mut adb, "IBM", 10);
    adb.emit(Event::simple("open")).unwrap();
    adb.emit(Event::simple("sample")).unwrap(); // avg = 10
    adb.tick().unwrap();
    assert_eq!(fired(&adb), [sampled], "no new firing after the reset");
    let rules = adb.snapshot().unwrap().rules;
    let slot = rules[0].evaluator.slots[0].as_ref().unwrap();
    assert_eq!((slot.current(), slot.count()), (Value::float(10.0), 1));
}

#[test]
fn executed_relation_rows_carry_params_and_time() {
    let mut adb = stock_adb();
    adb.add_rule(
        Rule::trigger(
            "spike",
            parse_formula("x in names() and price(x) > 100").unwrap(),
            Action::Notify,
        )
        .recording_executed(),
    )
    .unwrap();
    set_price(&mut adb, "IBM", 150);
    let t = adb.firings()[0].time;
    let rel = adb
        .db()
        .relation(&temporal_adb::core::executed_relation_name("spike"))
        .unwrap();
    assert_eq!(rel.len(), 1);
    assert!(rel.contains(&tuple!["IBM", t]));
}

#[test]
fn composite_action_two_steps_ten_apart() {
    // The Section 7 composite action A = A1; A2 with A2 ten units later.
    let mut adb = stock_adb();
    adb.set_item("a1_done", Value::Int(0)).unwrap();
    adb.set_item("a2_done", Value::Int(0)).unwrap();
    adb.add_rule(
        Rule::trigger(
            "r1",
            parse_formula("price(\"IBM\") > 100").unwrap(),
            Action::DbOps(vec![ActionOp::SetItem {
                item: "a1_done".into(),
                value: Term::lit(1i64),
            }]),
        )
        .recording_executed(),
    )
    .unwrap();
    adb.add_rule(Rule::trigger(
        "r2",
        parse_formula("executed(r1, s) and time = s + 10").unwrap(),
        Action::DbOps(vec![ActionOp::SetItem {
            item: "a2_done".into(),
            value: Term::lit(1i64),
        }]),
    ))
    .unwrap();

    set_price(&mut adb, "IBM", 150);
    assert_eq!(adb.db().item("a1_done").unwrap(), Value::Int(1));
    assert_eq!(adb.db().item("a2_done").unwrap(), Value::Int(0));
    let t0 = adb.now();
    adb.run_until(t0.plus(10), 1).unwrap();
    assert_eq!(adb.db().item("a2_done").unwrap(), Value::Int(1));
}

#[test]
fn batching_preserves_order_of_firings() {
    let mut adb = stock_adb();
    adb.add_rule(Rule::trigger(
        "any_update",
        parse_formula("@ping(k)").unwrap(),
        Action::Notify,
    ))
    .unwrap();
    adb.set_batch(3).unwrap();
    adb.advance_clock(1).unwrap();
    for k in 0..7i64 {
        adb.emit(Event::new("ping", vec![Value::Int(k)])).unwrap();
    }
    adb.flush().unwrap();
    let ks: Vec<i64> = adb
        .firings()
        .iter()
        .map(|f| f.env["k"].as_i64().unwrap())
        .collect();
    assert_eq!(
        ks,
        vec![0, 1, 2, 3, 4, 5, 6],
        "delayed but in order, none lost"
    );
}

#[test]
fn abort_state_is_visible_to_triggers() {
    // A trigger watching transaction_abort events sees gated rollbacks.
    let mut adb = stock_adb();
    adb.set_item("b", Value::Int(0)).unwrap();
    adb.define_query("b", QueryDef::new(0, Query::item("b")))
        .unwrap();
    adb.add_rule(Rule::constraint("pos", parse_formula("b() >= 0").unwrap()))
        .unwrap();
    adb.add_rule(Rule::trigger(
        "abort_watch",
        parse_formula(&format!(
            "@{}(x)",
            temporal_adb::engine::event::names::TXN_ABORT
        ))
        .unwrap(),
        Action::Notify,
    ))
    .unwrap();
    adb.advance_clock(1).unwrap();
    assert!(adb
        .update([WriteOp::SetItem {
            item: "b".into(),
            value: Value::Int(-5)
        }])
        .is_err());
    assert!(adb.firings().iter().any(|f| f.rule == "abort_watch"));
}
