//! Stock monitor: temporal aggregates and temporal actions.
//!
//! The scenario from the paper's introduction and Sections 6–7:
//!
//! * a moving-average rule — "the hourly average of the IBM stock price has
//!   remained above 70" — maintained incrementally as an accumulator slot
//!   of the rule's evaluator (Section 6.1.1's registers as formula state);
//! * a crash detector — "the Dow Jones fell more than 250 points in the
//!   last 2 hours";
//! * a temporal action — when the IBM price drops below 60, "execute the
//!   BUY-STOCK transaction every 10 minutes (in order to prevent driving up
//!   the stock-price), as long as…" for the next hour, programmed with the
//!   `executed` predicate (Section 7).
//!
//! ```text
//! cargo run --example stock_monitor
//! ```

use temporal_adb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    db.create_relation(
        "STOCK",
        Relation::empty(Schema::untyped(&["name", "price"])),
    )?;
    db.define_query(
        "price",
        QueryDef::new(1, parse_query("select price from STOCK where name = $0")?),
    );
    db.set_item("dow", Value::Int(10_000));
    db.define_query("dow", QueryDef::new(0, Query::item("dow")));
    db.set_item("shares_bought", Value::Int(0));
    db.define_query("shares", QueryDef::new(0, Query::item("shares_bought")));

    let mut adb = ActiveDatabase::new(db);

    // Rule 1: hourly average of IBM above 70, sampled at update events.
    adb.add_rule(Rule::trigger(
        "avg_high",
        parse_formula("avg(price(\"IBM\"); time = 0; @update_stocks) > 70")?,
        Action::Notify,
    ))?;

    // Rule 2: the Dow fell more than 250 points within 120 minutes.
    adb.add_rule(Rule::trigger(
        "dow_crash",
        parse_formula(
            "[t := time] [d := dow()] \
             previously(dow() >= d + 250 and time >= t - 120)",
        )?,
        Action::Notify,
    ))?;

    // Rule 3 (C of Section 7): IBM below 60 — recorded so rule 4 can see it.
    adb.add_rule(
        Rule::trigger(
            "cheap_ibm",
            parse_formula("price(\"IBM\") < 60")?,
            Action::Notify,
        )
        .recording_executed(),
    )?;

    // Rule 4 (A of Section 7): buy 50 shares every 10 minutes for an hour
    // after cheap_ibm executed, as long as the price stays below 60.
    adb.add_rule(Rule::trigger(
        "buy_ibm",
        parse_formula(
            "executed(cheap_ibm, s) and time - s > 0 and time - s <= 60 \
             and (time - s) % 10 = 0 and price(\"IBM\") < 60",
        )?,
        Action::DbOps(vec![ActionOp::SetItem {
            item: "shares_bought".into(),
            value: Term::add(Term::query("shares", vec![]), Term::lit(50i64)),
        }]),
    ))?;

    // ---- drive a trading session --------------------------------------------
    let prices = [
        (0i64, 80i64, 10_000i64),
        (30, 85, 10_050),
        (60, 90, 9_900),
        (90, 55, 9_700), // IBM drops below 60 → buying program starts
        (150, 58, 9_730),
        (180, 75, 9_600), // dow has fallen 450 in 120 min at some point
    ];
    for (t, ibm, dow) in prices {
        while adb.now() < Timestamp(t) {
            // March minute by minute so timer rules see every instant.
            adb.advance_clock(1)?;
            adb.tick()?;
        }
        let old = adb
            .db()
            .relation("STOCK")?
            .iter()
            .find(|r| r.get(0) == Some(&Value::str("IBM")))
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
            tuple: tuple!["IBM", ibm],
        });
        ops.push(WriteOp::SetItem {
            item: "dow".into(),
            value: Value::Int(dow),
        });
        adb.update(ops)?;
        adb.emit(Event::simple("update_stocks"))?;
        println!("t={t:>3}  IBM={ibm:>3}  DOW={dow}");
    }
    // Let the buying program run out (one hour past the drop).
    while adb.now() < Timestamp(160) {
        adb.advance_clock(1)?;
        adb.tick()?;
    }

    println!("\nfirings:");
    for f in adb.firings() {
        println!("  {:>10}  rule={}", f.time.to_string(), f.rule);
    }
    let bought = adb.db().item("shares_bought")?;
    println!("\nshares bought by the temporal action: {bought}");
    assert!(adb.firings().iter().any(|f| f.rule == "avg_high"));
    assert!(adb.firings().iter().any(|f| f.rule == "cheap_ibm"));
    assert!(
        bought.as_i64().unwrap_or(0) >= 100,
        "the bot bought in several rounds"
    );
    Ok(())
}
