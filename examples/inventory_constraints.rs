//! Inventory: temporal integrity constraints and the valid-time model.
//!
//! Part 1 (transaction time): two constraints gate every commit —
//!
//! * stock level never negative (classic static constraint);
//! * stock never drops by more than 40 units in a single transaction
//!   (a genuinely *temporal* constraint using `lasttime`).
//!
//! Violating transactions are aborted; the database never passes through a
//! bad state.
//!
//! Part 2 (valid time, Section 9): deliveries are posted late — a shipment
//! that arrived at 14:00 is entered at 14:07. A backdated delivery changes
//! what was true in the past; online and offline readings of the constraint
//! disagree, and a tentative trigger retroactively fires.
//!
//! ```text
//! cargo run --example inventory_constraints
//! ```

use temporal_adb::core::{offline_satisfied, online_satisfied, VtActiveDatabase};
use temporal_adb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    transaction_time_part()?;
    valid_time_part()?;
    Ok(())
}

fn transaction_time_part() -> Result<(), Box<dyn std::error::Error>> {
    println!("== transaction time: gated commits ==");
    let mut db = Database::new();
    db.set_item("stock", Value::Int(100));
    db.define_query("stock", QueryDef::new(0, Query::item("stock")));
    let mut adb = ActiveDatabase::new(db);

    adb.add_rule(Rule::constraint(
        "non_negative",
        parse_formula("stock() >= 0")?,
    ))?;
    adb.add_rule(Rule::constraint(
        "no_bulk_drain",
        parse_formula("[x := stock()] not lasttime(stock() > x + 40)")?,
    ))?;

    let attempt = |adb: &mut ActiveDatabase, delta: i64| {
        adb.advance_clock(1).expect("clock");
        let current = adb.db().item("stock").expect("stock").as_i64().unwrap_or(0);
        let result = adb.update([WriteOp::SetItem {
            item: "stock".into(),
            value: Value::Int(current + delta),
        }]);
        println!(
            "  t={:>2}  stock {current:>4} {}{delta:<4} -> {}",
            adb.now().0,
            if delta >= 0 { "+" } else { "" },
            match &result {
                Ok(_) => format!("{} (committed)", current + delta),
                Err(e) => format!("ABORTED: {e}"),
            }
        );
        result.is_ok()
    };

    assert!(attempt(&mut adb, -30), "within the drain limit");
    assert!(!attempt(&mut adb, -50), "drains 50 > 40: aborted");
    assert!(attempt(&mut adb, 20));
    assert!(!attempt(&mut adb, -200), "would go negative: aborted");
    assert_eq!(adb.db().item("stock")?, Value::Int(90));
    println!("  final stock: 90 (every bad transaction rolled back)\n");
    Ok(())
}

fn valid_time_part() -> Result<(), Box<dyn std::error::Error>> {
    println!("== valid time: backdated deliveries (max delay Δ = 15) ==");
    let mut base = Database::new();
    base.set_item("stock", Value::Int(10));
    base.define_query("stock", QueryDef::new(0, Query::item("stock")));

    let mut vt = VtActiveDatabase::new(base, 15);

    // Constraint: the stock level never exceeds the warehouse capacity 60.
    let capacity = parse_formula("stock() <= 60")?;
    // Tentative trigger: "at some point the stock reached 50".
    vt.add_trigger("reached_50", parse_formula("previously(stock() >= 50)")?)?;

    // 14:00 (t=0)…14:05: sales happen on time.
    vt.advance_clock(5)?;
    let t1 = vt.begin()?;
    vt.update(
        t1,
        WriteOp::SetItem {
            item: "stock".into(),
            value: Value::Int(20),
        },
    )?;
    vt.commit(t1)?;
    println!(
        "  t=5   stock := 20 (on time); tentative firings: {}",
        vt.stream_log().len()
    );
    assert!(vt.stream_log().is_empty());

    // 14:07: a delivery that actually arrived at 14:02 is posted —
    // retroactively the stock was 55 from t=2 on.
    vt.advance_clock(2)?;
    let t2 = vt.begin()?;
    vt.update_at(
        t2,
        WriteOp::SetItem {
            item: "stock".into(),
            value: Value::Int(55),
        },
        Timestamp(2),
    )?;
    vt.commit(t2)?;
    let first = vt.stream_log().first().map(|e| e.record.time);
    println!("  t=7   backdated delivery at valid time 2; tentative firing at {first:?}");
    assert_eq!(first, Some(Timestamp(2)));

    let capacity_ok =
        online_satisfied(vt.engine(), &capacity)? && offline_satisfied(vt.engine(), &capacity)?;
    println!("  capacity-60 constraint satisfied both ways: {capacity_ok}");
    assert!(capacity_ok);

    // The Section 9.3 divergence, in inventory terms: "an invoice is never
    // recorded before its goods receipt". The receipt transaction is slow
    // to commit, so at the invoice's commit point the receipt is not yet
    // visible ONLINE — but OFFLINE (with full knowledge) the receipt's
    // valid time precedes the invoice.
    let mut base = Database::new();
    base.set_item("receipt", Value::Int(0));
    base.set_item("invoice", Value::Int(0));
    base.define_query("receipt", QueryDef::new(0, Query::item("receipt")));
    base.define_query("invoice", QueryDef::new(0, Query::item("invoice")));
    let mut vt = VtEngine::new(base, 15);
    let precedes = parse_formula("invoice() = 0 or receipt() = 1")?;

    vt.advance_clock(2)?;
    let slow = vt.begin()?; // records the receipt, commits late
    let fast = vt.begin()?; // records the invoice, commits first
    vt.update(
        slow,
        WriteOp::SetItem {
            item: "receipt".into(),
            value: Value::Int(1),
        },
    )?;
    vt.advance_clock(1)?;
    vt.update(
        fast,
        WriteOp::SetItem {
            item: "invoice".into(),
            value: Value::Int(1),
        },
    )?;
    vt.advance_clock(4)?;
    vt.commit(fast)?;
    vt.advance_clock(2)?;
    vt.commit(slow)?;

    let online = online_satisfied(&vt, &precedes)?;
    let offline = offline_satisfied(&vt, &precedes)?;
    println!("  receipt-before-invoice: online-satisfied={online}, offline-satisfied={offline}");
    assert!(!online && offline, "the Section 9.3 distinction, live");
    Ok(())
}
