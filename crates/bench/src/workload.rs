//! Workload generators for the experiments.
//!
//! Everything is seeded and deterministic. The stock ticker substitutes for
//! the paper's market feed: the conditions only observe value/timestamp
//! patterns, which the generator controls (it can plant the exact
//! worked-example patterns).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use tdb_core::{Action, ActionOp, ActiveDatabase, LogicalOp, Rule};
use tdb_engine::{Engine, Event, EventSet, WriteOp};
use tdb_ptl::{parse_formula, parse_term, Formula, Term};
use tdb_relation::{parse_query, tuple, Database, QueryDef, Relation, Schema, Value};

/// A seeded random-walk price series for one stock.
#[derive(Debug)]
pub struct Ticker {
    rng: StdRng,
    price: i64,
}

impl Ticker {
    pub fn new(seed: u64, start_price: i64) -> Ticker {
        Ticker {
            rng: StdRng::seed_from_u64(seed),
            price: start_price.max(1),
        }
    }

    /// Next price: a bounded random walk that stays positive.
    pub fn step(&mut self) -> i64 {
        let delta: i64 = self.rng.random_range(-4..=5);
        self.price = (self.price + delta).max(1);
        self.price
    }

    /// Occasionally (probability `p_million = p/1_000_000`) crash the price
    /// to half — plants "doubling" patterns for the IBM condition.
    pub fn step_with_crashes(&mut self, p_million: u32) -> i64 {
        if self.rng.random_range(0..1_000_000) < p_million {
            self.price = (self.price / 2).max(1);
        }
        self.step()
    }
}

/// The standard stock database: `STOCK(name, price)` plus the `price(x)`
/// and `names()` function symbols.
pub fn stock_db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        "STOCK",
        Relation::empty(Schema::untyped(&["name", "price"])),
    )
    .expect("fresh database");
    db.define_query(
        "price",
        QueryDef::new(
            1,
            parse_query("select price from STOCK where name = $0").expect("static query"),
        ),
    );
    db.define_query(
        "names",
        QueryDef::new(
            0,
            parse_query("select name from STOCK").expect("static query"),
        ),
    );
    db
}

/// The write-set replacing `name`'s price (delete old row, insert new).
pub fn set_price_ops(db: &Database, name: &str, price: i64) -> Vec<WriteOp> {
    let old = db
        .relation("STOCK")
        .expect("STOCK exists")
        .iter()
        .find(|t| t.get(0) == Some(&Value::str(name)))
        .cloned();
    let mut ops = Vec::with_capacity(2);
    if let Some(old) = old {
        ops.push(WriteOp::Delete {
            relation: "STOCK".into(),
            tuple: old,
        });
    }
    ops.push(WriteOp::Insert {
        relation: "STOCK".into(),
        tuple: tuple![name, price],
    });
    ops
}

/// Drives `n` ticker updates through a bare engine (one state each, one
/// clock unit apart). Returns the engine.
pub fn ticker_engine(n: usize, seed: u64) -> Engine {
    let mut e = Engine::new(stock_db());
    e.set_auto_tick(false);
    let mut ticker = Ticker::new(seed, 50);
    for k in 0..n {
        e.advance_clock_to(tdb_relation::Timestamp(k as i64 + 1))
            .expect("monotone");
        let p = ticker.step_with_crashes(20_000);
        let ops = set_price_ops(e.db(), "IBM", p);
        e.apply_update(ops).expect("update applies");
    }
    e
}

/// The paper's worked-example condition: "the price of IBM stock doubled in
/// 10 units of time".
pub fn ibm_doubled_formula() -> Formula {
    parse_formula(
        "[t := time] [x := price(\"IBM\")] \
         previously(price(\"IBM\") <= 0.5 * x and time >= t - 10)",
    )
    .expect("static formula")
}

/// The moving-average condition: "the hourly average of the IBM price has
/// remained above `threshold`" (sampled at @update_stocks events).
pub fn hourly_average_formula(threshold: i64) -> Formula {
    parse_formula(&format!(
        "avg(price(\"IBM\"); time = 0; @update_stocks) > {threshold}"
    ))
    .expect("static formula")
}

/// A rule condition watching one named item (`w<i>`) exceed a threshold —
/// used to scale rule counts in E3/E7.
pub fn item_watch_formula(item: &str, threshold: i64) -> Formula {
    parse_formula(&format!("{item}_q() > {threshold}")).expect("static formula")
}

/// A database with `n` scalar watch items `w0…w(n-1)` and reader queries.
pub fn watch_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        let item = format!("w{i}");
        db.set_item(item.clone(), Value::Int(0));
        db.define_query(
            format!("{item}_q"),
            QueryDef::new(0, tdb_relation::Query::item(item)),
        );
    }
    db
}

/// A database with `n` single-row base relations `W0…W(n-1)` plus scalar
/// reader queries `r<i>_q()` — the E15 sparse-update workload, exercising
/// relation deltas (rather than scalar-item writes) end to end.
pub fn relation_watch_db(n: usize) -> Database {
    let mut db = Database::new();
    for j in 0..n {
        db.create_relation(
            format!("W{j}"),
            Relation::from_rows(Schema::untyped(&["v"]), vec![tuple![0i64]])
                .expect("single seed row"),
        )
        .expect("fresh database");
        db.define_query(
            format!("r{j}_q"),
            QueryDef::new(
                0,
                parse_query(&format!("select v from W{j}")).expect("static query"),
            ),
        );
    }
    db
}

/// The write-set replacing relation `W<j>`'s single row with `value`.
pub fn set_watch_row_ops(db: &Database, j: usize, value: i64) -> Vec<WriteOp> {
    let rel = format!("W{j}");
    let old = db
        .relation(&rel)
        .expect("relation exists")
        .iter()
        .next()
        .cloned();
    let mut ops = Vec::with_capacity(2);
    if let Some(old) = old {
        ops.push(WriteOp::Delete {
            relation: rel.clone(),
            tuple: old,
        });
    }
    ops.push(WriteOp::Insert {
        relation: rel,
        tuple: tuple![value],
    });
    ops
}

// ---- differential-harness generators ----------------------------------------

/// Scalar watch items in the differential schema (`w0…`).
pub const DIFF_ITEMS: usize = 4;
/// Single-row base relations in the differential schema (`W0…`).
pub const DIFF_RELATIONS: usize = 3;

/// The differential-harness database: [`DIFF_ITEMS`] scalar watch items
/// (`w<i>` + `w<i>_q()` readers) merged with [`DIFF_RELATIONS`] single-row
/// base relations (`W<j>` + `r<j>_q()` readers), so one workload exercises
/// item deltas, relation deltas and event deltas side by side.
pub fn differential_db() -> Database {
    let mut db = watch_db(DIFF_ITEMS);
    for j in 0..DIFF_RELATIONS {
        db.create_relation(
            format!("W{j}"),
            Relation::from_rows(Schema::untyped(&["v"]), vec![tuple![0i64]])
                .expect("single seed row"),
        )
        .expect("fresh database");
        db.define_query(
            format!("r{j}_q"),
            QueryDef::new(
                0,
                parse_query(&format!("select v from W{j}")).expect("static query"),
            ),
        );
    }
    db
}

/// One externally driven operation in a differential workload.
#[derive(Debug, Clone)]
pub enum DiffStep {
    /// Set scalar watch item `w<item>` (item delta).
    SetItem {
        item: usize,
        value: i64,
    },
    /// Replace base relation `W<rel>`'s single row (relation delta).
    SetRow {
        rel: usize,
        value: i64,
    },
    /// Raise `@login("X")` / `@logout("X")` (event delta).
    Login,
    Logout,
    /// Raise `@mark` — the sampling event of the generated aggregates.
    Mark,
    /// Advance the clock without touching data (empty delta).
    Tick,
}

/// A seeded step script for the differential harness. Values stay in
/// `80..125` so the generated thresholds see genuine rising/falling edges.
pub fn differential_steps(seed: u64, n: usize) -> Vec<DiffStep> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.random_range(0..10u32) {
            0..=2 => DiffStep::SetItem {
                item: rng.random_range(0..DIFF_ITEMS),
                value: rng.random_range(80..125),
            },
            3..=5 => DiffStep::SetRow {
                rel: rng.random_range(0..DIFF_RELATIONS),
                value: rng.random_range(80..125),
            },
            6 => {
                if rng.random_range(0..2u32) == 0 {
                    DiffStep::Login
                } else {
                    DiffStep::Logout
                }
            }
            7 | 8 => DiffStep::Mark,
            _ => DiffStep::Tick,
        })
        .collect()
}

/// Applies one step through the facade (one clock unit per step). Returns
/// whether the operation committed (vetoes and re-raised errors read as
/// `false`, keeping the commit pattern comparable across configurations).
pub fn apply_diff_step(adb: &mut ActiveDatabase, s: &DiffStep) -> bool {
    adb.advance_clock(1).expect("monotone clock");
    match s {
        DiffStep::SetItem { item, value } => adb
            .update([WriteOp::SetItem {
                item: format!("w{item}"),
                value: Value::Int(*value),
            }])
            .is_ok(),
        DiffStep::SetRow { rel, value } => {
            let name = format!("W{rel}");
            let old = adb
                .db()
                .relation(&name)
                .expect("relation exists")
                .iter()
                .next()
                .cloned()
                .expect("single-row relation");
            adb.update([
                WriteOp::Delete {
                    relation: name.clone(),
                    tuple: old,
                },
                WriteOp::Insert {
                    relation: name,
                    tuple: tuple![*value],
                },
            ])
            .is_ok()
        }
        DiffStep::Login => adb.emit(Event::new("login", vec![Value::str("X")])).is_ok(),
        DiffStep::Logout => adb
            .emit(Event::new("logout", vec![Value::str("X")]))
            .is_ok(),
        DiffStep::Mark => adb.emit(Event::simple("mark")).is_ok(),
        DiffStep::Tick => adb.tick().is_ok(),
    }
}

/// Lowers one step to the logical ops [`apply_diff_step`] would log, so a
/// step script can be regrouped into group commits
/// (`ActiveDatabase::commit_batch`) without consulting a live database.
/// `rows` is a shadow of the single-row `W<j>` relations (current value per
/// relation, all `0` initially) — [`DiffStep::SetRow`] needs the old tuple
/// to delete, and in a batch that tuple may not be applied yet.
pub fn diff_step_ops(s: &DiffStep, rows: &mut [i64]) -> Vec<LogicalOp> {
    let mut ops = vec![LogicalOp::AdvanceClock { delta: 1 }];
    match s {
        DiffStep::SetItem { item, value } => ops.push(LogicalOp::Update {
            ops: vec![WriteOp::SetItem {
                item: format!("w{item}"),
                value: Value::Int(*value),
            }],
        }),
        DiffStep::SetRow { rel, value } => {
            let old = rows[*rel];
            rows[*rel] = *value;
            ops.push(LogicalOp::Update {
                ops: vec![
                    WriteOp::Delete {
                        relation: format!("W{rel}"),
                        tuple: tuple![old],
                    },
                    WriteOp::Insert {
                        relation: format!("W{rel}"),
                        tuple: tuple![*value],
                    },
                ],
            });
        }
        DiffStep::Login => ops.push(LogicalOp::Emit {
            events: EventSet::of([Event::new("login", vec![Value::str("X")])]),
        }),
        DiffStep::Logout => ops.push(LogicalOp::Emit {
            events: EventSet::of([Event::new("logout", vec![Value::str("X")])]),
        }),
        DiffStep::Mark => ops.push(LogicalOp::Emit {
            events: EventSet::of([Event::simple("mark")]),
        }),
        DiffStep::Tick => ops.push(LogicalOp::Tick),
    }
    ops
}

/// A seeded random rule catalog over the [`differential_db`] schema:
/// rising-edge thresholds, relation watches, bounded time windows, event
/// `Since` chains and temporal aggregates (`avg`/`max`/`count` sampled at
/// `@mark` / `@login`). All rules are `Notify` triggers, so the observable
/// trace is exactly the firing sequence.
///
/// Aggregate-backed rules are named `agg…`: their Section 6.1.1 rewriting
/// becomes visible one system state *after* the sampling state ("firing may
/// be delayed, but not go unrecognized"), so the differential harness
/// compares them across configurations rather than against the naive
/// full-history oracle. Every other rule (named `ptl…`) matches the
/// `tdb_baseline::NaiveDetector` semantics exactly.
pub fn differential_rules(seed: u64, n: usize) -> Vec<Rule> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| {
            let c: i64 = rng.random_range(85..120);
            let item = rng.random_range(0..DIFF_ITEMS);
            let rel = rng.random_range(0..DIFF_RELATIONS);
            let window: i64 = rng.random_range(3..13);
            let (name, src) = match k % 8 {
                0 => (
                    format!("ptl{k}_rising"),
                    format!("w{item}_q() > {c} and previously(w{item}_q() <= {c})"),
                ),
                1 => (
                    format!("ptl{k}_relation"),
                    format!("lasttime(r{rel}_q() <= {c}) and r{rel}_q() > {c}"),
                ),
                2 => (
                    format!("ptl{k}_window"),
                    format!("[t := time] previously(w{item}_q() >= {c} and time >= t - {window})"),
                ),
                3 => (
                    format!("ptl{k}_since"),
                    format!("(w{item}_q() <= {c}) since @mark"),
                ),
                4 => (
                    format!("ptl{k}_session"),
                    "not @logout(\"X\") since @login(\"X\")".to_string(),
                ),
                5 => (
                    format!("agg{k}_avg"),
                    format!("avg(w{item}_q(); time = 0; @mark) > {c}"),
                ),
                6 => (
                    format!("agg{k}_max"),
                    format!("max(r{rel}_q(); time = 0; @mark) >= {c}"),
                ),
                _ => (
                    format!("agg{k}_count"),
                    format!(
                        "count(w{item}_q(); time = 0; @login) >= {}",
                        rng.random_range(2..7)
                    ),
                ),
            };
            Rule::trigger(
                name,
                parse_formula(&src).expect("generated formula parses"),
                Action::Notify,
            )
        })
        .collect()
}

/// [`differential_db`] plus two sink items `s0`/`s1` (with `s0_q()` /
/// `s1_q()` readers) that only fired actions write. The external step
/// scripts never touch the sinks, so every sink change in a run is a
/// rule-action write — which is exactly what the batch-safety
/// differential tests need to observe.
pub fn differential_writer_db() -> Database {
    let mut db = differential_db();
    for s in ["s0", "s1"] {
        db.set_item(s.to_string(), Value::Int(0));
        db.define_query(
            format!("{s}_q"),
            QueryDef::new(0, tdb_relation::Query::item(s)),
        );
    }
    db
}

fn set_item_action(item: &str, value: Term) -> Action {
    Action::DbOps(vec![ActionOp::SetItem {
        item: item.into(),
        value,
    }])
}

fn writer_rule(name: &str, condition: &str, item: &str, value: Term) -> Rule {
    Rule::trigger(
        name,
        parse_formula(condition).expect("static writer condition parses"),
        set_item_action(item, value),
    )
}

/// A data-writing catalog over [`differential_writer_db`] that certifies
/// `stratified(2)`: four writers with pure-data (inertial) conditions in
/// stratum 0 feeding two sink readers in stratum 1, no cycles.
///
/// The catalog deliberately covers the fence-soundness corner cases:
/// `w_prev`'s condition is a bare `previously(…)` (temporal memory — its
/// edge-firing must still coincide with a read-set-touching state, the
/// inertia property the stratified fences rely on), `w_snap`'s action
/// value reads the database at materialization time (impure — the fences
/// pin its evaluation point to the per-op schedule), and `r_last` is an
/// order-sensitive (`lasttime`) reader of a written sink.
pub fn differential_stratified_rules() -> Vec<Rule> {
    vec![
        writer_rule(
            "w_up",
            "w0_q() > 100 and previously(w0_q() <= 100)",
            "s0",
            Term::lit(1i64),
        ),
        writer_rule(
            "w_dn",
            "w0_q() <= 100 and previously(w0_q() > 100)",
            "s0",
            Term::lit(0i64),
        ),
        writer_rule("w_prev", "previously(w1_q() > 110)", "s1", Term::lit(7i64)),
        writer_rule(
            "w_snap",
            "w2_q() > 105 and previously(w2_q() <= 105)",
            "s1",
            parse_term("w2_q() + 1").expect("static action term parses"),
        ),
        Rule::trigger(
            "r_edge",
            parse_formula("s0_q() = 1").expect("static reader parses"),
            Action::Notify,
        ),
        Rule::trigger(
            "r_last",
            parse_formula("lasttime(s1_q() = 0) and s1_q() != 0").expect("static reader parses"),
            Action::Notify,
        ),
    ]
}

/// A data-writing catalog over [`differential_writer_db`] that certifies
/// `cascade-required`: `pong` reads *and* writes `s0` (a self-cycle), so
/// no amount of fencing can predict the cascade statically. Every chain
/// quiesces (`drv` raises `s0` to 1, `pong` rewrites it to 2, nothing
/// fires on 2), so eager re-entry terminates.
pub fn differential_cascade_rules() -> Vec<Rule> {
    vec![
        writer_rule(
            "drv",
            "w0_q() > 100 and previously(w0_q() <= 100)",
            "s0",
            Term::lit(1i64),
        ),
        writer_rule("pong", "s0_q() = 1", "s0", Term::lit(2i64)),
        writer_rule(
            "rearm",
            "w0_q() <= 100 and previously(w0_q() > 100)",
            "s0",
            Term::lit(0i64),
        ),
        Rule::trigger(
            "obs",
            parse_formula("s0_q() = 2").expect("static reader parses"),
            Action::Notify,
        ),
    ]
}

/// Login-session events: deterministic interleaving of logins/logouts for
/// `users` users over `n` states.
#[derive(Debug)]
pub struct SessionLoad {
    rng: StdRng,
    users: usize,
    logged_in: Vec<bool>,
}

impl SessionLoad {
    pub fn new(users: usize, seed: u64) -> SessionLoad {
        SessionLoad {
            rng: StdRng::seed_from_u64(seed),
            users,
            logged_in: vec![false; users],
        }
    }

    /// Next event: `(user, login?)`.
    pub fn step(&mut self) -> (String, bool) {
        let u = self.rng.random_range(0..self.users);
        self.logged_in[u] = !self.logged_in[u];
        (format!("user{u}"), self.logged_in[u])
    }
}

/// One event of a Δ-bounded out-of-order stream: it *happened* at `valid`
/// but *reaches* the database at `arrival ≥ valid` (arrival − valid ≤ Δ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisorderEvent {
    /// Position in the original (in-order) history.
    pub seq: usize,
    /// The instant the event is about.
    pub valid: tdb_relation::Timestamp,
    /// The instant it arrives at the ingest path.
    pub arrival: tdb_relation::Timestamp,
    /// Payload: the value `n` takes at `valid`.
    pub value: i64,
}

/// A seeded disorder workload: `n` events with unique, consecutive valid
/// times `1..=n`; each is late with probability `rate_permille / 1000`,
/// delayed uniformly in `1..=max_delay`. The returned vector is in
/// *arrival* order (stable on `seq` for ties), which is the order an
/// ingest loop should feed them; re-sorting by `valid` recovers the
/// in-order oracle history.
pub fn disorder_events(
    n: usize,
    max_delay: i64,
    rate_permille: u32,
    seed: u64,
) -> Vec<DisorderEvent> {
    // Two independent streams: values from one, lateness from the other,
    // so every (Δ, rate) cell of a sweep sees the *same* value history and
    // differs only in arrival order.
    let mut values = StdRng::seed_from_u64(seed);
    let mut lateness = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut events: Vec<DisorderEvent> = (0..n)
        .map(|i| {
            let valid = tdb_relation::Timestamp(i as i64 + 1);
            let value = values.random_range(0..100);
            let late = u64::from(lateness.random_range(0..1000u32)) < u64::from(rate_permille);
            let delay = if late && max_delay > 0 {
                lateness.random_range(1..=max_delay)
            } else {
                0
            };
            DisorderEvent {
                seq: i,
                valid,
                arrival: tdb_relation::Timestamp(valid.0 + delay),
                value,
            }
        })
        .collect();
    events.sort_by_key(|e| (e.arrival, e.seq));
    events
}

// ---- eval_fanout-shaped tenants (isolation test, tenant_scaling bench) ------

/// Items (`w0..`) of a fan-out tenant, each read through `q0()..`.
pub const FANOUT_SLOTS: usize = 4;

/// The ops that seed a fan-out tenant's schema: [`FANOUT_SLOTS`] items at
/// 50 with one reader query each.
pub fn fanout_seed_ops() -> Vec<LogicalOp> {
    (0..FANOUT_SLOTS)
        .flat_map(|j| {
            [
                LogicalOp::SetItem {
                    name: format!("w{j}"),
                    value: Value::Int(50),
                },
                LogicalOp::DefineQuery {
                    name: format!("q{j}"),
                    def: QueryDef::new(0, tdb_relation::Query::item(format!("w{j}"))),
                },
            ]
        })
        .collect()
}

/// The canonical benchmark's `eval_fanout` catalog (`benchmark/src/gen.rs`)
/// as rule-file text: per item, `per_slot` notify rules cycling through
/// rising-edge `previously`, `since`, `lasttime` and a time-windowed
/// `previously` over 6-spaced thresholds, the last one a running average
/// (an aggregate, so it registers helper rules that write registers).
/// Every rule of one item shares that item's atoms — the cross-rule
/// sharing the per-state memo exists for.
pub fn fanout_rule_source(per_slot: usize) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    for j in 0..FANOUT_SLOTS {
        let q = format!("q{j}");
        for k in 0..per_slot {
            let th = 5 + (k as i64 / 4) * 6;
            let cond = if k + 1 == per_slot {
                format!("avg({q}(); time = 0; {q}() >= 0) > {th}")
            } else {
                match k % 4 {
                    0 => format!("{q}() > {th} and previously({q}() <= {th})"),
                    1 => format!("({q}() > {th}) since ({q}() > {})", th + 4),
                    2 => format!("{q}() > {th} and lasttime({q}() <= {th})"),
                    _ => format!("[t := time] previously({q}() >= {th} and time >= t - 8)"),
                }
            };
            let _ = writeln!(src, "rule r{j}_{k} {{ when {cond}; then notify; }}");
        }
    }
    src
}

/// [`fanout_rule_source`] mapped onto core rules exactly as the server's
/// `RegisterRule` does (so every firing also records into `executed`).
pub fn fanout_rules(per_slot: usize) -> Vec<Rule> {
    tdb_server::tenant::rules_from_source(&fanout_rule_source(per_slot))
        .expect("the generated catalog is well-formed rule text")
}

/// `n` steps of per-slot value streams over `slots` slots starting at 50,
/// as `(slot, old value, new value)`: the seed picks the slot and jitters
/// how far its value moves along a 0..=100 triangle wave, so every seed
/// does the same rule work per sweep and only the interleaving differs.
fn triangle_steps(seed: u64, slots: usize, n: usize) -> Vec<(usize, i64, i64)> {
    const RANGE: i64 = 100;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut phase: Vec<i64> = (0..slots).map(|_| rng.random_range(0..2 * RANGE)).collect();
    let mut value = vec![50; slots];
    (0..n)
        .map(|_| {
            let slot = rng.random_range(0..slots);
            let p = (phase[slot] + rng.random_range(0..=2)) % (2 * RANGE);
            phase[slot] = p;
            let old = value[slot];
            value[slot] = if p < RANGE { p } else { 2 * RANGE - p };
            (slot, old, value[slot])
        })
        .collect()
}

/// `n` commits of a fan-out tenant's value stream, each a clock tick plus
/// one item update.
pub fn fanout_commits(seed: u64, n: usize) -> Vec<[LogicalOp; 2]> {
    triangle_steps(seed, FANOUT_SLOTS, n)
        .into_iter()
        .map(|(slot, _, value)| {
            [
                LogicalOp::AdvanceClock { delta: 1 },
                LogicalOp::Update {
                    ops: vec![WriteOp::SetItem {
                        item: format!("w{slot}"),
                        value: Value::Int(value),
                    }],
                },
            ]
        })
        .collect()
}

// ---- batch_durable-shaped tenants (registration bench) -----------------------

/// Relations (`W0..`) of a rising-edge tenant, each read through
/// `r0_q()..` — [`relation_watch_db`]'s schema.
pub const RISING_SLOTS: usize = 32;

/// The ops that seed a rising-edge tenant's schema: [`RISING_SLOTS`]
/// single-row relations holding 50, one reader query each.
pub fn rising_edge_seed_ops() -> Vec<LogicalOp> {
    (0..RISING_SLOTS)
        .flat_map(|j| {
            [
                LogicalOp::CreateRelation {
                    name: format!("W{j}"),
                    relation: Relation::from_rows(Schema::untyped(&["v"]), vec![tuple![50i64]])
                        .expect("single seed row"),
                },
                LogicalOp::DefineQuery {
                    name: format!("r{j}_q"),
                    def: QueryDef::new(
                        0,
                        parse_query(&format!("select v from W{j}")).expect("static query"),
                    ),
                },
            ]
        })
        .collect()
}

/// The canonical benchmark's `batch_durable` catalog (`benchmark/src/gen.rs`)
/// as rule-file text: per relation, `per_slot` notify rules firing on the
/// rising edge of thresholds spread over the value range. No condition is
/// order-sensitive, so registered over the wire (every rule a recorder)
/// the catalog certifies `stratified(1)`.
pub fn rising_edge_rule_source(per_slot: usize) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    for j in 0..RISING_SLOTS {
        let q = format!("r{j}_q");
        for k in 0..per_slot {
            let th = (k as i64 + 1) * 100 / (per_slot as i64 + 1);
            let _ = writeln!(
                src,
                "rule r{j}_{k} {{ when {q}() > {th} and previously({q}() <= {th}); then notify; }}"
            );
        }
    }
    src
}

/// `n` states of a rising-edge tenant's value stream, each a clock tick
/// plus one relation's row replaced (`benchmark/`'s `batch_durable` frames
/// carry 64 of them).
pub fn rising_edge_commits(seed: u64, n: usize) -> Vec<[LogicalOp; 2]> {
    triangle_steps(seed, RISING_SLOTS, n)
        .into_iter()
        .map(|(slot, old, value)| {
            let relation = format!("W{slot}");
            [
                LogicalOp::AdvanceClock { delta: 1 },
                LogicalOp::Update {
                    ops: vec![
                        WriteOp::Delete {
                            relation: relation.clone(),
                            tuple: tuple![old],
                        },
                        WriteOp::Insert {
                            relation,
                            tuple: tuple![value],
                        },
                    ],
                },
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticker_is_deterministic_and_positive() {
        let mut a = Ticker::new(7, 50);
        let mut b = Ticker::new(7, 50);
        for _ in 0..1000 {
            let pa = a.step_with_crashes(50_000);
            assert_eq!(pa, b.step_with_crashes(50_000));
            assert!(pa >= 1);
        }
    }

    #[test]
    fn ticker_engine_builds_history() {
        let e = ticker_engine(100, 1);
        assert_eq!(e.history().len(), 101, "initial + 100 updates");
        assert_eq!(e.db().relation("STOCK").unwrap().len(), 1);
    }

    #[test]
    fn formulas_parse_and_analyze() {
        tdb_ptl::analyze(&ibm_doubled_formula()).unwrap();
        tdb_ptl::analyze(&hourly_average_formula(70)).unwrap();
        tdb_ptl::analyze(&item_watch_formula("w3", 10)).unwrap();
    }

    #[test]
    fn watch_db_defines_items_and_queries() {
        let db = watch_db(4);
        assert!(db.has_item("w3"));
        assert!(db.query_def("w0_q").is_ok());
    }

    #[test]
    fn differential_generators_are_deterministic() {
        let a = differential_rules(42, 16);
        let b = differential_rules(42, 16);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.condition, y.condition);
            tdb_ptl::analyze(&x.condition).unwrap();
        }
        let s = differential_steps(7, 100);
        let t = differential_steps(7, 100);
        assert_eq!(s.len(), 100);
        assert_eq!(format!("{s:?}"), format!("{t:?}"));
    }

    #[test]
    fn differential_db_serves_every_generated_query() {
        let mut adb = ActiveDatabase::new(differential_db());
        for r in differential_rules(3, 16) {
            adb.add_rule(r).unwrap();
        }
        for s in differential_steps(3, 40) {
            apply_diff_step(&mut adb, &s);
        }
        assert!(adb.history().len() > 40, "every step appends a state");
    }

    #[test]
    fn disorder_events_are_deterministic_and_delta_bounded() {
        let a = disorder_events(500, 7, 300, 42);
        let b = disorder_events(500, 7, 300, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        // Δ-bounded lateness, arrival-sorted, unique valid times.
        let mut last_arrival = tdb_relation::Timestamp(i64::MIN);
        let mut valids: Vec<i64> = a.iter().map(|e| e.valid.0).collect();
        for e in &a {
            assert!(e.arrival >= e.valid);
            assert!(e.arrival.0 - e.valid.0 <= 7);
            assert!(e.arrival >= last_arrival, "arrival order");
            last_arrival = e.arrival;
        }
        valids.sort_unstable();
        valids.dedup();
        assert_eq!(valids.len(), 500, "valid times are unique");
        // Disorder actually occurs at rate 300‰ …
        assert!(a.iter().any(|e| e.arrival > e.valid));
        // … and never at rate 0 or Δ = 0.
        assert!(disorder_events(200, 7, 0, 42)
            .iter()
            .all(|e| e.arrival == e.valid));
        assert!(disorder_events(200, 0, 800, 42)
            .iter()
            .all(|e| e.arrival == e.valid));
    }

    #[test]
    fn session_load_flips_state() {
        let mut s = SessionLoad::new(3, 9);
        let (u, first) = s.step();
        assert!(first, "first toggle is a login");
        assert!(u.starts_with("user"));
    }
}
