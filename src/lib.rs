//! # temporal-adb
//!
//! A from-scratch implementation of *Sistla & Wolfson, "Temporal Conditions
//! and Integrity Constraints in Active Database Systems" (SIGMOD 1995)*:
//! Past Temporal Logic (PTL) conditions for active-database rules, an
//! incremental condition-evaluation algorithm, temporal aggregates,
//! composite/temporal actions via the `executed` predicate, temporal
//! integrity constraints, and the valid-time trigger/constraint semantics.
//!
//! This crate re-exports the workspace's public API:
//!
//! * [`relation`] — the relational substrate (values, relations, queries);
//! * [`engine`] — the active-database engine (transactions, events,
//!   system histories; transaction-time and valid-time);
//! * [`ptl`] — the PTL language (AST, parser, analyses, naive semantics);
//! * [`core`] — the temporal component (incremental evaluator, rules,
//!   aggregates, constraints, the `ActiveDatabase` facade);
//! * [`analysis`] — the whole-rule-set static verifier (boundedness
//!   certification, triggering-graph analysis, lint diagnostics) behind
//!   the `tdb-lint` CLI;
//! * [`storage`] — durability (write-ahead log, Theorem-1 checkpoints,
//!   crash recovery);
//! * [`baseline`] — comparators (naive re-evaluation and firing oracle,
//!   event-expression automata, the §5 auxiliary-relation strategy);
//! * [`obs`] — zero-dependency observability (metrics registry, tracing
//!   spans, slow-rule log) wired through every layer above.
//!
//! ## Quickstart
//!
//! ```
//! use temporal_adb::prelude::*;
//!
//! // A database with one scalar item and a query reading it.
//! let mut db = Database::new();
//! db.set_item("balance", Value::Int(100));
//! db.define_query("balance", QueryDef::new(0, Query::item("balance")));
//!
//! let mut adb = ActiveDatabase::new(db);
//!
//! // Trigger: the balance dropped below half of what it was some time in
//! // the past — a genuinely temporal condition.
//! adb.add_rule(Rule::trigger(
//!     "halved",
//!     parse_formula("[x := balance()] previously(balance() >= 2 * x)").unwrap(),
//!     Action::Notify,
//! ))
//! .unwrap();
//!
//! adb.advance_clock(1).unwrap();
//! adb.update([WriteOp::SetItem { item: "balance".into(), value: Value::Int(40) }])
//!     .unwrap();
//! assert_eq!(adb.firings().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub use tdb_analysis as analysis;
pub use tdb_baseline as baseline;
pub use tdb_core as core;
pub use tdb_engine as engine;
pub use tdb_obs as obs;
pub use tdb_ptl as ptl;
pub use tdb_relation as relation;
pub use tdb_storage as storage;

/// The most commonly used items, for `use temporal_adb::prelude::*`.
pub mod prelude {
    pub use tdb_analysis::{certify, Boundedness, LintLevel, Report};
    pub use tdb_core::{
        Action, ActionOp, ActiveDatabase, EvalConfig, FiringRecord, IncrementalEvaluator,
        ManagerConfig, Program, Rule,
    };
    pub use tdb_engine::{Engine, Event, EventSet, History, VtEngine, WriteOp};
    pub use tdb_ptl::{parse_formula, parse_term, Formula, Term};
    pub use tdb_relation::{
        parse_query, tuple, Database, Query, QueryDef, Relation, Schema, Timestamp, Tuple, Value,
    };
}
