//! # tdb-core
//!
//! The paper's primary contribution, as a library: the incremental
//! evaluation algorithm for Past Temporal Logic conditions (Section 5) with
//! temporal aggregates as formula state (Section 6), the Condition–Action
//! rule system with triggers and temporal integrity constraints (Sections
//! 3, 7, 8), and the valid-time trigger/constraint semantics (Section 9).
//!
//! Entry points:
//!
//! * [`IncrementalEvaluator`] — evaluate one PTL condition incrementally,
//!   state by state, with the monotone-clock pruning optimization;
//! * [`Rule`] / [`Action`] — the CA rule model (triggers and constraints);
//! * [`RuleManager`] — the temporal component: registration (with
//!   `executed` bookkeeping), dispatch, constraint gating and relevance
//!   filtering;
//! * [`ActiveDatabase`] — the full system: engine + temporal component;
//! * [`VtActiveDatabase`] — the same rules over valid time (Section 9), on
//!   one [`RuleManager`] rewound and re-dispatched as late updates land.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod context;
pub mod error;
pub mod facade;
pub mod incremental;
pub mod manager;
pub mod parteval;
pub mod readset;
pub mod residual;
pub mod rules;
pub mod shard;
pub mod storage;
pub mod validtime;
pub mod vtfacade;

pub use context::{ContextStats, EvalContext};
// Static-verification vocabulary used by `ManagerConfig { lint }` and
// `RuleManager::{lint_findings, lint_rule_set}`.
pub use error::{CoreError, Result};
pub use facade::{ActiveDatabase, BatchOpOutcome};
pub use incremental::{EvalConfig, EvaluatorState, IncrementalEvaluator};
pub use manager::{
    executed_relation_name, CascadeMode, GateOutcome, ManagerConfig, ManagerStats, PreparedRule,
    RuleManager, RuleState, WriterFences,
};
pub use readset::ReadSetIndex;
pub use rules::{Action, ActionOp, FiringRecord, Rule, RuleKind, TXN_VAR};
pub use shard::{ApplyOutcome, Shard, ShardStats};
pub use storage::{LogicalOp, MemorySink, SharedMemorySink, SyncPolicy, SystemSnapshot, WalSink};
pub use tdb_analysis::{
    BatchCertificate, BatchSafety, Boundedness, Diagnostic, LintCode, LintLevel, Report, Severity,
};
// Observability wiring used by `ManagerConfig { obs }` and the facade's
// metrics accessors.
pub use tdb_obs::ObsConfig;
pub use validtime::{holds_at, offline_satisfied, online_satisfied, theorem2_check};
pub use vtfacade::{VtActiveDatabase, VtFiringEvent, VtPhase, VtRuleReady};
