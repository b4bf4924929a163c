//! Engine error types.

use std::fmt;

use tdb_relation::RelError;

use crate::txn::TxnId;

/// Errors raised by the active-database engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An operation referenced a transaction that is not open.
    NoSuchTxn(TxnId),
    /// A transaction id was reused while still open.
    TxnAlreadyOpen(TxnId),
    /// The logical clock was asked to move backwards.
    ClockNotMonotonic { now: i64, requested: i64 },
    /// Two transactions attempted to commit at the same instant (the model
    /// requires at most one commit event per system state).
    SimultaneousCommit,
    /// A retroactive update's valid time precedes the allowed window.
    ValidTimeTooOld { valid: i64, limit: i64 },
    /// A valid time in the future of the transaction time.
    ValidTimeInFuture { valid: i64, now: i64 },
    /// Compaction would fold an update whose transaction is still undecided
    /// (or commits at/after the cutoff), which could change a future view.
    CompactionBlocked { txn: TxnId },
    /// An error bubbled up from the relational substrate.
    Rel(RelError),
    /// The transaction was aborted by an integrity constraint.
    Aborted { txn: TxnId, reason: String },
    /// Base-schema seeding attempted after the valid-time history already
    /// holds states (which materialize lazily from the base, so a later
    /// base edit would silently rewrite them).
    SeedAfterHistory,
    /// Checkpointed history parts break a history invariant (empty, out of
    /// time order, two commits in one state, an offset that overflows).
    MalformedHistory(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoSuchTxn(t) => write!(f, "no open transaction {t}"),
            EngineError::TxnAlreadyOpen(t) => write!(f, "transaction {t} is already open"),
            EngineError::ClockNotMonotonic { now, requested } => {
                write!(f, "clock cannot move from {now} back to {requested}")
            }
            EngineError::SimultaneousCommit => {
                write!(f, "at most one transaction may commit per instant")
            }
            EngineError::ValidTimeTooOld { valid, limit } => {
                write!(
                    f,
                    "valid time {valid} older than the maximum-delay limit {limit}"
                )
            }
            EngineError::ValidTimeInFuture { valid, now } => {
                write!(
                    f,
                    "valid time {valid} is in the future of transaction time {now}"
                )
            }
            EngineError::CompactionBlocked { txn } => {
                write!(f, "cannot compact past undecided transaction {txn}")
            }
            EngineError::Rel(e) => write!(f, "{e}"),
            EngineError::Aborted { txn, reason } => {
                write!(f, "transaction {txn} aborted: {reason}")
            }
            EngineError::SeedAfterHistory => {
                write!(
                    f,
                    "base-schema seeding requires an empty valid-time history"
                )
            }
            EngineError::MalformedHistory(why) => write!(f, "malformed history: {why}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Rel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelError> for EngineError {
    fn from(e: RelError) -> Self {
        EngineError::Rel(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EngineError::Rel(RelError::UnknownTable("T".into()));
        assert_eq!(e.to_string(), "unknown relation `T`");
        assert!(std::error::Error::source(&e).is_some());
        let e = EngineError::NoSuchTxn(TxnId(3));
        assert!(e.to_string().contains("no open transaction"));
    }
}
