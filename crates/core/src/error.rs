//! Core error types.

use std::fmt;

use tdb_engine::EngineError;
use tdb_ptl::PtlError;
use tdb_relation::RelError;

/// Errors raised by the temporal component (rule registration, incremental
/// evaluation, rule management).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A rule with this name is already registered.
    DuplicateRule(String),
    /// No rule with this name exists.
    NoSuchRule(String),
    /// A derived temporal operator (`Previously` / `ThroughoutPast`) reached
    /// the evaluator's compiler without being rewritten to core form.
    UnrewrittenDerived(String),
    /// Static analysis rejected the rule at registration
    /// (`ManagerConfig { lint: LintLevel::Deny }` and a deny-severity
    /// finding).
    LintDenied {
        rule: String,
        code: String,
        message: String,
    },
    /// An assignment term mentions variables; assignment terms must be
    /// ground so their value is well-defined at the evaluation instant.
    NonGroundAssignment {
        var: String,
        mentions: String,
    },
    /// Solving a residual required binding a variable with no equality
    /// constraint — the formula is effectively unsafe at runtime.
    UnsolvableResidual(String),
    /// A residual grew beyond the configured limit (the formula is
    /// unbounded and pruning could not contain it).
    ResidualTooLarge {
        limit: usize,
        size: usize,
    },
    /// A rule's condition or an action term nests formulas and terms
    /// deeper than [`crate::rules::MAX_NESTING`].
    NestedTooDeep {
        rule: String,
        depth: usize,
    },
    /// A query definition nests queries and expressions deeper than
    /// [`crate::rules::MAX_NESTING`]: its log record would not read back.
    QueryNestedTooDeep {
        query: String,
        depth: usize,
    },
    /// A rule cascade exceeded the configured state budget (runaway rules
    /// firing on the states produced by their own actions).
    CascadeLimit(usize),
    /// An action referenced a parameter the condition did not bind.
    MissingActionParam(String),
    /// A fired action materialized a write outside the rule's statically
    /// declared write set — the batch-safety certificate would be unsound.
    /// Internal invariant; reaching it means the static analyzer and the
    /// action materializer disagree.
    WriteSetViolation {
        rule: String,
        resource: String,
    },
    /// A query a registered rule's condition reads cannot be redefined:
    /// the rule's read sets and batch certificate were derived from it.
    QueryInUse {
        query: String,
        rule: String,
    },
    /// A recovery snapshot does not match the rule catalog or system shape
    /// it is being restored into.
    RestoreMismatch(String),
    /// Valid-time compaction needed the evaluator checkpoint at this state
    /// index but the checkpoint ring no longer holds it (the ring's window
    /// must cover the compaction fold; internal invariant).
    CheckpointMissing {
        index: usize,
    },
    /// A valid-time rule reads `executed(…)`: a valid-time database records
    /// no executions, so the rule is refused at registration.
    UnrecordedExecutions(String),
    /// A stream ingest was rejected: it would violate an integrity
    /// constraint at its valid instant.
    ConstraintRejected {
        constraint: String,
    },
    /// A history state that dispatch or a checkpoint needs was already
    /// released (internal invariant: only dispatched states are released).
    StateNotRetained(usize),
    /// The op interpreter refused an op before logging it: a log record
    /// only the system writes (`RegisterRules`, or an older log's `AddRule`
    /// or `Firing`), valid-time ingest on a transaction-time database, or
    /// a batch inside a batch. A request-level error: nothing was logged or
    /// applied.
    RefusedOp {
        op: &'static str,
        why: &'static str,
    },
    /// The attached durability sink failed (WAL append or checkpoint).
    Storage(String),
    /// Errors from lower layers.
    Ptl(PtlError),
    Engine(EngineError),
    Rel(RelError),
}

impl CoreError {
    /// Whether this is a *deterministic op-level failure*: one that
    /// re-occurs identically whenever the same op sequence is applied to
    /// the same starting state — a constraint veto, a cascade-limit trip, a
    /// bad write, a duplicate registration. Replay and batched commit
    /// absorb these into per-op outcomes (the system stays usable, and
    /// recovery reproduces them instead of failing); everything else is
    /// structural — the system and its inputs disagree — and propagates.
    pub fn is_deterministic(&self) -> bool {
        matches!(
            self,
            CoreError::Engine(_)
                | CoreError::CascadeLimit(_)
                | CoreError::Rel(_)
                | CoreError::Ptl(_)
                | CoreError::LintDenied { .. }
                | CoreError::NestedTooDeep { .. }
                | CoreError::QueryNestedTooDeep { .. }
                | CoreError::DuplicateRule(_)
                | CoreError::QueryInUse { .. }
                | CoreError::ConstraintRejected { .. }
        )
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicateRule(r) => write!(f, "rule `{r}` is already registered"),
            CoreError::NoSuchRule(r) => write!(f, "no rule named `{r}`"),
            CoreError::UnrewrittenDerived(op) => write!(
                f,
                "derived operator `{op}` reached the evaluator without core rewriting"
            ),
            CoreError::LintDenied {
                rule,
                code,
                message,
            } => write!(f, "rule `{rule}` rejected by lint {code}: {message}"),
            CoreError::NonGroundAssignment { var, mentions } => write!(
                f,
                "assignment to `{var}` mentions variable `{mentions}`; assignment terms must be ground"
            ),
            CoreError::UnsolvableResidual(v) => write!(
                f,
                "cannot enumerate satisfying bindings: variable `{v}` has no equality constraint"
            ),
            CoreError::ResidualTooLarge { limit, size } => {
                write!(f, "residual formula grew to {size} nodes (limit {limit})")
            }
            CoreError::NestedTooDeep { rule, depth } => write!(
                f,
                "rule `{rule}` nests {depth} formulas and terms deep (limit {})",
                crate::rules::MAX_NESTING
            ),
            CoreError::QueryNestedTooDeep { query, depth } => write!(
                f,
                "query `{query}` nests {depth} queries and expressions deep (limit {})",
                crate::rules::MAX_NESTING
            ),
            CoreError::CascadeLimit(n) => {
                write!(f, "rule cascade exceeded {n} states; runaway rule suspected")
            }
            CoreError::MissingActionParam(p) => {
                write!(f, "action parameter `{p}` was not bound by the condition")
            }
            CoreError::WriteSetViolation { rule, resource } => write!(
                f,
                "rule `{rule}` wrote `{resource}` outside its declared write set"
            ),
            CoreError::QueryInUse { query, rule } => {
                write!(f, "query `{query}` is read by rule `{rule}` and cannot be redefined")
            }
            CoreError::RestoreMismatch(why) => write!(f, "snapshot restore failed: {why}"),
            CoreError::CheckpointMissing { index } => write!(
                f,
                "no evaluator checkpoint at compaction boundary state {index}"
            ),
            CoreError::UnrecordedExecutions(r) => write!(
                f,
                "rule `{r}` reads `executed`, which a valid-time database does not record"
            ),
            CoreError::ConstraintRejected { constraint } => write!(
                f,
                "ingest rejected: constraint `{constraint}` violated at its valid instant"
            ),
            CoreError::StateNotRetained(i) => {
                write!(f, "history state {i} is no longer retained")
            }
            CoreError::RefusedOp { op, why } => write!(f, "`{op}` refused: {why}"),
            CoreError::Storage(why) => write!(f, "storage failure: {why}"),
            CoreError::Ptl(e) => write!(f, "{e}"),
            CoreError::Engine(e) => write!(f, "{e}"),
            CoreError::Rel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Ptl(e) => Some(e),
            CoreError::Engine(e) => Some(e),
            CoreError::Rel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PtlError> for CoreError {
    fn from(e: PtlError) -> Self {
        CoreError::Ptl(e)
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<RelError> for CoreError {
    fn from(e: RelError) -> Self {
        CoreError::Rel(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = PtlError::UnboundVar("x".into()).into();
        assert!(e.to_string().contains("unbound"));
        let e: CoreError = RelError::UnknownTable("T".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(CoreError::DuplicateRule("r".into())
            .to_string()
            .contains("already"));
    }
}
