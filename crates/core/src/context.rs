//! [`EvalContext`] — everything the evaluator interns, memoises or counts,
//! owned by the one tenant that asked.
//!
//! Theorem 1 makes a rule's `F_{g,i}` a function of its own `F_{g,i-1}` and
//! the new system state; nothing a second tenant does can matter. The
//! context keeps the implementation honest about that: the hash-consing
//! arena ([`crate::residual`]), the per-state atom memo, query slots and
//! computed table ([`crate::parteval`], `EvalContext::since_at`), the
//! atom/program intern tables ([`crate::incremental`]) and the hot-path
//! counters all live here, one instance per
//! [`RuleManager`](crate::RuleManager) or
//! [`VtActiveDatabase`](crate::VtActiveDatabase), handed to every evaluator
//! they compile. It is freed — arena, memo and all — when the tenant is
//! dropped. Stand-alone evaluators
//! ([`IncrementalEvaluator::new`](crate::IncrementalEvaluator::new)) get a
//! private one.
//!
//! **The computed table.** A `Since` step is a pure function of three
//! canonical nodes, and the rules of one tenant often hold the same three
//! at a state: window rules of different thresholds reach one residual. The
//! memo keeps, for the state it is at, each step that reached the residual
//! constructors, keyed by the addresses of its operands and holding them
//! strong (an address cannot be recycled while its entry lives), and is
//! emptied whenever it moves to another state, a valid-time rewind
//! included. So the table holds one state's steps and needs no size bound;
//! steps whose operands are constants decide without it.
//!
//! **Correctness never depends on which context a node came from.** A node
//! built elsewhere (another tenant's snapshot, a decoded checkpoint, a
//! hand-built test tree) is *foreign*: every constructor routes it through
//! [`EvalContext::intern_arc`], which rebuilds it bottom-up into this
//! context's canonical nodes. The places that compare by pointer —
//! `same_formula_states`, the sparse-fixpoint test, the valid-time
//! convergence cut-off — use equality of pointers only as a *sufficient*
//! condition and fall back to recomputation, which yields an equal
//! residual. So per-tenant arenas cannot change a firing; they only stop
//! tenants from sharing (and fighting over) nodes they could never usefully
//! share — snapshot terms already unify only on the same `Arc<Database>`.
//!
//! A tenant is evaluated on one thread at a time — a server tenant on the
//! worker that created it, for its whole life — so every lock here is
//! uncontended. The locks let the evaluators of one tenant share the
//! context through an `Arc` while the tenant stays `Send`: a library caller
//! may still hand a [`Shard`](crate::Shard) to another thread.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::incremental::CompileTables;
use crate::parteval::AtomMemo;
use crate::residual::{Arena, Residual};

/// Locks one of the context's tables, recovering the guard if a previous
/// holder panicked. Sound because every update under these locks leaves the
/// table valid at each step (a node is pushed before its hash is recorded,
/// a memo entry is inserted only once computed), so the worst a panic
/// leaves behind is a missed sharing opportunity — and it is this tenant's
/// alone.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Point-in-time counts of one context (cumulative since its creation,
/// except `nodes_resident`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Atom evaluations that consulted the per-state atom memo: those of
    /// atoms with a variable and of memberships. A closed comparison reads
    /// its query slots instead, and an event atom evaluates directly.
    pub memo_lookups: u64,
    /// Of those, how many were answered from it.
    pub memo_hits: u64,
    /// Atoms advances evaluated (memo hits included), and atoms they kept
    /// because the state's delta missed their read set.
    pub atom_evals: u64,
    pub atoms_reused: u64,
    /// Ground query applications evaluated, and those their query slot
    /// answered with the value already read at the state.
    pub query_evals: u64,
    pub query_memo_hits: u64,
    /// Residual nodes ever inserted into the arena.
    pub nodes_interned: u64,
    /// Residual nodes resident in the arena right now.
    pub nodes_resident: usize,
    /// `Since` steps that reached the residual constructors and were
    /// computed, and those the computed table answered because the state
    /// had already computed them (see `EvalContext::since_at`).
    pub steps_computed: u64,
    pub steps_reused: u64,
}

/// The series a context publishes, resolved once per process. They always
/// live in the global registry and are touched only while
/// [`tdb_obs::enabled`].
fn published() -> &'static [tdb_obs::Counter; 8] {
    static COUNTERS: OnceLock<[tdb_obs::Counter; 8]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        [
            "tdb_atom_memo_lookups_total",
            "tdb_atom_memo_hits_total",
            "tdb_atom_evaluations_total",
            "tdb_atom_reuses_total",
            "tdb_query_memo_lookups_total",
            "tdb_query_memo_hits_total",
            "tdb_residual_nodes_preprune_total",
            "tdb_residual_nodes_postprune_total",
        ]
        .map(|name| tdb_obs::global().counter(name))
    })
}

/// One tenant's evaluation state. See the module docs.
pub struct EvalContext {
    pub(crate) arena: Mutex<Arena>,
    /// This context's canonical `True` / `False`.
    pub(crate) rtrue: Arc<Residual>,
    pub(crate) rfalse: Arc<Residual>,
    pub(crate) memo: Mutex<AtomMemo>,
    pub(crate) compiled: Mutex<CompileTables>,
}

impl EvalContext {
    pub fn new() -> EvalContext {
        let mut arena = Arena::default();
        let rtrue = arena.intern(Residual::True);
        let rfalse = arena.intern(Residual::False);
        EvalContext {
            arena: Mutex::new(arena),
            rtrue,
            rfalse,
            memo: Mutex::new(AtomMemo::default()),
            compiled: Mutex::new(CompileTables::default()),
        }
    }

    pub fn stats(&self) -> ContextStats {
        let c = locked(&self.memo).counts;
        let arena = locked(&self.arena);
        ContextStats {
            memo_lookups: c.atom_lookups,
            memo_hits: c.atom_hits,
            atom_evals: c.atom_evals,
            atoms_reused: c.atoms_reused,
            query_evals: c.query_evals,
            query_memo_hits: c.query_hits,
            nodes_interned: arena.interned(),
            nodes_resident: arena.resident(),
            steps_computed: c.steps_computed,
            steps_reused: c.steps_reused,
        }
    }

    /// Publishes what the evaluators of this context counted since the last
    /// call — atom memo lookups/hits, query slot reads/hits, atoms evaluated and reused,
    /// pre/post-prune nodes — to the global registry: a handful of adds per
    /// dispatch instead of several per rule evaluation. One branch when
    /// observability is off.
    pub(crate) fn publish_counters(&self) {
        if !tdb_obs::enabled() {
            return;
        }
        let c = std::mem::take(&mut locked(&self.memo).pending);
        let counts = [
            c.atom_lookups,
            c.atom_hits,
            c.atom_evals,
            c.atoms_reused,
            c.query_evals + c.query_hits,
            c.query_hits,
            c.preprune,
            c.postprune,
        ];
        for (counter, n) in published().iter().zip(counts) {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

impl Default for EvalContext {
    fn default() -> EvalContext {
        EvalContext::new()
    }
}

impl fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalContext")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}
