//! System states and histories.
//!
//! "A system state is a pair (S, E) where S is the database state and E is
//! the set of events … A system history is a finite sequence
//! (S0, E0), …, (Si, Ei)." Each state also carries the timestamp at which
//! its event set occurred; timestamps are strictly increasing.

use std::fmt;
use std::sync::Arc;

use tdb_relation::{Database, Delta, Timestamp, Value};

use crate::error::{EngineError, Result};
use crate::event::names::UPDATE;
use crate::event::EventSet;

/// The reserved name of the data item exposing the global clock.
pub const TIME_ITEM: &str = "time";

/// Registry handle for `tdb_states_total` (system states appended to any
/// history), resolved once per process. Touched only while
/// [`tdb_obs::enabled`].
fn states_counter() -> &'static tdb_obs::Counter {
    static COUNTER: std::sync::OnceLock<tdb_obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| tdb_obs::global().counter("tdb_states_total"))
}

/// One snapshot of the system: database state + simultaneous events + time.
#[derive(Debug, Clone)]
pub struct SystemState {
    /// Shared so that per-rule evaluation (and snapshots of the state taken
    /// by residual formulas) can hold the database without copying it.
    db: Arc<Database>,
    events: EventSet,
    time: Timestamp,
    /// What this state changed: touched catalog names + raised event names.
    /// Shared because dispatch consults it once per registered rule set.
    delta: Arc<Delta>,
}

/// Equality compares the observable state — database, events, time. The
/// delta is derived data (commit states carry one `update(target)` event
/// per touched name, so it reconstructs from the event set) and two equal
/// states always carry equal deltas.
impl PartialEq for SystemState {
    fn eq(&self, other: &SystemState) -> bool {
        self.db == other.db && self.events == other.events && self.time == other.time
    }
}

/// The catalog names a state's `update(target)` events say it touched.
pub(crate) fn update_targets(events: &EventSet) -> Vec<String> {
    events
        .named(UPDATE)
        .filter_map(|e| e.args().first().and_then(|v| v.as_str()))
        .map(str::to_string)
        .collect()
}

impl SystemState {
    /// Builds a state, stamping the `time` data item into the snapshot so
    /// that queries (and PTL terms) can read the clock. The delta is
    /// derived from the event set (sufficient for every state the engine
    /// produces, since commits tag their writes with `update` events).
    pub fn new(db: Database, events: EventSet, time: Timestamp) -> SystemState {
        let touched = update_targets(&events);
        SystemState::with_delta(db, events, time, touched)
    }

    /// Builds a state with an explicitly tracked write set (from
    /// [`Database::track_changes`]); the engine's commit paths use this so
    /// the delta comes from the writes actually applied rather than from
    /// the event annotations. The two sources coincide for engine-built
    /// states — [`SystemState::new`] is the general fallback.
    pub fn with_delta(
        mut db: Database,
        events: EventSet,
        time: Timestamp,
        touched: Vec<String>,
    ) -> SystemState {
        let raised = events.iter().map(|e| e.name().to_string()).collect();
        let delta = Delta::new(touched, raised);
        db.set_item(TIME_ITEM, Value::Time(time));
        SystemState {
            db: Arc::new(db),
            events,
            time,
            delta: Arc::new(delta),
        }
    }

    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The database snapshot as a cheaply clonable handle.
    pub fn db_arc(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    pub fn events(&self) -> &EventSet {
        &self.events
    }

    pub fn time(&self) -> Timestamp {
        self.time
    }

    /// What this state changed (touched catalog names, raised events).
    pub fn delta(&self) -> &Delta {
        &self.delta
    }
}

impl fmt::Display for SystemState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {}", self.time, self.events)
    }
}

/// A finite sequence of system states with strictly increasing timestamps.
///
/// Only a suffix may be retained in memory: the incremental evaluator never
/// reads old states (Theorem 1), so a holder may forget a prefix with
/// [`History::release_before`]. The *offset* of the first retained state is
/// tracked, so global indices stay stable. The naive baseline, library
/// callers and the valid-time machinery keep every state.
#[derive(Debug, Clone, Default)]
pub struct History {
    states: Vec<SystemState>,
    /// Global index of `states[0]`.
    offset: usize,
}

impl History {
    pub fn new() -> History {
        History::default()
    }

    /// Rebuilds a history from checkpointed parts: the global index of the
    /// first retained state and the (non-empty) retained suffix. Checkpoint
    /// bytes come from disk, so every condition [`History::push`] asserts
    /// is a typed error here.
    pub fn from_parts(offset: usize, states: Vec<SystemState>) -> Result<History> {
        let malformed = |why: String| Err(EngineError::MalformedHistory(why));
        if states.is_empty() || offset.checked_add(states.len()).is_none() {
            return malformed(format!("{} states at offset {offset}", states.len()));
        }
        for w in states.windows(2) {
            if w[1].time() <= w[0].time() {
                return malformed(format!(
                    "timestamps must strictly increase ({} then {})",
                    w[0].time(),
                    w[1].time()
                ));
            }
        }
        if let Some(s) = states.iter().find(|s| s.events().commit_count() > 1) {
            return malformed(format!("two transactions commit at {}", s.time()));
        }
        Ok(History { states, offset })
    }

    /// Total number of states ever appended.
    pub fn len(&self) -> usize {
        self.offset + self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of states currently retained in memory.
    pub fn retained(&self) -> usize {
        self.states.len()
    }

    /// The state at global index `i`, if still retained.
    pub fn get(&self, i: usize) -> Option<&SystemState> {
        i.checked_sub(self.offset).and_then(|j| self.states.get(j))
    }

    /// The most recent state.
    pub fn last(&self) -> Option<&SystemState> {
        self.states.last()
    }

    /// Global index of the most recent state.
    pub fn last_index(&self) -> Option<usize> {
        self.len().checked_sub(1)
    }

    /// Appends a state, enforcing strictly increasing timestamps and the
    /// at-most-one-commit-per-state constraint. Returns the global index.
    pub fn push(&mut self, s: SystemState) -> usize {
        if let Some(prev) = self.states.last() {
            assert!(
                s.time() > prev.time(),
                "history timestamps must strictly increase ({} then {})",
                prev.time(),
                s.time()
            );
        }
        assert!(
            s.events().commit_count() <= 1,
            "at most one transaction may commit per system state"
        );
        if tdb_obs::enabled() {
            states_counter().inc();
        }
        self.states.push(s);
        self.len() - 1
    }

    /// Forgets the retained states before global index `i`. Global indices
    /// stay stable: `len()` is unchanged and `get` of a released index is
    /// `None`.
    pub fn release_before(&mut self, i: usize) {
        let k = i.saturating_sub(self.offset).min(self.states.len());
        self.states.drain(..k);
        self.offset += k;
    }

    /// Splits the history at global index `at`: the states from `at` on are
    /// removed and returned in order, so `len()` becomes `at`. A no-op past
    /// the end; states already released stay released.
    pub fn split_off(&mut self, at: usize) -> Vec<SystemState> {
        let j = at.saturating_sub(self.offset).min(self.states.len());
        self.states.split_off(j)
    }

    /// Renumbers the history down by `k`: the state at index `i ≥ k` becomes
    /// index `i − k`, states before `k` are dropped (the valid-time engine
    /// folds a definite prefix into its base and renumbers the live suffix).
    pub fn drop_front(&mut self, k: usize) {
        let drop = k.saturating_sub(self.offset).min(self.states.len());
        self.states.drain(..drop);
        self.offset = self.offset.saturating_sub(k);
    }

    /// Iterates retained states with their global indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &SystemState)> {
        self.states
            .iter()
            .enumerate()
            .map(|(j, s)| (self.offset + j, s))
    }

    /// Index of the latest state with `time() <= t`, if any is retained.
    pub fn index_at(&self, t: Timestamp) -> Option<usize> {
        let j = self.states.partition_point(|s| s.time() <= t);
        j.checked_sub(1).map(|j| self.offset + j)
    }

    /// Validates the transaction-time invariant: the database state changes
    /// only across a commit. Used by tests and debug assertions.
    pub fn validate_transaction_time(&self) -> std::result::Result<(), String> {
        fn normalized(db: &Database) -> Database {
            // The `time` item differs in every state by construction; ignore it.
            let mut db = db.clone();
            db.set_item(TIME_ITEM, Value::Null);
            db
        }
        for w in self.states.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if b.events().commit_count() == 0 && normalized(a.db()) != normalized(b.db()) {
                return Err(format!(
                    "database changed at {} without a commit event",
                    b.time()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventSet};
    use crate::txn::TxnId;

    fn state(t: i64, events: EventSet) -> SystemState {
        SystemState::new(Database::new(), events, Timestamp(t))
    }

    #[test]
    fn time_item_is_stamped() {
        let s = state(7, EventSet::new());
        assert_eq!(s.db().item(TIME_ITEM).unwrap(), Value::Time(Timestamp(7)));
    }

    #[test]
    fn delta_derives_from_update_events() {
        let s = state(
            1,
            EventSet::of([
                Event::txn_commit(TxnId(1)),
                Event::update("STOCK"),
                Event::update("balance"),
            ]),
        );
        assert_eq!(
            s.delta().touched_relations,
            vec!["STOCK".to_string(), "balance".to_string()]
        );
        assert!(s.delta().raises(crate::event::names::TXN_COMMIT));
        assert!(s.delta().raises(crate::event::names::UPDATE));
        assert!(s.delta().touches("STOCK"));
        assert!(!s.delta().touches("OTHER"));
    }

    #[test]
    fn explicit_delta_matches_event_derived_delta() {
        let events = EventSet::of([
            Event::txn_commit(TxnId(3)),
            Event::update("A"),
            Event::update("B"),
        ]);
        let derived = state(2, events.clone());
        let explicit = SystemState::with_delta(
            Database::new(),
            events,
            Timestamp(2),
            vec!["B".into(), "A".into()],
        );
        assert_eq!(derived.delta(), explicit.delta());
        assert_eq!(derived, explicit, "delta never affects state equality");
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_non_increasing_time() {
        let mut h = History::new();
        h.push(state(5, EventSet::new()));
        h.push(state(5, EventSet::new()));
    }

    #[test]
    #[should_panic(expected = "at most one transaction")]
    fn rejects_two_commits() {
        let mut h = History::new();
        h.push(state(
            1,
            EventSet::of([Event::txn_commit(TxnId(1)), Event::txn_commit(TxnId(2))]),
        ));
    }

    #[test]
    fn released_history_keeps_global_indices() {
        let mut h = History::new();
        for t in 0..5 {
            let idx = h.push(state(t, EventSet::new()));
            assert_eq!(idx as i64, t);
        }
        h.release_before(3);
        h.release_before(1); // already released: a no-op
        assert_eq!(h.len(), 5);
        assert_eq!(h.retained(), 2);
        assert!(h.get(2).is_none());
        assert_eq!(h.get(3).unwrap().time(), Timestamp(3));
        assert_eq!(h.last_index(), Some(4));
        assert_eq!(h.push(state(5, EventSet::new())), 5);
        assert_eq!(h.index_at(Timestamp(4)), Some(4));
    }

    #[test]
    fn malformed_parts_are_typed_errors() {
        let backwards = vec![state(5, EventSet::new()), state(3, EventSet::new())];
        let two_commits = vec![state(
            1,
            EventSet::of([Event::txn_commit(TxnId(1)), Event::txn_commit(TxnId(2))]),
        )];
        for (offset, states) in [
            (0, backwards),
            (0, two_commits),
            (0, Vec::new()),
            (usize::MAX, vec![state(1, EventSet::new())]),
        ] {
            assert!(matches!(
                History::from_parts(offset, states),
                Err(EngineError::MalformedHistory(_))
            ));
        }
        let h = History::from_parts(7, vec![state(1, EventSet::new())]).unwrap();
        assert_eq!((h.len(), h.retained()), (8, 1));
    }

    #[test]
    fn split_off_and_drop_front_renumber() {
        let mut h = History::new();
        for t in 0..6 {
            h.push(state(t, EventSet::new()));
        }
        let tail = h.split_off(4);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].time(), Timestamp(4));
        assert_eq!(h.len(), 4);
        assert!(h.split_off(9).is_empty(), "past the end is a no-op");
        // Dropping the front renumbers: old index 3 is the new index 1.
        h.drop_front(2);
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(1).unwrap().time(), Timestamp(3));
        assert_eq!(h.push(state(9, EventSet::new())), 2);
        h.drop_front(7);
        assert!(h.is_empty());
    }

    #[test]
    fn index_at_finds_latest_not_after() {
        let mut h = History::new();
        for t in [1i64, 3, 7] {
            h.push(state(t, EventSet::new()));
        }
        assert_eq!(h.index_at(Timestamp(0)), None);
        assert_eq!(h.index_at(Timestamp(3)), Some(1));
        assert_eq!(h.index_at(Timestamp(5)), Some(1));
        assert_eq!(h.index_at(Timestamp(9)), Some(2));
    }

    #[test]
    fn validate_transaction_time_detects_untracked_change() {
        let mut h = History::new();
        let mut db = Database::new();
        h.push(SystemState::new(db.clone(), EventSet::new(), Timestamp(1)));
        db.set_item("x", Value::Int(1));
        h.push(SystemState::new(db, EventSet::new(), Timestamp(2)));
        assert!(h.validate_transaction_time().is_err());
    }
}
