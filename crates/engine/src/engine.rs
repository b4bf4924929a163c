//! The transaction-time active database engine.
//!
//! This is the substrate the paper's "temporal component" runs on top of: it
//! owns the current database state, the logical clock, the set of open
//! transactions and the system history, and it turns every occurrence —
//! transaction lifecycle, updates at commit, user events — into a new system
//! state appended to the history.
//!
//! Integrity-constraint gating uses a two-phase commit protocol:
//! [`Engine::prepare_commit`] builds the *candidate* post-commit system
//! state (with the `attempts_to_commit` event, exactly when the paper says
//! TCA rules run); the caller evaluates its constraints against it and then
//! either [`Engine::finish_commit`]s or [`Engine::abort_prepared`]s.

use std::collections::BTreeMap;

use tdb_relation::{Database, Timestamp};

use crate::clock::Clock;
use crate::error::{EngineError, Result};
use crate::event::{Event, EventSet};
use crate::state::{update_targets, History, SystemState, TIME_ITEM};
use crate::txn::{Transaction, TxnId, WriteOp};

/// A commit that has been prepared but not yet finished or aborted.
#[derive(Debug)]
pub struct PreparedCommit {
    txn: TxnId,
    candidate: SystemState,
}

impl PreparedCommit {
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The candidate post-commit system state (its event set contains
    /// `attempts_to_commit(T)` and `transaction_commit(T)` plus one
    /// `update(target)` event per touched catalog name).
    pub fn candidate(&self) -> &SystemState {
        &self.candidate
    }
}

/// The transaction-time engine.
#[derive(Debug)]
pub struct Engine {
    db: Database,
    clock: Clock,
    history: History,
    open: BTreeMap<TxnId, Transaction>,
    next_txn: u64,
    /// Advance the clock by one unit automatically when a new state would
    /// collide with the previous state's timestamp.
    auto_tick: bool,
    /// Whether `db` may hold writes no state has carried yet.
    unseen: bool,
}

impl Engine {
    /// Builds an engine over an initial database, recording the initial
    /// state at the clock origin.
    pub fn new(db: Database) -> Engine {
        let clock = Clock::default();
        let mut history = History::new();
        history.push(SystemState::new(db.clone(), EventSet::new(), clock.now()));
        Engine {
            db,
            clock,
            history,
            open: BTreeMap::new(),
            next_txn: 1,
            auto_tick: true,
            unseen: false,
        }
    }

    /// Rebuilds an engine from checkpointed parts. The history must be
    /// non-empty and end at or before `now`; checkpoints are taken at
    /// quiescent points, so no open transactions are restored (their ids
    /// resume from `next_txn`); `db` may hold writes no state carried yet.
    pub fn from_parts(
        db: Database,
        now: Timestamp,
        history: History,
        next_txn: u64,
        auto_tick: bool,
    ) -> Result<Engine> {
        if let Some(last) = history.last() {
            if last.time() > now {
                return Err(EngineError::ClockNotMonotonic {
                    now: now.0,
                    requested: last.time().0,
                });
            }
        }
        Ok(Engine {
            db,
            clock: Clock::starting_at(now),
            history,
            open: BTreeMap::new(),
            next_txn,
            auto_tick,
            unseen: true,
        })
    }

    /// Disables automatic clock bumping; emitting two states at the same
    /// instant then becomes an error surfaced as a panic from `History`.
    pub fn set_auto_tick(&mut self, on: bool) {
        self.auto_tick = on;
    }

    /// The id the next transaction will receive (durable across restarts).
    pub fn next_txn_id(&self) -> u64 {
        self.next_txn
    }

    /// Whether the clock auto-bumps to keep state timestamps unique.
    pub fn auto_tick(&self) -> bool {
        self.auto_tick
    }

    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The current (committed) database state.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the current database *outside* any transaction; the
    /// next state's delta names what these writes changed.
    pub fn db_mut(&mut self) -> &mut Database {
        self.unseen = true;
        &mut self.db
    }

    pub fn history(&self) -> &History {
        &self.history
    }

    /// Forgets the history states before global index `i` (see
    /// [`History::release_before`]). The engine itself reads only the last
    /// state.
    pub fn release_before(&mut self, i: usize) {
        self.history.release_before(i);
    }

    pub fn open_txns(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.open.keys().copied()
    }

    /// Advances the logical clock (no system state is created; states are
    /// created by events).
    pub fn advance_clock(&mut self, delta: i64) -> Result<Timestamp> {
        self.clock.advance_by(delta)
    }

    pub fn advance_clock_to(&mut self, t: Timestamp) -> Result<()> {
        self.clock.advance_to(t)
    }

    /// The timestamp the next emitted state will carry, honoring auto-tick.
    fn next_state_time(&mut self) -> Result<Timestamp> {
        let last = self.history.last().map(|s| s.time());
        match last {
            Some(last) if self.clock.now() <= last => {
                if self.auto_tick {
                    self.clock.advance_to(last.plus(1))?;
                    Ok(self.clock.now())
                } else {
                    Err(EngineError::ClockNotMonotonic {
                        now: last.0,
                        requested: self.clock.now().0,
                    })
                }
            }
            _ => Ok(self.clock.now()),
        }
    }

    /// The next state over `db`, whose delta names what its own writes
    /// `touched` and what the database changed outside any state since.
    fn next_state(
        &mut self,
        db: Database,
        events: EventSet,
        mut touched: Vec<String>,
    ) -> Result<SystemState> {
        let time = self.next_state_time()?;
        if let Some(last) = self.history.last().filter(|_| self.unseen) {
            touched.extend(changed_names(last.db(), &self.db));
        }
        Ok(SystemState::with_delta(db, events, time, touched))
    }

    /// Appends a state built by [`Engine::next_state`].
    fn push(&mut self, s: SystemState) -> usize {
        self.unseen = false;
        self.history.push(s)
    }

    /// Emits a new system state carrying `events` (database unchanged).
    /// Returns the global state index.
    pub fn emit(&mut self, events: EventSet) -> Result<usize> {
        let touched = update_targets(&events);
        let s = self.next_state(self.db.clone(), events, touched)?;
        Ok(self.push(s))
    }

    /// Emits a single user event.
    pub fn emit_event(&mut self, e: Event) -> Result<usize> {
        self.emit(EventSet::of([e]))
    }

    /// Emits a bare clock-tick state (used by timer-driven rules).
    pub fn tick(&mut self) -> Result<usize> {
        self.emit_event(Event::simple(crate::event::names::CLOCK_TICK))
    }

    /// Begins a transaction, emitting its `transaction_begin` state.
    pub fn begin(&mut self) -> Result<TxnId> {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let txn = Transaction::new(id, self.clock.now());
        self.open.insert(id, txn);
        self.emit_event(Event::txn_begin(id))?;
        Ok(id)
    }

    /// Buffers a write in an open transaction.
    pub fn write(&mut self, txn: TxnId, op: WriteOp) -> Result<()> {
        self.open
            .get_mut(&txn)
            .ok_or(EngineError::NoSuchTxn(txn))?
            .push_write(op);
        Ok(())
    }

    /// Builds the candidate post-commit state without committing. The write
    /// set is validated by applying it to a scratch copy of the database.
    pub fn prepare_commit(&mut self, txn: TxnId) -> Result<PreparedCommit> {
        let t = self.open.remove(&txn).ok_or(EngineError::NoSuchTxn(txn))?;
        let prepared = self.prepare(&t, []);
        self.open.insert(txn, t);
        prepared
    }

    /// The commit of `txn`: its writes on a copy of the database, raising the
    /// commit events, one `update(target)` per touched name and `extra_events`.
    fn prepare(
        &mut self,
        txn: &Transaction,
        extra_events: impl IntoIterator<Item = Event>,
    ) -> Result<PreparedCommit> {
        let mut post = self.db.clone();
        post.track_changes();
        txn.apply_all(&mut post)?;
        let touched = post.take_changes();
        let id = txn.id();
        let mut events = EventSet::of([Event::attempts_to_commit(id), Event::txn_commit(id)]);
        for target in txn.touched() {
            events.insert(Event::update(&target));
        }
        for e in extra_events {
            events.insert(e);
        }
        let candidate = self.next_state(post, events, touched)?;
        Ok(PreparedCommit { txn: id, candidate })
    }

    /// Finishes a prepared commit: appends the candidate state and installs
    /// the post-commit database. Returns the global state index.
    pub fn finish_commit(&mut self, prepared: PreparedCommit) -> Result<usize> {
        let mut t = self
            .open
            .remove(&prepared.txn)
            .ok_or(EngineError::NoSuchTxn(prepared.txn))?;
        t.mark_committed();
        self.db = prepared.candidate.db().clone();
        Ok(self.push(prepared.candidate))
    }

    /// Aborts a prepared commit (the candidate state is discarded); emits a
    /// `transaction_abort` state with the database unchanged.
    pub fn abort_prepared(&mut self, prepared: PreparedCommit) -> Result<usize> {
        self.abort(prepared.txn)
    }

    /// Aborts an open transaction outright.
    pub fn abort(&mut self, txn: TxnId) -> Result<usize> {
        let mut t = self.open.remove(&txn).ok_or(EngineError::NoSuchTxn(txn))?;
        t.mark_aborted();
        self.emit_event(Event::txn_abort(txn))
    }

    /// Builds a prepared commit for `ops` as a one-shot transaction without
    /// a separate `transaction_begin` state. `extra_events` are merged into
    /// the candidate state's event set (e.g. `rule_execute` when the update
    /// is a rule action). The caller gates it exactly like
    /// [`Engine::prepare_commit`].
    pub fn prepare_update(
        &mut self,
        ops: impl IntoIterator<Item = WriteOp>,
        extra_events: impl IntoIterator<Item = Event>,
    ) -> Result<PreparedCommit> {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let mut txn = Transaction::new(id, self.clock.now());
        for op in ops {
            txn.push_write(op);
        }
        let prepared = self.prepare(&txn, extra_events)?;
        self.open.insert(id, txn);
        Ok(prepared)
    }

    /// Applies `ops` as one atomic, immediately committed update, producing
    /// a *single* system state (no separate `transaction_begin` state).
    /// This is the compact form used by workloads and by histories built to
    /// match the paper's worked examples, where each update is one state.
    pub fn apply_update(&mut self, ops: impl IntoIterator<Item = WriteOp>) -> Result<usize> {
        let prepared = self.prepare_update(ops, [])?;
        self.finish_commit(prepared)
    }
}

/// The relations and items whose value in `new` differs from `old`, the
/// clock item aside (every state rewrites it).
fn changed_names(old: &Database, new: &Database) -> Vec<String> {
    let relations = new
        .relation_names()
        .filter(|n| match (old.relation(n), new.relation(n)) {
            (Ok(a), Ok(b)) => !std::ptr::eq(a, b) && a != b,
            _ => true,
        });
    let items = new
        .item_names()
        .filter(|n| *n != TIME_ITEM && old.item(n).ok() != new.item(n).ok());
    relations.chain(items).map(str::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_relation::{tuple, Relation, Schema, Value};

    fn engine() -> Engine {
        let mut db = Database::new();
        db.create_relation(
            "STOCK",
            Relation::empty(Schema::untyped(&["name", "price"])),
        )
        .unwrap();
        Engine::new(db)
    }

    #[test]
    fn initial_state_recorded() {
        let e = engine();
        assert_eq!(e.history().len(), 1);
        assert_eq!(e.history().get(0).unwrap().time(), Timestamp(0));
    }

    #[test]
    fn commit_applies_writes_atomically() {
        let mut e = engine();
        let t = e.begin().unwrap();
        e.write(
            t,
            WriteOp::Insert {
                relation: "STOCK".into(),
                tuple: tuple!["IBM", 72i64],
            },
        )
        .unwrap();
        assert!(
            e.db().relation("STOCK").unwrap().is_empty(),
            "buffered until commit"
        );
        let p = e.prepare_commit(t).unwrap();
        assert!(
            p.candidate().db().relation("STOCK").unwrap().len() == 1,
            "candidate sees the write"
        );
        assert!(
            e.db().relation("STOCK").unwrap().is_empty(),
            "prepare has no effect"
        );
        e.finish_commit(p).unwrap();
        assert_eq!(e.db().relation("STOCK").unwrap().len(), 1);
        e.history().validate_transaction_time().unwrap();
    }

    #[test]
    fn abort_discards_writes() {
        let mut e = engine();
        let t = e.begin().unwrap();
        e.write(
            t,
            WriteOp::SetItem {
                item: "x".into(),
                value: Value::Int(1),
            },
        )
        .unwrap();
        let p = e.prepare_commit(t).unwrap();
        e.abort_prepared(p).unwrap();
        assert!(e.db().item("x").is_err());
        assert!(e
            .write(
                t,
                WriteOp::SetItem {
                    item: "x".into(),
                    value: Value::Int(2)
                }
            )
            .is_err());
        // History ends with a transaction_abort event.
        let last = e.history().last().unwrap();
        assert!(last.events().has_named(crate::event::names::TXN_ABORT));
    }

    #[test]
    fn commit_state_carries_update_events() {
        let mut e = engine();
        let t = e.begin().unwrap();
        for op in [
            WriteOp::Insert {
                relation: "STOCK".into(),
                tuple: tuple!["IBM", 72i64],
            },
            WriteOp::SetItem {
                item: "F".into(),
                value: Value::Int(0),
            },
        ] {
            e.write(t, op).unwrap();
        }
        let p = e.prepare_commit(t).unwrap();
        let idx = e.finish_commit(p).unwrap();
        let s = e.history().get(idx).unwrap();
        assert!(s.events().contains(&Event::update("STOCK")));
        assert!(s.events().contains(&Event::update("F")));
        assert!(s
            .events()
            .has_named(crate::event::names::ATTEMPTS_TO_COMMIT));
        assert_eq!(s.events().commit_count(), 1);
    }

    #[test]
    fn auto_tick_keeps_time_strictly_increasing() {
        let mut e = engine();
        let a = e.emit_event(Event::simple("x")).unwrap();
        let b = e.emit_event(Event::simple("y")).unwrap();
        let (ta, tb) = (
            e.history().get(a).unwrap().time(),
            e.history().get(b).unwrap().time(),
        );
        assert!(tb > ta);
    }

    #[test]
    fn no_auto_tick_errors_on_collision() {
        let mut e = engine();
        e.set_auto_tick(false);
        // Initial state is at t0 and the clock is still at t0.
        assert!(matches!(
            e.emit_event(Event::simple("x")),
            Err(EngineError::ClockNotMonotonic { .. })
        ));
        e.advance_clock(1).unwrap();
        assert!(e.emit_event(Event::simple("x")).is_ok());
    }

    #[test]
    fn clock_advances_are_reflected_in_states() {
        let mut e = engine();
        e.advance_clock(10).unwrap();
        let idx = e.tick().unwrap();
        assert_eq!(e.history().get(idx).unwrap().time(), Timestamp(10));
        assert_eq!(
            e.history().get(idx).unwrap().db().item("time").unwrap(),
            Value::Time(Timestamp(10))
        );
    }

    #[test]
    fn unknown_txn_operations_fail() {
        let mut e = engine();
        let ghost = TxnId(99);
        assert!(e
            .write(
                ghost,
                WriteOp::SetItem {
                    item: "x".into(),
                    value: Value::Int(1)
                }
            )
            .is_err());
        assert!(e.prepare_commit(ghost).is_err());
        assert!(e.abort(ghost).is_err());
    }

    #[test]
    fn invalid_write_fails_at_prepare() {
        let mut e = engine();
        let t = e.begin().unwrap();
        e.write(
            t,
            WriteOp::Insert {
                relation: "NOPE".into(),
                tuple: tuple![1i64],
            },
        )
        .unwrap();
        assert!(e.prepare_commit(t).is_err());
        // Transaction is still open; it can be aborted cleanly.
        e.abort(t).unwrap();
    }
}
