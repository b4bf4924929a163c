//! The valid-time system model (Section 9).
//!
//! Updates carry a *valid time* that may precede the transaction time by up
//! to a maximum delay Δ; the engine inserts them retroactively at their
//! valid time. Any database value younger than Δ may still change, so the
//! engine offers several views of its live states:
//!
//! * [`VtEngine::tentative_window`] — every posted update of a
//!   non-aborted transaction takes effect at its valid time (what a
//!   *tentative* trigger evaluates). This view is *maintained*: each
//!   mutator re-derives only the states whose content it changed (see
//!   [`VtEngine::merge_state`]), so an in-order arrival costs one state
//!   and a late one the suffix it actually revises.
//!   [`VtEngine::tentative_history`] rebuilds the same view from scratch
//!   and is what the tests compare the window against;
//! * [`VtEngine::committed_history`]`(t)` — the paper's *committed history
//!   at time t*: the prefix of states with timestamp ≤ t, with the effects
//!   of updates uncommitted in that prefix stripped out;
//! * [`VtEngine::collapsed_committed_history`] — each committed
//!   transaction's updates applied at its commit point instead of its valid
//!   time, turning the valid-time history into a transaction-time one
//!   (the construction of Theorem 2).
//!
//! The last two are materialized on demand. A *definite* firing is one the
//! watermark `now − Δ` has strictly passed: no admissible update can reach
//! its state any more.

use std::collections::BTreeMap;

use tdb_relation::{Database, Timestamp};

use crate::clock::Clock;
use crate::error::{EngineError, Result};
use crate::event::{Event, EventSet};
use crate::state::{History, SystemState};
use crate::txn::{TxnId, TxnStatus, WriteOp};

/// One update occurrence in the valid-time history.
#[derive(Debug, Clone)]
struct VtUpdate {
    txn: TxnId,
    op: WriteOp,
}

/// One valid-time system state: events plus the updates that occurred at
/// this instant (its tentative database state lives in the window).
#[derive(Debug, Clone)]
struct VtState {
    time: Timestamp,
    events: EventSet,
    updates: Vec<VtUpdate>,
}

#[derive(Debug, Clone)]
struct VtTxn {
    status: TxnStatus,
    commit_time: Option<Timestamp>,
    /// Number of this transaction's updates still held in live (uncompacted)
    /// states; once it reaches zero a decided transaction behind the
    /// compaction cutoff can be forgotten, keeping the txn table O(Δ).
    live_updates: usize,
    /// Valid time of the transaction's earliest update (for re-evaluation
    /// after an abort).
    first_update: Option<Timestamp>,
}

/// The valid-time engine.
#[derive(Debug, Clone)]
pub struct VtEngine {
    base: Database,
    clock: Clock,
    states: Vec<VtState>,
    txns: BTreeMap<TxnId, VtTxn>,
    next_txn: u64,
    /// The maximum delay Δ: an update's valid time may lag the current time
    /// by at most this many clock units.
    max_delay: i64,
    /// Number of states folded into `base` by [`VtEngine::compact_before`];
    /// global state indices are `local index + compacted`.
    compacted: usize,
    /// The materialized tentative history of `states`, state for state.
    /// Every mutator leaves it current, so `window.len() == states.len()`
    /// between calls.
    window: History,
}

/// The gate of a mutation nobody vetoes.
fn ungated(_: &History, _: usize) -> Result<()> {
    Ok(())
}

/// Re-applies a stored update to a view being materialized. Every stored
/// update applied when it was posted ([`VtEngine::merge_state`] rejects it
/// otherwise), and whether a write applies depends on the schema alone,
/// which is frozen once history exists ([`VtEngine::base_mut`]) — so this
/// cannot fail.
fn reapply(op: &WriteOp, db: &mut Database) {
    let applied = op.apply(db);
    debug_assert!(
        applied.is_ok(),
        "stored valid-time update no longer applies: {applied:?}"
    );
}

impl VtEngine {
    pub fn new(base: Database, max_delay: i64) -> VtEngine {
        VtEngine {
            base,
            clock: Clock::default(),
            states: Vec::new(),
            txns: BTreeMap::new(),
            next_txn: 1,
            max_delay: max_delay.max(0),
            compacted: 0,
            window: History::new(),
        }
    }

    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    pub fn max_delay(&self) -> i64 {
        self.max_delay
    }

    /// The watermark `now − Δ`: values with a timestamp strictly before it
    /// are definite (an update may still land at it).
    pub fn definite_frontier(&self) -> Timestamp {
        self.now().minus(self.max_delay)
    }

    pub fn advance_clock(&mut self, delta: i64) -> Result<Timestamp> {
        self.clock.advance_by(delta)
    }

    /// Advances the clock to an absolute instant (equal is allowed — several
    /// events may arrive at one instant).
    pub fn advance_clock_to(&mut self, t: Timestamp) -> Result<Timestamp> {
        self.clock.advance_to(t)?;
        Ok(self.now())
    }

    /// A deep copy used to validate a commit against the constraints before
    /// actually committing (the valid-time engine has no prepared commits —
    /// a commit only adds a state, so probing a clone is cheap).
    pub fn clone_for_probe(&self) -> VtEngine {
        self.clone()
    }

    /// The base database: the schema seed with every compacted state
    /// folded in.
    pub fn base(&self) -> &Database {
        &self.base
    }

    /// Mutable access to the base database, for schema seeding (relations,
    /// query definitions, item pokes) before the first update. States
    /// derive from the base, so once any state exists — live or compacted —
    /// or a transaction is open, a base edit would silently rewrite
    /// history; that is [`EngineError::SeedAfterHistory`].
    pub fn base_mut(&mut self) -> Result<&mut Database> {
        if !self.states.is_empty() || self.compacted > 0 || !self.txns.is_empty() {
            return Err(EngineError::SeedAfterHistory);
        }
        Ok(&mut self.base)
    }

    /// Begins a transaction (its begin event is recorded at the current
    /// time, which is also its valid time — lifecycle events are never
    /// retroactive).
    pub fn begin(&mut self) -> Result<TxnId> {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.txns.insert(
            id,
            VtTxn {
                status: TxnStatus::Active,
                commit_time: None,
                live_updates: 0,
                first_update: None,
            },
        );
        self.merge_state(
            self.now(),
            EventSet::of([Event::txn_begin(id)]),
            Vec::new(),
            ungated,
        )?;
        Ok(id)
    }

    /// An update's valid time must lie in `[now − Δ, now]`.
    fn check_valid_time(&self, valid: Timestamp) -> Result<()> {
        let now = self.now();
        if valid > now {
            return Err(EngineError::ValidTimeInFuture {
                valid: valid.0,
                now: now.0,
            });
        }
        let limit = now.minus(self.max_delay);
        if valid < limit {
            return Err(EngineError::ValidTimeTooOld {
                valid: valid.0,
                limit: limit.0,
            });
        }
        Ok(())
    }

    /// Posts an update with an explicit valid time. Returns the index of
    /// the (possibly newly created) state at that valid time — the earliest
    /// state a tentative trigger must re-evaluate from.
    pub fn update_at(&mut self, txn: TxnId, op: WriteOp, valid: Timestamp) -> Result<usize> {
        let info = self.txns.get(&txn).ok_or(EngineError::NoSuchTxn(txn))?;
        if info.status != TxnStatus::Active {
            return Err(EngineError::NoSuchTxn(txn));
        }
        self.check_valid_time(valid)?;
        let events = EventSet::of([Event::update(op.target())]);
        let idx = self.merge_state(valid, events, vec![VtUpdate { txn, op }], ungated)?;
        if let Some(info) = self.txns.get_mut(&txn) {
            info.live_updates += 1;
            info.first_update = Some(info.first_update.map_or(valid, |f| f.min(valid)));
        }
        Ok(idx)
    }

    /// Stream ingestion for watermarked out-of-order arrival: posts `ops` at
    /// their valid time as a transaction that commits instantly, recording
    /// no lifecycle event states. The commit point is the *valid* instant,
    /// so the resulting state set depends only on `(valid, ops)` — never on
    /// arrival time — which is what makes Δ-bounded disorder replayable:
    /// every arrival permutation of the same events yields byte-identical
    /// histories. Returns the (local) index of the state at `valid`. A
    /// rejected ingest (outside the Δ window, or an op that does not apply,
    /// e.g. to an unknown relation) leaves the engine untouched.
    pub fn ingest_committed(&mut self, ops: Vec<WriteOp>, valid: Timestamp) -> Result<usize> {
        self.ingest_committed_gated(ops, valid, ungated)
    }

    /// [`VtEngine::ingest_committed`] with a veto: `gate` sees the tentative
    /// history up to and including the would-be state at `valid` (and that
    /// state's index) before anything is committed to it; if it returns an
    /// error the ingest is dropped, the engine is exactly as before, and the
    /// error is handed back. Past-time conditions at the candidate state
    /// read nothing younger, so this is all an online constraint check needs.
    pub fn ingest_committed_gated<E: From<EngineError>>(
        &mut self,
        ops: Vec<WriteOp>,
        valid: Timestamp,
        gate: impl FnOnce(&History, usize) -> std::result::Result<(), E>,
    ) -> std::result::Result<usize, E> {
        self.check_valid_time(valid)?;
        let id = TxnId(self.next_txn);
        let txn = VtTxn {
            status: TxnStatus::Committed,
            commit_time: Some(valid),
            live_updates: ops.len(),
            first_update: if ops.is_empty() { None } else { Some(valid) },
        };
        let events = EventSet::of(ops.iter().map(|op| Event::update(op.target())));
        let updates = ops.into_iter().map(|op| VtUpdate { txn: id, op }).collect();
        let idx = self.merge_state(valid, events, updates, gate)?;
        self.next_txn += 1;
        self.txns.insert(id, txn);
        Ok(idx)
    }

    /// Posts an update effective right now.
    pub fn update(&mut self, txn: TxnId, op: WriteOp) -> Result<usize> {
        self.update_at(txn, op, self.now())
    }

    /// Commits a transaction at the current time. At most one commit per
    /// instant is allowed; the clock is bumped if a commit already occupies
    /// the current instant.
    pub fn commit(&mut self, txn: TxnId) -> Result<usize> {
        let info = self.txns.get(&txn).ok_or(EngineError::NoSuchTxn(txn))?;
        if info.status != TxnStatus::Active {
            return Err(EngineError::NoSuchTxn(txn));
        }
        // Enforce "no two transactions commit simultaneously".
        if let Some(s) = self.state_at(self.now()) {
            if s.events.commit_count() > 0 {
                self.clock.advance_by(1)?;
            }
        }
        let now = self.now();
        let events = EventSet::of([Event::attempts_to_commit(txn), Event::txn_commit(txn)]);
        let idx = self.merge_state(now, events, Vec::new(), ungated)?;
        if let Some(info) = self.txns.get_mut(&txn) {
            info.status = TxnStatus::Committed;
            info.commit_time = Some(now);
        }
        Ok(idx)
    }

    /// Aborts a transaction; its updates are ignored by every history view.
    pub fn abort(&mut self, txn: TxnId) -> Result<usize> {
        let info = self.txns.get_mut(&txn).ok_or(EngineError::NoSuchTxn(txn))?;
        if info.status != TxnStatus::Active {
            return Err(EngineError::NoSuchTxn(txn));
        }
        info.status = TxnStatus::Aborted;
        let first = info.first_update;
        let now = self.now();
        let idx = self.merge_state(
            now,
            EventSet::of([Event::txn_abort(txn)]),
            Vec::new(),
            ungated,
        )?;
        // The transaction's updates leave the tentative view wherever they
        // sit, so no state after its earliest one can be assumed unchanged.
        if let Some(i) = first.and_then(|t| self.state_index_at(t)) {
            self.rederive_from(i)?;
        }
        Ok(idx)
    }

    /// Number of live (uncompacted) valid-time states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of states folded into the base by [`VtEngine::compact_before`].
    /// The global index of live state `i` is `i + compacted()`.
    pub fn compacted(&self) -> usize {
        self.compacted
    }

    /// Local index of the live state at exactly `t`, if one exists.
    pub fn state_index_at(&self, t: Timestamp) -> Option<usize> {
        self.states.binary_search_by_key(&t, |s| s.time).ok()
    }

    /// Valid time of `txn`'s earliest update, if any survive uncompacted.
    pub fn first_update_of(&self, txn: TxnId) -> Option<Timestamp> {
        self.txns.get(&txn).and_then(|i| i.first_update)
    }

    /// Folds every state strictly before `cutoff` into the base database and
    /// drops it from the live history, keeping memory O(Δ) instead of
    /// O(history). Folding must not change any future materialized view, so
    /// every update in the folded prefix must belong to a *decided*
    /// transaction whose commit point is itself behind `cutoff` (always true
    /// for [`VtEngine::ingest_committed`] streams, where the commit point is
    /// the valid instant); otherwise [`EngineError::CompactionBlocked`] is
    /// returned and nothing is folded. Returns the number of folded states.
    pub fn compact_before(&mut self, cutoff: Timestamp) -> Result<usize> {
        let k = self.states.partition_point(|s| s.time < cutoff);
        if k == 0 {
            return Ok(0);
        }
        // Validate before mutating: all-or-nothing.
        for s in &self.states[..k] {
            for u in &s.updates {
                let decided_behind = self.txns.get(&u.txn).is_some_and(|i| match i.status {
                    TxnStatus::Aborted => true,
                    TxnStatus::Committed => i.commit_time.is_some_and(|ct| ct < cutoff),
                    TxnStatus::Active => false,
                });
                if !decided_behind {
                    return Err(EngineError::CompactionBlocked { txn: u.txn });
                }
            }
        }
        for s in &self.states[..k] {
            for u in &s.updates {
                if self
                    .txns
                    .get(&u.txn)
                    .is_some_and(|i| i.status == TxnStatus::Committed)
                {
                    u.op.apply(&mut self.base)?;
                }
                if let Some(info) = self.txns.get_mut(&u.txn) {
                    info.live_updates = info.live_updates.saturating_sub(1);
                }
            }
        }
        self.states.drain(..k);
        self.window.drop_front(k);
        self.compacted += k;
        // Transactions wholly behind the fold can be forgotten.
        self.txns.retain(|_, i| {
            i.status == TxnStatus::Active
                || i.live_updates > 0
                || i.commit_time.is_some_and(|ct| ct >= cutoff)
        });
        Ok(k)
    }

    fn state_at(&self, t: Timestamp) -> Option<&VtState> {
        self.states
            .binary_search_by_key(&t, |s| s.time)
            .ok()
            .map(|i| &self.states[i])
    }

    /// Inserts or merges `(events, updates)` at `t` and returns the state's
    /// index, keeping the tentative window current at the cost of the states
    /// whose content changes — the window's one invalidation rule:
    ///
    /// 1. the would-be state at `t` is derived from its predecessor (or, for
    ///    a same-instant merge, from the state it extends) *before* anything
    ///    is mutated, so an update that does not apply is a typed error that
    ///    leaves the engine untouched;
    /// 2. `gate` sees the window cut to end at that candidate and may veto
    ///    it, in which case the window is put back as it was;
    /// 3. the later states are re-derived in order until one comes out
    ///    content-equal (database, events, timestamp) to the state it
    ///    replaces: each state is a function of its predecessor and its own
    ///    updates, and only the state at `t` gained any, so from there on the
    ///    old states are still right and are kept as they are (the very same
    ///    objects — what lets a tentative trigger's checkpoints recognise
    ///    them). A mutation without updates changes no database, so every
    ///    later state is kept outright; an in-order arrival has none.
    ///
    /// The caller vouches that `updates` belong to a non-aborted transaction.
    fn merge_state<E: From<EngineError>>(
        &mut self,
        t: Timestamp,
        events: EventSet,
        updates: Vec<VtUpdate>,
        gate: impl FnOnce(&History, usize) -> std::result::Result<(), E>,
    ) -> std::result::Result<usize, E> {
        let pos = self.states.binary_search_by_key(&t, |s| s.time);
        let (Ok(idx) | Err(idx)) = pos;
        let mut merged = events.clone();
        let parent = match pos {
            Ok(i) => {
                merged.union_with(&self.states[i].events);
                Some(i)
            }
            Err(i) => i.checked_sub(1),
        };
        if events.commit_count() > 0 && merged.commit_count() > 1 {
            return Err(EngineError::SimultaneousCommit.into());
        }
        let mut db = self.db_after(parent).clone();
        for u in &updates {
            u.op.apply(&mut db)?;
        }
        let candidate = SystemState::new(db, merged, t);

        let tail = self.window.split_off(idx);
        self.window.push(candidate);
        if let Err(e) = gate(&self.window, idx) {
            self.window.split_off(idx);
            for s in tail {
                self.window.push(s);
            }
            return Err(e);
        }

        let mut old = tail.into_iter();
        let db_changed = !updates.is_empty();
        match pos {
            Ok(i) => {
                old.next();
                let s = &mut self.states[i];
                s.events.union_with(&events);
                s.updates.extend(updates);
            }
            Err(i) => self.states.insert(
                i,
                VtState {
                    time: t,
                    events,
                    updates,
                },
            ),
        }
        if db_changed {
            for o in old.by_ref() {
                let fresh = self.derive(self.window.len())?;
                let converged = fresh == o;
                self.window.push(if converged { o } else { fresh });
                if converged {
                    break;
                }
            }
        }
        for o in old {
            self.window.push(o);
        }
        Ok(idx)
    }

    /// Whether `txn`'s updates show in the tentative view (every
    /// non-aborted transaction's do).
    fn is_tentative(&self, txn: TxnId) -> bool {
        self.txns
            .get(&txn)
            .is_some_and(|i| i.status != TxnStatus::Aborted)
    }

    /// The tentative database as of live state `i` — the base before the
    /// first state.
    fn db_after(&self, i: Option<usize>) -> &Database {
        i.and_then(|p| self.window.get(p))
            .map_or(&self.base, SystemState::db)
    }

    /// Derives the tentative state of live state `j` from its predecessor
    /// in the window, which must hold exactly the states before `j`.
    fn derive(&self, j: usize) -> Result<SystemState> {
        let s = &self.states[j];
        let mut db = self.db_after(j.checked_sub(1)).clone();
        for u in &s.updates {
            if self.is_tentative(u.txn) {
                u.op.apply(&mut db)?;
            }
        }
        Ok(SystemState::new(db, s.events.clone(), s.time))
    }

    /// Re-derives the window from state `from` to the end, assuming nothing
    /// about the states it replaces.
    fn rederive_from(&mut self, from: usize) -> Result<()> {
        self.window.split_off(from);
        for j in from..self.states.len() {
            let s = self.derive(j)?;
            self.window.push(s);
        }
        Ok(())
    }

    // ---- materialized history views ---------------------------------------

    /// Commit time of `txn`, if committed.
    pub fn commit_time(&self, txn: TxnId) -> Option<Timestamp> {
        self.txns.get(&txn).and_then(|i| i.commit_time)
    }

    /// Materializes a history, applying at each state only the updates that
    /// satisfy `include`.
    fn materialize(
        &self,
        cutoff: Timestamp,
        mut include: impl FnMut(&VtUpdate) -> bool,
    ) -> History {
        let mut h = History::new();
        let mut db = self.base.clone();
        for s in &self.states {
            if s.time > cutoff {
                break;
            }
            for u in &s.updates {
                if include(u) {
                    reapply(&u.op, &mut db);
                }
            }
            h.push(SystemState::new(db.clone(), s.events.clone(), s.time));
        }
        h
    }

    /// The tentative history — all updates of non-aborted transactions take
    /// effect at their valid times — as maintained by the mutators. Index
    /// `i` is live state `i`.
    pub fn tentative_window(&self) -> &History {
        &self.window
    }

    /// The tentative history rebuilt from scratch (one database copy per
    /// live state): the reference [`VtEngine::tentative_window`] is tested
    /// against, and a detached copy for callers that want to own one.
    pub fn tentative_history(&self) -> History {
        self.materialize(Timestamp::MAX, |u| self.is_tentative(u.txn))
    }

    /// The paper's *committed history at time t*.
    pub fn committed_history(&self, t: Timestamp) -> History {
        self.materialize(t, |u| {
            self.txns
                .get(&u.txn)
                .and_then(|i| i.commit_time)
                .is_some_and(|ct| ct <= t)
        })
    }

    /// The committed history at time infinity (every ever-committed update
    /// included, full length).
    pub fn committed_history_at_infinity(&self) -> History {
        self.materialize(Timestamp::MAX, |u| {
            self.txns
                .get(&u.txn)
                .is_some_and(|i| i.status == TxnStatus::Committed)
        })
    }

    /// The collapsed committed history: database changes applied at commit
    /// time rather than valid time (Theorem 2's transaction-time view).
    pub fn collapsed_committed_history(&self) -> History {
        // Group each committed transaction's updates, in valid-time order.
        let mut by_txn: BTreeMap<TxnId, Vec<&VtUpdate>> = BTreeMap::new();
        for s in &self.states {
            for u in &s.updates {
                if self
                    .txns
                    .get(&u.txn)
                    .is_some_and(|i| i.status == TxnStatus::Committed)
                {
                    by_txn.entry(u.txn).or_default().push(u);
                }
            }
        }
        let mut h = History::new();
        let mut db = self.base.clone();
        for s in &self.states {
            // Apply the updates of every transaction committing at this state.
            for e in s.events.iter().filter(|e| e.is_commit()) {
                if let Some(txn) = e.txn_id() {
                    for u in by_txn.get(&txn).into_iter().flatten() {
                        reapply(&u.op, &mut db);
                    }
                }
            }
            h.push(SystemState::new(db.clone(), s.events.clone(), s.time));
        }
        h
    }

    /// Commit points (timestamps carrying a `transaction_commit` event), in
    /// order — the instants at which integrity constraints are checked.
    pub fn commit_points(&self) -> Vec<Timestamp> {
        self.states
            .iter()
            .filter(|s| s.events.commit_count() > 0)
            .map(|s| s.time)
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_relation::{Relation, Schema, Value};

    fn base() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "STOCK",
            Relation::empty(Schema::untyped(&["name", "price"])),
        )
        .unwrap();
        db
    }

    fn set_price(p: i64) -> WriteOp {
        WriteOp::SetItem {
            item: "price_IBM".into(),
            value: Value::Int(p),
        }
    }

    #[test]
    fn retroactive_update_lands_at_valid_time() {
        let mut e = VtEngine::new(base(), 100);
        e.advance_clock(10).unwrap();
        let t = e.begin().unwrap();
        // Posted at time 10, valid at time 5.
        e.update_at(t, set_price(72), Timestamp(5)).unwrap();
        e.commit(t).unwrap();
        let h = e.committed_history(Timestamp(100));
        // The state at valid time 5 must carry the new price.
        let idx = h.index_at(Timestamp(5)).unwrap();
        assert_eq!(
            h.get(idx).unwrap().db().item("price_IBM").unwrap(),
            Value::Int(72)
        );
    }

    #[test]
    fn max_delay_enforced() {
        let mut e = VtEngine::new(base(), 3);
        e.advance_clock(10).unwrap();
        let t = e.begin().unwrap();
        assert!(matches!(
            e.update_at(t, set_price(1), Timestamp(6)),
            Err(EngineError::ValidTimeTooOld { .. })
        ));
        assert!(matches!(
            e.update_at(t, set_price(1), Timestamp(11)),
            Err(EngineError::ValidTimeInFuture { .. })
        ));
        assert!(e.update_at(t, set_price(1), Timestamp(7)).is_ok());
    }

    #[test]
    fn committed_history_strips_uncommitted_updates() {
        let mut e = VtEngine::new(base(), 100);
        e.advance_clock(1).unwrap();
        let t1 = e.begin().unwrap();
        e.update(t1, set_price(10)).unwrap();
        e.advance_clock(1).unwrap();
        let t2 = e.begin().unwrap();
        e.update(t2, set_price(20)).unwrap();
        e.advance_clock(1).unwrap();
        e.commit(t2).unwrap(); // t2 commits at 3; t1 never commits

        let h = e.committed_history(Timestamp(10));
        let last = h.last().unwrap();
        assert_eq!(last.db().item("price_IBM").unwrap(), Value::Int(20));
        // At time 2 (t2's update posted, not yet committed at cutoff? —
        // committed AT 3 <= 10, so the update IS included at its valid time).
        let idx = h.index_at(Timestamp(2)).unwrap();
        assert_eq!(
            h.get(idx).unwrap().db().item("price_IBM").unwrap(),
            Value::Int(20)
        );
        // Cutoff before t2's commit: the update is stripped.
        let h2 = e.committed_history(Timestamp(2));
        assert!(h2.last().unwrap().db().item("price_IBM").is_err());
    }

    #[test]
    fn aborted_updates_never_appear() {
        let mut e = VtEngine::new(base(), 100);
        e.advance_clock(1).unwrap();
        let t = e.begin().unwrap();
        e.update(t, set_price(10)).unwrap();
        e.abort(t).unwrap();
        assert!(e
            .tentative_history()
            .last()
            .unwrap()
            .db()
            .item("price_IBM")
            .is_err());
        assert!(e
            .committed_history_at_infinity()
            .last()
            .unwrap()
            .db()
            .item("price_IBM")
            .is_err());
    }

    #[test]
    fn u1_before_u2_offline_vs_online_setup() {
        // The paper's Section 9.3 example history:
        // u1 (by T1), u2 (by T2), commit-T2, commit-T1.
        let mut e = VtEngine::new(base(), 100);
        e.advance_clock(1).unwrap();
        let t1 = e.begin().unwrap();
        let t2 = e.begin().unwrap();
        e.advance_clock(1).unwrap();
        e.update(
            t1,
            WriteOp::SetItem {
                item: "u1".into(),
                value: Value::Int(1),
            },
        )
        .unwrap();
        e.advance_clock(1).unwrap();
        e.update(
            t2,
            WriteOp::SetItem {
                item: "u2".into(),
                value: Value::Int(1),
            },
        )
        .unwrap();
        e.advance_clock(1).unwrap();
        let c2 = e.commit(t2).unwrap();
        e.advance_clock(1).unwrap();
        e.commit(t1).unwrap();
        let _ = c2;

        // Online view at T2's commit point: u1 is NOT visible (T1 not yet
        // committed), u2 IS visible.
        let t2_commit = e.commit_time(t2).unwrap();
        let online = e.committed_history(t2_commit);
        let last = online.last().unwrap();
        assert!(last.db().item("u1").is_err());
        assert_eq!(last.db().item("u2").unwrap(), Value::Int(1));

        // Offline view (committed history at infinity), truncated to the
        // same commit point: u1 IS visible because T1 eventually commits.
        let offline = e.committed_history_at_infinity();
        let idx = offline.index_at(t2_commit).unwrap();
        assert_eq!(
            offline.get(idx).unwrap().db().item("u1").unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn collapsed_history_moves_updates_to_commit_points() {
        let mut e = VtEngine::new(base(), 100);
        e.advance_clock(5).unwrap();
        let t = e.begin().unwrap();
        // Valid time 1, commit at 6.
        e.update_at(t, set_price(72), Timestamp(1)).unwrap();
        e.advance_clock(1).unwrap();
        e.commit(t).unwrap();

        let collapsed = e.collapsed_committed_history();
        // Before the commit point the item must be absent…
        let before = collapsed.index_at(Timestamp(5)).unwrap();
        assert!(collapsed
            .get(before)
            .unwrap()
            .db()
            .item("price_IBM")
            .is_err());
        // …and present exactly from the commit point.
        let at = collapsed.index_at(Timestamp(6)).unwrap();
        assert_eq!(
            collapsed.get(at).unwrap().db().item("price_IBM").unwrap(),
            Value::Int(72)
        );
        collapsed.validate_transaction_time().unwrap();
    }

    #[test]
    fn simultaneous_events_merge_into_one_state() {
        let mut e = VtEngine::new(base(), 100);
        e.advance_clock(4).unwrap();
        let t = e.begin().unwrap();
        e.update_at(t, set_price(1), Timestamp(2)).unwrap();
        e.update_at(t, set_price(2), Timestamp(2)).unwrap();
        e.commit(t).unwrap();
        // begin@4, updates@2 (merged), commit@4 (merged with begin).
        assert_eq!(e.state_count(), 2);
        let h = e.committed_history_at_infinity();
        assert_eq!(h.len(), 2);
        // Later write at the same instant wins (application order).
        let idx = h.index_at(Timestamp(2)).unwrap();
        assert_eq!(
            h.get(idx).unwrap().db().item("price_IBM").unwrap(),
            Value::Int(2)
        );
    }

    /// `(time, price-if-set)` fingerprint of a materialized history.
    fn fingerprint(h: &History) -> Vec<(i64, Option<i64>)> {
        (0..h.len())
            .map(|i| {
                let s = h.get(i).unwrap();
                let p = s.db().item("price_IBM").ok().and_then(|v| v.as_i64());
                (s.time().0, p)
            })
            .collect()
    }

    #[test]
    fn ingest_committed_is_arrival_order_independent() {
        // The same three events under two Δ-bounded arrival orders must
        // produce byte-identical state sets: no lifecycle states, and the
        // commit point is the valid instant.
        let drive = |order: &[(i64, i64)]| {
            let mut e = VtEngine::new(base(), 10);
            e.advance_clock(5).unwrap();
            for &(v, p) in order {
                e.ingest_committed(vec![set_price(p)], Timestamp(v))
                    .unwrap();
            }
            e
        };
        let in_order = drive(&[(1, 10), (2, 20), (3, 30)]);
        let shuffled = drive(&[(3, 30), (1, 10), (2, 20)]);
        assert_eq!(
            fingerprint(&in_order.committed_history_at_infinity()),
            fingerprint(&shuffled.committed_history_at_infinity())
        );
        assert_eq!(
            fingerprint(&in_order.tentative_history()),
            fingerprint(&shuffled.tentative_history())
        );
        // Instant commit at the valid instant: tentative and committed agree.
        assert_eq!(
            fingerprint(&in_order.tentative_history()),
            fingerprint(&in_order.committed_history_at_infinity())
        );
    }

    #[test]
    fn ingest_committed_enforces_delta_window() {
        let mut e = VtEngine::new(base(), 3);
        e.advance_clock(10).unwrap();
        assert!(matches!(
            e.ingest_committed(vec![set_price(1)], Timestamp(6)),
            Err(EngineError::ValidTimeTooOld { .. })
        ));
        assert!(matches!(
            e.ingest_committed(vec![set_price(1)], Timestamp(11)),
            Err(EngineError::ValidTimeInFuture { .. })
        ));
        assert!(e.ingest_committed(vec![set_price(1)], Timestamp(7)).is_ok());
    }

    #[test]
    fn inapplicable_ingest_is_rejected_without_a_trace() {
        let mut e = VtEngine::new(base(), 4);
        e.advance_clock(3).unwrap();
        e.ingest_committed(vec![set_price(1)], Timestamp(2))
            .unwrap();
        let before = fingerprint(e.tentative_window());
        for valid in [1, 2, 3] {
            // Late, same-instant and in-order: the good op ahead of the bad
            // one must not leak either.
            let err = e
                .ingest_committed(
                    vec![
                        set_price(99),
                        WriteOp::Insert {
                            relation: "nope".into(),
                            tuple: tdb_relation::tuple![1i64],
                        },
                    ],
                    Timestamp(valid),
                )
                .unwrap_err();
            assert!(matches!(err, EngineError::Rel(_)), "{err:?}");
            assert_eq!(e.state_count(), 1);
            assert_eq!(fingerprint(e.tentative_window()), before);
            assert_eq!(fingerprint(&e.tentative_history()), before);
        }
        // No transaction id was burnt, and the engine still ingests.
        e.ingest_committed(vec![set_price(5)], Timestamp(3))
            .unwrap();
        assert_eq!(e.commit_time(TxnId(2)), Some(Timestamp(3)));
    }

    #[test]
    fn vetoed_ingest_restores_the_window() {
        let mut e = VtEngine::new(base(), 10);
        e.advance_clock(5).unwrap();
        for v in [1, 3, 5] {
            e.ingest_committed(vec![set_price(v)], Timestamp(v))
                .unwrap();
        }
        let before = fingerprint(e.tentative_window());
        let mut seen = None;
        let veto = e.ingest_committed_gated(vec![set_price(40)], Timestamp(2), |h, idx| {
            // The gate sees the history cut at the candidate state.
            seen = Some((h.len(), idx, fingerprint(h)));
            Err(EngineError::SimultaneousCommit)
        });
        assert_eq!(veto, Err(EngineError::SimultaneousCommit));
        assert_eq!(
            seen,
            Some((2, 1, vec![(1, Some(1)), (2, Some(40))])),
            "candidate sits at its valid time, nothing younger is visible"
        );
        assert_eq!(e.state_count(), 3);
        assert_eq!(fingerprint(e.tentative_window()), before);
    }

    #[test]
    fn late_ingest_keeps_the_states_it_does_not_change() {
        let mut e = VtEngine::new(base(), 10);
        e.advance_clock(6).unwrap();
        for v in [1, 3, 4, 5] {
            e.ingest_committed(vec![set_price(v)], Timestamp(v))
                .unwrap();
        }
        let db_of = |e: &VtEngine, i: usize| e.tentative_window().get(i).unwrap().db_arc();
        let (at3, at4, at5) = (db_of(&e, 1), db_of(&e, 2), db_of(&e, 3));
        // price := 2 at t=2 is overwritten at t=3: from there on the old
        // states are kept as the objects they were, only renumbered.
        assert_eq!(
            e.ingest_committed(vec![set_price(2)], Timestamp(2))
                .unwrap(),
            1
        );
        assert!(std::sync::Arc::ptr_eq(&db_of(&e, 2), &at3));
        assert!(std::sync::Arc::ptr_eq(&db_of(&e, 3), &at4));
        assert!(std::sync::Arc::ptr_eq(&db_of(&e, 4), &at5));
        // A write nothing overwrites changes every later state.
        e.ingest_committed(
            vec![WriteOp::SetItem {
                item: "other".into(),
                value: Value::Int(1),
            }],
            Timestamp(0),
        )
        .unwrap();
        assert!(!std::sync::Arc::ptr_eq(&db_of(&e, 5), &at5));
        assert_eq!(
            fingerprint(e.tentative_window()),
            fingerprint(&e.tentative_history())
        );
    }

    #[test]
    fn compaction_preserves_views_and_offsets_indices() {
        let mut e = VtEngine::new(base(), 3);
        for v in 1..=5 {
            e.advance_clock_to(Timestamp(v)).unwrap();
            e.ingest_committed(vec![set_price(v)], Timestamp(v))
                .unwrap();
        }
        let before = fingerprint(&e.tentative_history());
        // Watermark at now − Δ = 2: states strictly before it fold away.
        let folded = e.compact_before(e.definite_frontier()).unwrap();
        assert_eq!(folded, 1);
        assert_eq!(e.compacted(), 1);
        assert_eq!(e.state_count(), 4);
        // The surviving suffix is unchanged (the fold moved state 1's write
        // into the base, so state 2 still sees price 2 on top of it).
        let after = fingerprint(&e.tentative_history());
        assert_eq!(after, before[1..].to_vec());
        // The folded transaction was pruned from the txn table.
        assert_eq!(e.commit_time(TxnId(1)), None);
        assert_eq!(e.commit_time(TxnId(2)), Some(Timestamp(2)));
        // Compacting again at the same cutoff is a no-op.
        assert_eq!(e.compact_before(e.definite_frontier()).unwrap(), 0);
    }

    #[test]
    fn compaction_blocked_by_undecided_transaction() {
        let mut e = VtEngine::new(base(), 100);
        e.advance_clock(1).unwrap();
        let t = e.begin().unwrap();
        e.update(t, set_price(9)).unwrap();
        e.advance_clock(10).unwrap();
        assert!(matches!(
            e.compact_before(Timestamp(5)),
            Err(EngineError::CompactionBlocked { .. })
        ));
        // Nothing was folded.
        assert_eq!(e.compacted(), 0);
        // Once decided (aborted), the fold goes through and the update is
        // skipped.
        e.abort(t).unwrap();
        assert!(e.compact_before(Timestamp(5)).unwrap() > 0);
        assert!(e
            .tentative_history()
            .last()
            .unwrap()
            .db()
            .item("price_IBM")
            .is_err());
    }

    #[test]
    fn commit_points_listed() {
        let mut e = VtEngine::new(base(), 100);
        e.advance_clock(1).unwrap();
        let t1 = e.begin().unwrap();
        e.advance_clock(1).unwrap();
        let t2 = e.begin().unwrap();
        e.advance_clock(1).unwrap();
        e.commit(t1).unwrap();
        e.commit(t2).unwrap(); // bumped to 4 automatically
        assert_eq!(e.commit_points(), vec![Timestamp(3), Timestamp(4)]);
    }
}
