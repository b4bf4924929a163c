//! Valid-time trigger and integrity-constraint semantics (Section 9).
//!
//! In the valid-time model updates may land retroactively (bounded by the
//! maximum delay Δ), so a single forward pass is not enough:
//!
//! * a **tentative trigger** re-runs the incremental evaluator from the
//!   earliest retro-touched state: [`crate::VtActiveDatabase`] rewinds its
//!   one [`crate::RuleManager`] to a mark from its ring of marks;
//! * a **definite trigger** fires only on states no admissible update can
//!   change: the `Confirmed` phase of the same stream;
//! * a temporal integrity constraint can be **online-satisfied** (at every
//!   commit point, over the committed history at that time) or
//!   **offline-satisfied** (at every commit point, over the committed
//!   history at time infinity); the two differ on valid-time histories but
//!   coincide on collapsed committed histories (Theorem 2) —
//!   [`online_satisfied`], [`offline_satisfied`], [`theorem2_check`].

use std::collections::VecDeque;
use std::sync::Arc;

use tdb_engine::{History, SystemState, VtEngine};
use tdb_ptl::{Env, Formula};
use tdb_relation::{Database, Timestamp};

use crate::error::Result;
use crate::manager::Mark;

/// The rules as they stood after a state, and what identifies the state.
#[derive(Debug)]
pub(crate) struct Checkpoint {
    /// The state's index plus the ring's `folded` count at the time — a
    /// number compaction never has to touch.
    pub(crate) idx: usize,
    pub(crate) time: Timestamp,
    /// The state's own database handle: meeting it again is meeting that
    /// very state again (held, so the address cannot be recycled).
    db: Arc<Database>,
    pub(crate) mark: Mark,
}

impl Checkpoint {
    /// Whether `state` is the very state this checkpoint was taken after.
    pub(crate) fn taken_after(&self, state: &SystemState) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.db), state.db())
    }
}

/// A ring of rule-manager marks, one per processed state, enabling
/// re-evaluation from any of the most recent `capacity` states.
#[derive(Debug)]
pub(crate) struct CheckpointRing {
    capacity: usize,
    /// Oldest first, by strictly increasing state index.
    ring: VecDeque<Checkpoint>,
    /// States the history has compacted away so far: callers speak its
    /// current numbering, entries are stored `folded` higher.
    folded: usize,
}

impl CheckpointRing {
    pub fn new(capacity: usize) -> CheckpointRing {
        CheckpointRing {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            folded: 0,
        }
    }

    /// Records the rules as they stand after `state`, the state at `idx`.
    pub fn push(&mut self, idx: usize, state: &SystemState, mark: Mark) {
        // Retroactive re-processing may re-push an index: drop stale tails.
        self.split_off(idx);
        self.ring.push_back(Checkpoint {
            idx: idx + self.folded,
            time: state.time(),
            db: state.db_arc(),
            mark,
        });
        self.evict();
    }

    /// Drops the oldest checkpoints beyond the ring's capacity.
    fn evict(&mut self) {
        while self.ring.len() > self.capacity {
            self.ring.pop_front();
        }
    }

    /// The latest checkpoint strictly before `idx`, and its index.
    pub fn before(&self, idx: usize) -> Option<(usize, &Mark)> {
        let at = self.ring.partition_point(|c| c.idx < idx + self.folded);
        let c = self.ring.get(at.checked_sub(1)?)?;
        Some((c.idx - self.folded, &c.mark))
    }

    /// Removes and returns the checkpoints at or after `idx`, oldest first.
    pub(crate) fn split_off(&mut self, idx: usize) -> VecDeque<Checkpoint> {
        let at = self.ring.partition_point(|c| c.idx < idx + self.folded);
        self.ring.split_off(at)
    }

    /// Takes checkpoints split off earlier back in, `shift` indices up.
    pub(crate) fn readopt(&mut self, tail: VecDeque<Checkpoint>, shift: usize) {
        for mut c in tail {
            c.idx += shift;
            self.ring.push_back(c);
        }
        self.evict();
    }

    /// The newest checkpoint's mark.
    pub(crate) fn newest(&self) -> Option<&Mark> {
        self.ring.back().map(|c| &c.mark)
    }

    /// Renumbers the ring after the history compacted its first `k` states
    /// away: checkpoints inside the fold are dropped, the rest shift down.
    /// Hands back the mark taken after state `k − 1`, if the ring held it.
    pub fn shift_down(&mut self, k: usize) -> Option<Mark> {
        let last = (self.folded + k).checked_sub(1);
        self.folded += k;
        let mut folded = None;
        while self.ring.front().is_some_and(|c| c.idx < self.folded) {
            folded = self.ring.pop_front();
        }
        folded.filter(|c| Some(c.idx) == last).map(|c| c.mark)
    }

    /// Forgets every checkpoint; the numbering stays.
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

/// How many trailing states of `history` are, one for one and in order,
/// the very states the trailing checkpoints of `stale` were taken after.
pub(crate) fn unchanged_suffix(history: &History, stale: &VecDeque<Checkpoint>) -> usize {
    let states = (0..history.len()).rev().map_while(|i| history.get(i));
    states
        .zip(stale.iter().rev())
        .take_while(|(s, c)| c.taken_after(s))
        .count()
}

/// Evaluates a closed formula at state `i` of a history (naive oracle).
pub fn holds_at(f: &Formula, h: &History, i: usize) -> Result<bool> {
    Ok(tdb_ptl::eval(f, h, i, &Env::new())?)
}

/// Online satisfaction: "c is online-satisfied in h if the temporal formula
/// c is satisfied by the committed history at time t, for all times t which
/// denote commit points of transactions."
pub fn online_satisfied(engine: &VtEngine, c: &Formula) -> Result<bool> {
    for t in engine.commit_points() {
        let h = engine.committed_history(t);
        if let Some(i) = h.index_at(t) {
            if !holds_at(c, &h, i)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Offline satisfaction: "for all times t which denote commit points … the
/// temporal formula c is satisfied by the committed history at time
/// infinity", evaluated at the prefix up to t.
pub fn offline_satisfied(engine: &VtEngine, c: &Formula) -> Result<bool> {
    let h = engine.committed_history_at_infinity();
    for t in engine.commit_points() {
        if let Some(i) = h.index_at(t) {
            if !holds_at(c, &h, i)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Checks a constraint on the *collapsed* committed history both ways —
/// Theorem 2 says these always agree. Returns `(online, offline)` on the
/// collapsed history; the property test asserts equality.
pub fn theorem2_check(engine: &VtEngine, c: &Formula) -> Result<(bool, bool)> {
    let collapsed = engine.collapsed_committed_history();
    let commit_points: Vec<Timestamp> = engine.commit_points();
    // On a collapsed history every database change is already at its commit
    // point, so "committed history at time t" is just the prefix up to t:
    // online and offline both reduce to prefix evaluation, which is exactly
    // why the theorem holds. We still evaluate both readings explicitly.
    let mut online = true;
    let mut offline = true;
    for t in &commit_points {
        if let Some(i) = collapsed.index_at(*t) {
            let sat = holds_at(c, &collapsed, i)?;
            online &= sat;
            offline &= sat;
        }
    }
    Ok((online, offline))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use tdb_engine::WriteOp;
    use tdb_ptl::parse_formula;
    use tdb_relation::{parse_query, QueryDef, Value};

    fn base() -> Database {
        let mut db = Database::new();
        db.set_item("u1", Value::Int(0));
        db.set_item("u2", Value::Int(0));
        db.define_query("u1_q", QueryDef::new(0, parse_query("item u1").unwrap()));
        db.define_query("u2_q", QueryDef::new(0, parse_query("item u2").unwrap()));
        db
    }

    fn set(item: &str) -> WriteOp {
        WriteOp::SetItem {
            item: item.into(),
            value: Value::Int(1),
        }
    }

    /// The paper's Section 9.3 example: u1 (by T1), u2 (by T2), commit-T2,
    /// commit-T1 — with constraint "whenever u2 has occurred, u1 occurred
    /// no later": offline-satisfied but NOT online-satisfied.
    fn paper_history() -> VtEngine {
        let mut e = VtEngine::new(base(), 100);
        e.advance_clock(1).unwrap();
        let t1 = e.begin().unwrap();
        let t2 = e.begin().unwrap();
        e.advance_clock(1).unwrap();
        e.update(t1, set("u1")).unwrap();
        e.advance_clock(1).unwrap();
        e.update(t2, set("u2")).unwrap();
        e.advance_clock(1).unwrap();
        e.commit(t2).unwrap();
        e.advance_clock(1).unwrap();
        e.commit(t1).unwrap();
        e
    }

    /// "whenever u2 occurs it is preceded by u1": u2 set ⇒ u1 set.
    fn u2_implies_u1() -> Formula {
        parse_formula("u2_q() = 0 or u1_q() = 1").unwrap()
    }

    #[test]
    fn online_and_offline_differ_on_paper_history() {
        let e = paper_history();
        let c = u2_implies_u1();
        assert!(
            offline_satisfied(&e, &c).unwrap(),
            "offline: T1's u1 counts"
        );
        assert!(
            !online_satisfied(&e, &c).unwrap(),
            "online: u1 invisible at T2's commit"
        );
    }

    #[test]
    fn theorem2_online_offline_coincide_on_collapsed() {
        let e = paper_history();
        let c = u2_implies_u1();
        let (online, offline) = theorem2_check(&e, &c).unwrap();
        assert_eq!(online, offline);
    }

    #[test]
    fn checkpoint_ring_restores_and_truncates() {
        let mut ring = CheckpointRing::new(3);
        assert!(ring.ring.is_empty());
        let s = SystemState::new(Database::new(), Default::default(), Timestamp(0));
        for i in 0..5 {
            ring.push(i, &s, Mark::default());
        }
        assert_eq!(ring.ring.len(), 3);
        assert!(ring.before(2).is_none(), "older checkpoints evicted");
        assert_eq!(ring.before(4).unwrap().0, 3);
        // Re-pushing an index drops stale successors.
        ring.push(3, &s, Mark::default());
        assert_eq!(ring.before(100).unwrap().0, 3);
    }

    #[test]
    fn checkpoint_ring_shifts_down_after_compaction() {
        let mut ring = CheckpointRing::new(8);
        let s = SystemState::new(Database::new(), Default::default(), Timestamp(0));
        for i in 0..5 {
            ring.push(i, &s, Mark::default());
        }
        assert!(ring.shift_down(2).is_some(), "the mark after state 1");
        assert_eq!(
            ring.ring.len(),
            3,
            "checkpoints inside the fold are dropped"
        );
        assert_eq!(ring.before(1).unwrap().0, 0, "2 renumbered to 0");
        assert_eq!(ring.before(100).unwrap().0, 2, "4 renumbered to 2");
        ring.clear();
        assert!(ring.shift_down(1).is_none(), "a fold past the ring");
    }
}
