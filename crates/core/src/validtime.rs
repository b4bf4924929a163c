//! Valid-time trigger and integrity-constraint semantics (Section 9).
//!
//! In the valid-time model updates may land retroactively (bounded by the
//! maximum delay Δ), so a single forward pass is not enough:
//!
//! * a **tentative trigger** re-runs the incremental evaluator from the
//!   earliest retro-touched state — implemented with a checkpoint ring of
//!   evaluator snapshots ([`TentativeTriggerRunner`]);
//! * a **definite trigger** evaluates only the ≥Δ-old frontier of the
//!   committed history, firing exactly Δ late ([`DefiniteTriggerRunner`]);
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

use crate::context::EvalContext;
use crate::error::Result;
use crate::incremental::{EvalConfig, IncrementalEvaluator};
use crate::rules::FiringRecord;

/// One entry of a [`CheckpointRing`]: the evaluator as it stood after a
/// state, plus what identifies that state should it be seen again.
#[derive(Debug)]
struct Checkpoint {
    /// The state's index plus the ring's `folded` count at the time — a
    /// number compaction never has to touch.
    idx: usize,
    time: Timestamp,
    /// The state's database handle. Every [`SystemState`] owns its own, so
    /// meeting this pointer again means meeting that very state again; held
    /// strong so the address cannot be recycled meanwhile.
    db: Arc<Database>,
    ev: IncrementalEvaluator,
}

impl Checkpoint {
    /// Whether `state` is the very state this checkpoint was taken after.
    fn taken_after(&self, state: &SystemState) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.db), state.db())
    }
}

/// A ring of evaluator snapshots, one per processed state, enabling
/// re-evaluation from any of the most recent `capacity` states.
#[derive(Debug)]
pub struct CheckpointRing {
    capacity: usize,
    /// Oldest first, by strictly increasing state index.
    ring: VecDeque<Checkpoint>,
    /// States the owning history has compacted away so far
    /// ([`CheckpointRing::shift_down`]); callers speak in the history's
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

    /// Records the evaluator as it stands after `state`, the state at `idx`.
    pub fn push(&mut self, idx: usize, state: &SystemState, ev: IncrementalEvaluator) {
        // Retroactive re-processing may re-push an index: drop stale tails.
        self.split_off(idx);
        self.ring.push_back(Checkpoint {
            idx: idx + self.folded,
            time: state.time(),
            db: state.db_arc(),
            ev,
        });
        self.evict();
    }

    /// Drops the oldest checkpoints beyond the ring's capacity.
    fn evict(&mut self) {
        while self.ring.len() > self.capacity {
            self.ring.pop_front();
        }
    }

    /// The latest checkpoint strictly before `idx`.
    pub fn before(&self, idx: usize) -> Option<(usize, IncrementalEvaluator)> {
        let at = self.ring.partition_point(|c| c.idx < idx + self.folded);
        let c = self.ring.get(at.checked_sub(1)?)?;
        Some((c.idx - self.folded, c.ev.clone()))
    }

    /// Removes and returns the checkpoints at or after `idx`, oldest first.
    fn split_off(&mut self, idx: usize) -> VecDeque<Checkpoint> {
        let at = self.ring.partition_point(|c| c.idx < idx + self.folded);
        self.ring.split_off(at)
    }

    /// Takes checkpoints split off earlier back in, `shift` indices up.
    fn readopt(&mut self, tail: VecDeque<Checkpoint>, shift: usize) {
        for mut c in tail {
            c.idx += shift;
            self.ring.push_back(c);
        }
        self.evict();
    }

    /// Renumbers the ring after the owning history compacted its first `k`
    /// states away: checkpoints inside the folded prefix are dropped, the
    /// rest shift down by `k`.
    pub fn shift_down(&mut self, k: usize) {
        self.folded += k;
        while self.ring.front().is_some_and(|c| c.idx < self.folded) {
            self.ring.pop_front();
        }
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// What one [`TentativeTriggerRunner::process`] call (re)evaluated.
#[derive(Debug, Default)]
pub struct Reevaluation {
    /// The firings of every state at or after the start of the pass, up to
    /// where it stopped — the end of the history unless `kept` is set.
    pub firings: Vec<FiringRecord>,
    /// Set when the pass stopped early because the rest of the history had
    /// provably nothing new to say.
    pub kept: Option<KeptSuffix>,
}

/// The part of the history a re-evaluation did not need to visit: every
/// state after `after` fires exactly as it did before the pass, only at a
/// state index `shift` higher (the late arrival inserted that many states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeptSuffix {
    pub after: Timestamp,
    pub shift: usize,
}

/// Tentative triggers: "the temporal component does not consider only the
/// latest system state. It incrementally performs the evaluation algorithm
/// for each state starting with the oldest system state that was updated by
/// the transaction, until the last system state in the history."
///
/// "Until the last state" is cut short when it can change nothing. The
/// evaluator after state *j* is a function of the evaluator after *j − 1*
/// and the content of state *j* alone (Theorem 1), so once a re-evaluation
/// reaches a state after which (a) the evaluator's formula states are, slot
/// for slot, the very residuals checkpointed after that same state last
/// time — residuals are hash-consed, so pointer-equal means equal — and
/// (b) every later state is the very object the later checkpoints were
/// computed from, the rest of the pass would recompute those checkpoints
/// and re-report those firings verbatim. It stops there and keeps them,
/// renumbered by the number of states the late arrival inserted.
///
/// One node kind does embed the state index: a query with unbound arguments
/// residualizes to a snapshot term tagged with the index it was taken at
/// ([`crate::parteval::StateView`]). A renumbered state therefore yields a
/// residual that is *not* pointer-equal to its old one, the test in (a)
/// fails for as long as such a residual is retained, and the pass simply
/// runs on — the full-suffix replay is the fallback, not a separate mode.
/// (Temporal aggregates never reach this evaluator: they are rewritten into
/// database-writing helper rules, which valid-time triggers do not run, so
/// the compiler refuses them when the runner is built.)
#[derive(Debug)]
pub struct TentativeTriggerRunner {
    /// Where the runner's evaluator interns its residuals.
    ctx: Arc<EvalContext>,
    checkpoints: CheckpointRing,
    /// First history index not yet (or no longer) processed.
    frontier: usize,
    /// The replay point for local index 0: the freshly compiled evaluator
    /// on a virgin history, and the evaluator state after the last
    /// *compacted* state once the history's prefix has been folded away
    /// (re-evaluating from scratch would lose all temporal memory).
    base: IncrementalEvaluator,
    /// Test switch: never stop early, so the differential tests have the
    /// full-suffix replay to compare against.
    #[cfg(test)]
    pub(crate) full_replay: bool,
    /// Test probe: the index shift of every pass that stopped early.
    #[cfg(test)]
    pub(crate) early_stops: Vec<usize>,
}

impl TentativeTriggerRunner {
    /// A stand-alone runner over a private [`EvalContext`]. `window`
    /// bounds how far back re-evaluation can reach; it should be at least
    /// the number of states Δ can span.
    pub fn new(
        condition: &Formula,
        cfg: EvalConfig,
        window: usize,
    ) -> Result<TentativeTriggerRunner> {
        TentativeTriggerRunner::new_in(condition, cfg, window, &Arc::new(EvalContext::new()))
    }

    /// A runner whose evaluator belongs to `ctx` (the owning tenant's).
    /// Compiles the condition now, so a condition the evaluator cannot run
    /// is refused here rather than at the first state.
    pub fn new_in(
        condition: &Formula,
        cfg: EvalConfig,
        window: usize,
        ctx: &Arc<EvalContext>,
    ) -> Result<TentativeTriggerRunner> {
        Ok(TentativeTriggerRunner {
            ctx: Arc::clone(ctx),
            checkpoints: CheckpointRing::new(window),
            frontier: 0,
            base: IncrementalEvaluator::new_in(condition, cfg, ctx)?,
            #[cfg(test)]
            full_replay: false,
            #[cfg(test)]
            early_stops: Vec::new(),
        })
    }

    /// First history index not yet processed, in the history's current
    /// (post-compaction) numbering.
    pub fn frontier(&self) -> usize {
        self.frontier
    }

    /// Re-bases the runner after the first `k` states of its history were
    /// compacted away: the checkpoint taken after the last folded state
    /// becomes the replay point for the new local index 0. Fails if that
    /// boundary checkpoint has left the ring — the ring's window must cover
    /// every fold (callers size it to Δ plus slack).
    pub fn shift_down(&mut self, k: usize) -> Result<()> {
        if k == 0 {
            return Ok(());
        }
        match self.checkpoints.before(k) {
            Some((i, ev)) if i == k - 1 => self.base = ev,
            _ => {
                return Err(crate::error::CoreError::CheckpointMissing { index: k - 1 });
            }
        }
        self.checkpoints.shift_down(k);
        self.frontier = self.frontier.saturating_sub(k);
        Ok(())
    }

    /// Processes the current tentative history. `dirty_from` is the index
    /// of the earliest state touched since the last call (`None` means only
    /// appended states are new). Returns the firings of every (re)evaluated
    /// state at or after that point, and which suffix it left alone.
    pub fn process(
        &mut self,
        history: &History,
        dirty_from: Option<usize>,
    ) -> Result<Reevaluation> {
        let start = match dirty_from {
            Some(d) => d.min(self.frontier),
            None => self.frontier,
        };
        let end = history.len();
        if start >= end {
            // Nothing at or after `start`: every state is processed already.
            return Ok(Reevaluation::default());
        }
        // Restore the latest checkpoint before `start`, or replay from the
        // base.
        let (mut ev, from) = match self.checkpoints.before(start) {
            Some((i, ev)) => (ev, i + 1),
            None => (self.base.clone(), 0),
        };
        // The checkpoints this pass supersedes — unless it meets them again.
        let mut stale = self.checkpoints.split_off(from);
        // Stopping early is only on the table from the index past which the
        // history consists of exactly the states `stale` ends with.
        let unchanged_from = end - unchanged_suffix(history, &stale);
        #[cfg(test)]
        let unchanged_from = if self.full_replay {
            end
        } else {
            unchanged_from
        };

        let mut out = Reevaluation::default();
        for idx in from..end {
            let Some(state) = history.get(idx) else {
                continue;
            };
            // Evaluated under its global index: snapshot terms carry that
            // number as their identity, and local ones repeat after a fold.
            let global = idx + self.checkpoints.folded;
            let root = ev.advance(state, global)?;
            // Report firings only for states at or after the dirty point —
            // earlier ones were already reported in previous calls.
            if idx >= start {
                for env in self.ctx.solve(&root)? {
                    out.firings.push(FiringRecord {
                        rule: String::new(),
                        state_index: idx,
                        time: state.time(),
                        env,
                    });
                }
            }
            if idx >= unchanged_from {
                while stale.front().is_some_and(|c| c.time < state.time()) {
                    stale.pop_front();
                }
                let again = stale
                    .front()
                    .filter(|c| c.taken_after(state) && c.ev.same_formula_states(&ev));
                if let Some(shift) = again.and_then(|c| global.checked_sub(c.idx)) {
                    // Same evaluator state, same states to come: the old
                    // checkpoints from here on are the ones this pass would
                    // produce, `shift` indices up.
                    self.checkpoints.readopt(stale, shift);
                    #[cfg(test)]
                    self.early_stops.push(shift);
                    out.kept = Some(KeptSuffix {
                        after: state.time(),
                        shift,
                    });
                    break;
                }
            }
            self.checkpoints.push(idx, state, ev.clone());
        }
        self.frontier = end;
        Ok(out)
    }
}

/// How many trailing states of `history` are, one for one and in order,
/// the very states the trailing checkpoints of `stale` were taken after.
fn unchanged_suffix(history: &History, stale: &VecDeque<Checkpoint>) -> usize {
    let states = (0..history.len()).rev().map_while(|i| history.get(i));
    states
        .zip(stale.iter().rev())
        .take_while(|(s, c)| c.taken_after(s))
        .count()
}

/// Definite triggers: "it only considers the system states that have a
/// time-stamp that is at least Δ time units smaller than the current time"
/// — evaluated over the committed history at the definite frontier; firing
/// is inherently delayed by Δ.
#[derive(Debug)]
pub struct DefiniteTriggerRunner {
    evaluator: IncrementalEvaluator,
    /// First index of the definite history not yet processed.
    frontier: usize,
}

impl DefiniteTriggerRunner {
    /// A stand-alone runner over a private [`EvalContext`].
    pub fn new(condition: &Formula, cfg: EvalConfig) -> Result<DefiniteTriggerRunner> {
        DefiniteTriggerRunner::new_in(condition, cfg, &Arc::new(EvalContext::new()))
    }

    /// A runner whose evaluator belongs to `ctx` (the owning tenant's).
    pub fn new_in(
        condition: &Formula,
        cfg: EvalConfig,
        ctx: &Arc<EvalContext>,
    ) -> Result<DefiniteTriggerRunner> {
        Ok(DefiniteTriggerRunner {
            evaluator: IncrementalEvaluator::new_in(condition, cfg, ctx)?,
            frontier: 0,
        })
    }

    /// Renumbers the frontier after the engine compacted `k` states away;
    /// the incremental evaluator has already consumed the folded prefix, so
    /// only the index needs adjusting.
    pub fn shift_down(&mut self, k: usize) {
        self.frontier = self.frontier.saturating_sub(k);
    }

    /// Consumes the newly definite prefix of the engine's history. Because
    /// the algorithm is incremental, "it actually considers only the system
    /// states that have not been considered in the prior invocation".
    pub fn process(&mut self, engine: &VtEngine) -> Result<Vec<FiringRecord>> {
        let definite = engine.definite_history();
        let mut firings = Vec::new();
        for idx in self.frontier..definite.len() {
            let Some(state) = definite.get(idx) else {
                continue;
            };
            for env in self.evaluator.advance_and_fire(state, idx)? {
                firings.push(FiringRecord {
                    rule: String::new(),
                    state_index: idx,
                    time: state.time(),
                    env,
                });
            }
        }
        self.frontier = definite.len();
        Ok(firings)
    }
}

/// Evaluates a closed formula at state `i` of a history (naive oracle).
pub fn holds_at(f: &Formula, h: &History, i: usize) -> Result<bool> {
    Ok(tdb_ptl::eval(f, h, i, &Env::new())?)
}

fn holds(f: &Formula, h: &History, i: usize) -> Result<bool> {
    holds_at(f, h, i)
}

/// Online satisfaction: "c is online-satisfied in h if the temporal formula
/// c is satisfied by the committed history at time t, for all times t which
/// denote commit points of transactions."
pub fn online_satisfied(engine: &VtEngine, c: &Formula) -> Result<bool> {
    for t in engine.commit_points() {
        let h = engine.committed_history(t);
        if let Some(i) = h.index_at(t) {
            if !holds(c, &h, i)? {
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
            if !holds(c, &h, i)? {
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
            let sat = holds(c, &collapsed, i)?;
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
    fn tentative_runner_catches_retroactive_firing() {
        // Trigger: previously(u1 = 1). A retroactive update plants u1 in
        // the past; the tentative runner must re-evaluate and fire.
        let mut e = VtEngine::new(base(), 100);
        let mut runner = TentativeTriggerRunner::new(
            &parse_formula("previously(u1_q() = 1)").unwrap(),
            EvalConfig::default(),
            64,
        )
        .unwrap();
        e.advance_clock(10).unwrap();
        let t = e.begin().unwrap();
        let h = e.tentative_history();
        assert!(runner.process(&h, None).unwrap().firings.is_empty());

        // Retroactive update at valid time 4 (posted at 10).
        let dirty = e.update_at(t, set("u1"), Timestamp(4)).unwrap();
        let h = e.tentative_history();
        let fired = runner.process(&h, Some(dirty)).unwrap().firings;
        assert!(!fired.is_empty(), "retro-planted u1 must fire");
        // The earliest firing is at the retro state's valid time.
        assert_eq!(fired[0].time, Timestamp(4));
    }

    #[test]
    fn definite_runner_fires_delta_late() {
        let mut e = VtEngine::new(base(), 5);
        let mut runner = DefiniteTriggerRunner::new(
            &parse_formula("u1_q() = 1").unwrap(),
            EvalConfig::default(),
        )
        .unwrap();
        e.advance_clock(1).unwrap();
        let t = e.begin().unwrap();
        e.update(t, set("u1")).unwrap();
        e.commit(t).unwrap();
        // now = 1: nothing definite yet.
        assert!(runner.process(&e).unwrap().is_empty());
        e.advance_clock(3).unwrap(); // now = 4, frontier = -1
        assert!(runner.process(&e).unwrap().is_empty());
        e.advance_clock(3).unwrap(); // now = 7, frontier = 2 >= state time 1
        let fired = runner.process(&e).unwrap();
        assert!(!fired.is_empty(), "fires once the state is Δ old");
        // Incremental: a further call with no new definite states is quiet.
        assert!(runner.process(&e).unwrap().is_empty());
    }

    #[test]
    fn checkpoint_ring_restores_and_truncates() {
        let f = parse_formula("u1_q() = 1").unwrap();
        let mut ring = CheckpointRing::new(3);
        assert!(ring.is_empty());
        let s = SystemState::new(Database::new(), Default::default(), Timestamp(0));
        for i in 0..5 {
            ring.push(i, &s, IncrementalEvaluator::compile(&f).unwrap());
        }
        assert_eq!(ring.len(), 3);
        assert!(ring.before(2).is_none(), "older checkpoints evicted");
        assert_eq!(ring.before(4).unwrap().0, 3);
        // Re-pushing an index drops stale successors.
        ring.push(3, &s, IncrementalEvaluator::compile(&f).unwrap());
        assert_eq!(ring.before(100).unwrap().0, 3);
    }

    #[test]
    fn checkpoint_ring_shifts_down_after_compaction() {
        let f = parse_formula("u1_q() = 1").unwrap();
        let mut ring = CheckpointRing::new(8);
        let s = SystemState::new(Database::new(), Default::default(), Timestamp(0));
        for i in 0..5 {
            ring.push(i, &s, IncrementalEvaluator::compile(&f).unwrap());
        }
        ring.shift_down(2);
        assert_eq!(ring.len(), 3, "checkpoints inside the fold are dropped");
        assert_eq!(ring.before(1).unwrap().0, 0, "2 renumbered to 0");
        assert_eq!(ring.before(100).unwrap().0, 2, "4 renumbered to 2");
    }

    fn set_to(item: &str, v: i64) -> WriteOp {
        WriteOp::SetItem {
            item: item.into(),
            value: Value::Int(v),
        }
    }

    /// Two runners over one engine — one may stop early, the reference
    /// replays the full suffix — fed the same ingests over the engine's
    /// maintained window. Returns what the last ingest's pass reported.
    fn late_ingest_passes(
        condition: &str,
        in_order: &[(i64, &str, i64)],
        late: (i64, &str, i64),
    ) -> (Reevaluation, Reevaluation) {
        let f = parse_formula(condition).unwrap();
        let mut e = VtEngine::new(base(), 100);
        let mut fast = TentativeTriggerRunner::new(&f, EvalConfig::default(), 64).unwrap();
        let mut reference = TentativeTriggerRunner::new(&f, EvalConfig::default(), 64).unwrap();
        reference.full_replay = true;
        e.advance_clock_to(Timestamp(50)).unwrap();
        let mut last = None;
        for &(t, item, v) in in_order.iter().chain([&late]) {
            let idx = e
                .ingest_committed(vec![set_to(item, v)], Timestamp(t))
                .unwrap();
            let a = fast.process(e.tentative_window(), Some(idx)).unwrap();
            let b = reference.process(e.tentative_window(), Some(idx)).unwrap();
            assert!(b.kept.is_none(), "the reference never stops early");
            last = Some((a, b));
        }
        last.unwrap()
    }

    /// Firings as `(time, state index)` pairs.
    fn fired_at(r: &Reevaluation) -> Vec<(i64, usize)> {
        r.firings
            .iter()
            .map(|f| (f.time.0, f.state_index))
            .collect()
    }

    #[test]
    fn overwritten_late_event_stops_the_pass_once_it_has_converged() {
        // u1 alternates 9, 0, (gap), 0, 9, 0, 9, 0; the late 9 at t=3 is
        // overwritten at t=4, and `lasttime` forgets it one state later.
        let in_order = [1, 2, 4, 5, 6, 7, 8].map(|t| (t, "u1", if t % 2 == 1 { 9 } else { 0 }));
        let (fast, reference) = late_ingest_passes(
            "u1_q() >= 5 and lasttime(u1_q() < 5)",
            &in_order,
            (3, "u1", 9),
        );
        assert_eq!(
            fast.kept,
            Some(KeptSuffix {
                after: Timestamp(5),
                shift: 1
            })
        );
        // The new edge at t=3 and the re-confirmed one at t=5; the edge at
        // t=7 lies in the kept suffix, where only the reference re-fires it.
        assert_eq!(fired_at(&fast), vec![(3, 2), (5, 4)]);
        assert_eq!(fired_at(&reference), vec![(3, 2), (5, 4), (7, 6)]);
    }

    #[test]
    fn same_instant_late_event_converges_without_a_shift() {
        let in_order = [1, 2, 3, 4, 5, 6].map(|t| (t, "u1", if t % 2 == 1 { 9 } else { 0 }));
        // A second write at t=2 merges into the existing state and takes
        // the edge at t=3 away (7 is no longer below 5).
        let (fast, reference) = late_ingest_passes(
            "u1_q() >= 5 and lasttime(u1_q() < 5)",
            &in_order,
            (2, "u1", 7),
        );
        assert_eq!(
            fast.kept,
            Some(KeptSuffix {
                after: Timestamp(4),
                shift: 0
            })
        );
        assert_eq!(fired_at(&fast), vec![]);
        assert_eq!(fired_at(&reference), vec![(5, 4)]);
    }

    #[test]
    fn late_event_that_is_never_overwritten_replays_the_full_suffix() {
        // Nobody else writes u2, so every later database differs.
        let in_order = [1, 2, 4, 5, 6].map(|t| (t, "u1", t));
        let (fast, reference) = late_ingest_passes(
            "u2_q() = 1 and lasttime(u1_q() > 0)",
            &in_order,
            (3, "u2", 1),
        );
        assert_eq!(fast.kept, None);
        assert_eq!(fired_at(&fast), fired_at(&reference));
        assert_eq!(fired_at(&fast), vec![(3, 2), (4, 3), (5, 4), (6, 5)]);
    }

    #[test]
    fn late_event_the_evaluator_remembers_replays_the_full_suffix() {
        // The databases converge at t=4, the evaluator does not:
        // `previously` holds from the late spike on.
        let in_order = [1, 2, 4, 5, 6].map(|t| (t, "u1", t));
        let (fast, reference) =
            late_ingest_passes("previously(u1_q() >= 50)", &in_order, (3, "u1", 50));
        assert_eq!(fast.kept, None);
        assert_eq!(fired_at(&fast), fired_at(&reference));
        assert_eq!(fired_at(&fast).len(), 4);
    }

    #[test]
    fn snapshot_terms_of_renumbered_states_block_the_early_stop() {
        // `val(x)` with `x` unbound residualizes to a snapshot term tagged
        // with the state index, so a renumbered state never reproduces its
        // old residual: the pass must (and does) run to the end.
        let mut db = base();
        db.create_relation(
            "R",
            tdb_relation::Relation::empty(tdb_relation::Schema::untyped(&["k", "v"])),
        )
        .unwrap();
        db.define_query(
            "keys",
            QueryDef::new(0, parse_query("select k from R").unwrap()),
        );
        db.define_query(
            "val",
            QueryDef::new(1, parse_query("select v from R where k = $0").unwrap()),
        );
        let f = parse_formula("x in keys() and previously(val(x) >= 5)").unwrap();
        let row = |v: i64| tdb_relation::tuple![1i64, v];
        let replace = |old: Option<i64>, new: i64| {
            let mut ops = Vec::new();
            if let Some(o) = old {
                ops.push(WriteOp::Delete {
                    relation: "R".into(),
                    tuple: row(o),
                });
            }
            ops.push(WriteOp::Insert {
                relation: "R".into(),
                tuple: row(new),
            });
            ops
        };
        let mut e = VtEngine::new(db, 100);
        let mut fast = TentativeTriggerRunner::new(&f, EvalConfig::default(), 64).unwrap();
        let mut reference = TentativeTriggerRunner::new(&f, EvalConfig::default(), 64).unwrap();
        reference.full_replay = true;
        e.advance_clock_to(Timestamp(50)).unwrap();
        let mut old = None;
        for t in [1, 2, 4, 5, 6] {
            let idx = e.ingest_committed(replace(old, 1), Timestamp(t)).unwrap();
            old = Some(1);
            fast.process(e.tentative_window(), Some(idx)).unwrap();
            reference.process(e.tentative_window(), Some(idx)).unwrap();
        }
        // A late no-op at t=3: every database is as it was, every index from
        // there on is one higher.
        let idx = e.ingest_committed(Vec::new(), Timestamp(3)).unwrap();
        let a = fast.process(e.tentative_window(), Some(idx)).unwrap();
        let b = reference.process(e.tentative_window(), Some(idx)).unwrap();
        assert_eq!(a.kept, None);
        assert!(fast.early_stops.is_empty());
        assert_eq!(a.firings, b.firings);
    }

    #[test]
    fn tentative_runner_survives_compaction() {
        // Process a history, compact its prefix, and verify that the
        // re-based runner still answers from the boundary checkpoint — a
        // from-scratch replay would lose the temporal memory of the folded
        // prefix and `previously(...)` would go quiet.
        let mut e = VtEngine::new(base(), 2);
        let mut runner = TentativeTriggerRunner::new(
            &parse_formula("previously(u1_q() = 1)").unwrap(),
            EvalConfig::default(),
            8,
        )
        .unwrap();
        // u1 spikes to 1 at t=1 and is reset to 0 at t=2: from t=2 on, only
        // the evaluator's memory (not the database) knows about the spike.
        e.advance_clock_to(Timestamp(1)).unwrap();
        e.ingest_committed(vec![set("u1")], Timestamp(1)).unwrap();
        let h = e.tentative_history();
        let fired = runner.process(&h, Some(0)).unwrap().firings;
        assert_eq!(fired.len(), 1, "the spike at t=1 fires");
        e.advance_clock_to(Timestamp(2)).unwrap();
        e.ingest_committed(
            vec![WriteOp::SetItem {
                item: "u1".into(),
                value: Value::Int(0),
            }],
            Timestamp(2),
        )
        .unwrap();
        for t in 3..=6 {
            e.advance_clock_to(Timestamp(t)).unwrap();
            e.ingest_committed(Vec::new(), Timestamp(t)).unwrap();
        }
        let h = e.tentative_history();
        runner.process(&h, None).unwrap();
        // Fold everything before the watermark (6 − 2 = 4): states 1..3.
        let k = e.compact_before(e.definite_frontier()).unwrap();
        assert_eq!(k, 3);
        runner.shift_down(k).unwrap();
        assert_eq!(runner.frontier(), 3);
        // Dirty the state at exactly the watermark (local index 0): the
        // restore must come from the boundary evaluator — a fresh replay of
        // the surviving suffix would never see the folded spike.
        let dirty = e.ingest_committed(Vec::new(), Timestamp(4)).unwrap();
        assert_eq!(dirty, 0);
        let h = e.tentative_history();
        let fired = runner.process(&h, Some(dirty)).unwrap().firings;
        assert_eq!(fired.len(), 3, "temporal memory survives the fold");
        assert!(fired.iter().all(|f| f.time >= Timestamp(4)));
    }
}
