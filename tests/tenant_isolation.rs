//! Share-nothing tenants, checked by count: what a tenant interns, memoises
//! and fires is a function of its own input alone — not of a neighbour
//! running beside it, not of the thread it runs on, not of a restore.
//!
//! Two tenants are built from the same `eval_fanout`-shaped rule text (so
//! their atoms and programs are structurally identical, the case in which a
//! process-wide memo keyed by interned atom made them evict each other's
//! entries) and driven by different value streams.

use std::sync::{mpsc, Arc, Barrier};

use tdb_bench::workload::{fanout_commits, fanout_rules, fanout_seed_ops};
use temporal_adb::core::{
    ActiveDatabase, ContextStats, FiringRecord, LogicalOp, ManagerConfig, Shard,
};
use temporal_adb::relation::Database;

const PER_SLOT: usize = 16;
const STATES: usize = 240;
const HALF: usize = STATES / 2;

fn tenant() -> Shard {
    let mut shard = Shard::volatile(Database::new(), ManagerConfig::default());
    for op in fanout_seed_ops() {
        assert!(shard.apply(&op).unwrap().ok());
    }
    for rule in fanout_rules(PER_SLOT) {
        shard.add_rule(rule).unwrap();
    }
    shard
}

/// Applies `commits` in order; `each` runs after every commit.
fn drive(shard: &mut Shard, commits: &[[LogicalOp; 2]], mut each: impl FnMut()) {
    for commit in commits {
        for op in commit {
            assert!(shard.apply(op).unwrap().ok());
        }
        each();
    }
}

/// What a tenant's run leaves behind that another tenant must not be able
/// to move.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `{memo_lookups, memo_hits, nodes_interned}`.
    counts: (u64, u64, u64),
    retained: usize,
    firings: Vec<FiringRecord>,
}

fn counts(s: ContextStats) -> (u64, u64, u64) {
    (s.memo_lookups, s.memo_hits, s.nodes_interned)
}

fn outcome(shard: &Shard) -> Outcome {
    Outcome {
        counts: counts(shard.adb().eval_context().stats()),
        retained: shard.adb().retained_size(),
        firings: shard.firings_from(0),
    }
}

#[test]
fn a_tenant_counts_the_same_alone_beside_a_neighbour_and_after_a_move() {
    let stream_a = fanout_commits(11, STATES);
    let stream_b = fanout_commits(23, STATES);

    // Alone.
    let mut a = tenant();
    drive(&mut a, &stream_a, || {});
    let solo = outcome(&a);
    assert!(!solo.firings.is_empty(), "the catalog must fire");
    assert!(solo.retained > 0, "the catalog must retain formula state");
    assert!(
        solo.counts.1 > 0 && solo.counts.1 < solo.counts.0,
        "rules of one item share atoms: some lookups hit, the first per state misses"
    );

    // Beside a neighbour with the same catalog, in lockstep state by state
    // (the interleaving that made a shared memo's epoch thrash).
    let barrier = Barrier::new(2);
    let beside = std::thread::scope(|s| {
        let b = s.spawn(|| {
            let mut b = tenant();
            drive(&mut b, &stream_b, || {
                barrier.wait();
            });
            outcome(&b)
        });
        let a = s.spawn(|| {
            let mut a = tenant();
            drive(&mut a, &stream_a, || {
                barrier.wait();
            });
            outcome(&a)
        });
        let neighbour = b.join().unwrap();
        assert_ne!(neighbour.firings, solo.firings, "different value streams");
        a.join().unwrap()
    });
    assert_eq!(beside, solo, "a neighbour moved the tenant's counts");

    // Moved to another thread mid-run, neighbour still running: a `Shard`
    // is `Send`, and its context travels with it.
    let barrier = Barrier::new(2);
    let moved = std::thread::scope(|s| {
        s.spawn(|| {
            let mut b = tenant();
            drive(&mut b, &stream_b, || {
                barrier.wait();
            });
        });
        let (tx, rx) = mpsc::channel::<Shard>();
        let (barrier, stream_a) = (&barrier, &stream_a);
        s.spawn(move || {
            let mut a = tenant();
            drive(&mut a, &stream_a[..HALF], || {
                barrier.wait();
            });
            tx.send(a).unwrap();
        });
        let third = s.spawn(move || {
            let mut a = rx.recv().unwrap();
            drive(&mut a, &stream_a[HALF..], || {
                barrier.wait();
            });
            outcome(&a)
        });
        third.join().unwrap()
    });
    assert_eq!(moved, solo, "moving the tenant moved its counts");
}

#[test]
fn a_restored_tenant_interns_into_its_own_context() {
    let stream = fanout_commits(11, STATES);
    let mut reference = tenant();
    drive(&mut reference, &stream, || {});

    let mut source = tenant();
    drive(&mut source, &stream[..HALF], || {});
    let at_half = source.adb().eval_context().stats();
    let snap = source.adb().snapshot().unwrap();
    let adb = ActiveDatabase::restore(snap, ManagerConfig::default()).unwrap();
    assert!(
        !Arc::ptr_eq(adb.eval_context(), source.adb().eval_context()),
        "a restore builds its own context"
    );
    assert_eq!(adb.retained_size(), source.adb().retained_size());
    assert!(
        adb.eval_context().stats().nodes_interned > 2, // beyond its own true/false
        "the imported formula states are interned where they now live"
    );
    let mut restored = Shard::new(adb);
    drive(&mut restored, &stream[HALF..], || {});

    assert_eq!(restored.firings_from(0), reference.firings_from(0));
    assert_eq!(
        restored.adb().retained_size(),
        reference.adb().retained_size()
    );
    let after = restored.adb().eval_context().stats();
    assert!(after.memo_lookups > 0 && after.memo_hits > 0, "{after:?}");
    // …and none of it touched the tenant the snapshot came from.
    assert_eq!(source.adb().eval_context().stats(), at_half);
}
