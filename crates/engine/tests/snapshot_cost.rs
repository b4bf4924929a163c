//! Scaling guard: a retained engine state costs what it changed, not the
//! catalog it changed it in.
//!
//! Every state the engine appends keeps a database snapshot. A byte-counting
//! global allocator measures what one delete+insert state retains at 32,
//! 288 and 1056 relations (a wire tenant carries one `__EXECUTED_*`
//! relation per rule, so its catalog grows with the rule count). One
//! `#[test]` only: tests running in parallel would share the counter.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use tdb_engine::{Engine, WriteOp};
use tdb_relation::{tuple, Database, Relation, Schema};

/// Live heap bytes.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const STATES: usize = 1000;

/// Heap bytes retained per state over `STATES` delete+insert states, each
/// rewriting the one row of a relation among `relations`.
fn bytes_per_state(relations: usize) -> f64 {
    let mut db = Database::new();
    for r in 0..relations {
        let rel = Relation::from_rows(Schema::untyped(&["v"]), vec![tuple![0i64]]);
        db.create_relation(format!("R{r}"), rel.expect("one column"))
            .expect("fresh name");
    }
    let mut engine = Engine::new(db);
    let before = LIVE.load(Relaxed);
    for i in 0..STATES {
        let relation = format!("R{}", i % relations.min(32));
        let old = (i / relations.min(32)) as i64;
        engine
            .apply_update([
                WriteOp::Delete {
                    relation: relation.clone(),
                    tuple: tuple![old],
                },
                WriteOp::Insert {
                    relation,
                    tuple: tuple![old + 1],
                },
            ])
            .expect("known relation");
    }
    let retained = LIVE.load(Relaxed) - before;
    assert_eq!(engine.history().len(), STATES + 1);
    retained as f64 / STATES as f64
}

#[test]
fn a_state_costs_what_it_changed_not_the_catalog() {
    let small = bytes_per_state(32);
    let mid = bytes_per_state(288);
    let large = bytes_per_state(1056);
    println!("bytes/state: 32 rel {small:.0}, 288 rel {mid:.0}, 1056 rel {large:.0}");
    assert!(
        mid <= 4096.0,
        "{mid:.0} B retained per state at 288 relations (bound 4096)"
    );
    assert!(
        large <= 2.0 * small,
        "{large:.0} B/state at 1056 relations vs {small:.0} at 32 (bound 2x)"
    );
}
