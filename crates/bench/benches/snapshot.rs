//! Snapshot probe: what does one retained engine state cost? An `Engine`
//! appends states that each rewrite one row of a relation (delete+insert)
//! in catalogs of 32, 288 and 1056 relations — `batch_durable`'s 32 data
//! relations, then one `__EXECUTED_*` relation per wire rule on top — and,
//! in the `commit_durable` shape, states that each set one of 16 items
//! (17 with `time`).
//!
//! Informational: prints heap bytes retained and µs per state, counted by
//! a byte-counting global allocator. Both should stay nearly flat in the
//! catalog size (a state costs what it changed; `cargo test -p tdb-engine
//! --test snapshot_cost` is the guard).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use tdb_engine::{Engine, WriteOp};
use tdb_relation::{tuple, Database, Relation, Schema, Value};

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

const STATES: usize = 20_000;

/// Runs `STATES` updates from `op(i)` on an engine over `db`; prints bytes
/// retained and µs per state.
fn probe(label: &str, db: Database, op: impl Fn(usize) -> Vec<WriteOp>) {
    let mut engine = Engine::new(db);
    let before = LIVE.load(Relaxed);
    let t0 = Instant::now();
    for i in 0..STATES {
        engine.apply_update(op(i)).expect("update applies");
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / STATES as f64;
    let bytes = (LIVE.load(Relaxed) - before) as f64 / STATES as f64;
    println!("snapshot/{label:<14} {bytes:>8.0} B/state   {us:>6.2} µs/state");
}

fn bench(_c: &mut Criterion) {
    for relations in [32, 288, 1056] {
        let mut db = Database::new();
        for r in 0..relations {
            let rel = Relation::from_rows(Schema::untyped(&["v"]), vec![tuple![0i64]]);
            db.create_relation(format!("R{r}"), rel.expect("one column"))
                .expect("fresh name");
        }
        probe(&format!("{relations}_relations"), db, |i| {
            let relation = format!("R{}", i % 32);
            let old = (i / 32) as i64;
            vec![
                WriteOp::Delete {
                    relation: relation.clone(),
                    tuple: tuple![old],
                },
                WriteOp::Insert {
                    relation,
                    tuple: tuple![old + 1],
                },
            ]
        });
    }
    let mut db = Database::new();
    for i in 0..16 {
        db.set_item(format!("x{i:02}"), Value::Int(0));
    }
    probe("17_items", db, |i| {
        vec![WriteOp::SetItem {
            item: format!("x{:02}", i % 16),
            value: Value::Int(i as i64),
        }]
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
