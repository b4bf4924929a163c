//! Memory guard: a plain tenant holds what its checkpoint holds, not its
//! lifetime.
//!
//! By Theorem 1 the formula states summarise the past, so a tenant whose
//! rules see every state needs only the last one (plus any still awaiting
//! dispatch). A byte-counting global allocator measures the live heap of a
//! volatile plain tenant between 10⁴ and 10⁵ one-item commits, each
//! evaluated by every rule and none firing: it must grow by well under a
//! kept state's ≈ 2 KiB. One `#[test]` only: tests running in parallel
//! would share the counter.
//!
//! CI runs it in release: `cargo test --release -p tdb-server --test
//! tenant_memory`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use tdb_core::manager::ManagerConfig;
use tdb_core::storage::LogicalOp;
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, QueryDef, Value};
use tdb_server::tenant::Tenant;

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

const WARM: usize = 10_000;
const STATES: usize = 100_000;
/// Bytes a tenant may gain per state at steady state.
const BOUND: f64 = 512.0;

/// Rules reading `n` (a rising edge, a bounded window, a `since`) that its
/// values, `0..100`, never satisfy.
const RULES: &str = "rule edge { when n() > 1000 and previously(n() <= 1000); then notify; }\n\
                     rule window { when [t := time] previously(n() > 1000 and time >= t - 8); \
                     then notify; }\n\
                     rule hold { when (n() >= 0) since (n() > 1000); then notify; }\n";

#[test]
#[allow(clippy::disallowed_methods)] // tests may unwrap
fn a_tenant_holds_what_its_checkpoint_holds() {
    let mut tenant = Tenant::volatile("memory", ManagerConfig::default());
    for op in [
        LogicalOp::SetItem {
            name: "n".into(),
            value: Value::Int(0),
        },
        LogicalOp::DefineQuery {
            name: "n".into(),
            def: QueryDef::new(0, parse_query("item n").unwrap()),
        },
    ] {
        assert!(tenant.apply(&op).unwrap().ok());
    }
    tenant.register_rules(RULES).unwrap();
    let mut commit = |i: usize| {
        let set = WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int((i % 100) as i64),
        };
        let out = tenant.apply(&LogicalOp::Update { ops: vec![set] }).unwrap();
        assert!(out.ok() && out.firings.is_empty());
    };
    for i in 0..WARM {
        commit(i);
    }
    let warm = LIVE.load(Relaxed);
    for i in WARM..STATES {
        commit(i);
    }
    let grown = (LIVE.load(Relaxed) - warm) as f64 / (STATES - WARM) as f64;
    let stats = tenant.stats();
    println!(
        "{grown:.1} B/state between {WARM} and {STATES} states; {} live of {}",
        stats.live_states, stats.states
    );
    assert_eq!(stats.states, STATES + 1);
    assert!(
        grown < BOUND,
        "{grown:.0} B retained per state (bound {BOUND})"
    );
}
