//! Concurrent-increment stress test for the registry, suitable for the
//! TSan CI job: many threads hammer shared counters, gauges and histograms
//! (including creating the handles concurrently) while a reader thread
//! takes snapshots. Totals must be exact and intermediate snapshots
//! monotone.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use tdb_obs::Registry;

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 10_000;

#[test]
fn concurrent_increments_are_exact() {
    let reg = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let reg = Arc::clone(&reg);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut last = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = reg.snapshot();
                let cur = snap.counter("tdb_stress_total").unwrap_or(0);
                assert!(cur >= last, "counter went backwards: {last} -> {cur}");
                last = cur;
                if let Some(h) = snap.histogram("tdb_stress_ns") {
                    let cum = h.cumulative();
                    if let Some(&(_, total)) = cum.last() {
                        assert!(total <= h.count + THREADS as u64 * OPS_PER_THREAD);
                    }
                }
                let _ = snap.render_prometheus();
            }
        })
    };

    thread::scope(|s| {
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            s.spawn(move || {
                // Handles are fetched inside the thread so shard-map
                // insertion itself races across threads.
                let c = reg.counter("tdb_stress_total");
                let w = reg.counter_with("tdb_stress_worker_total", &[("worker", &t.to_string())]);
                let g = reg.gauge("tdb_stress_gauge");
                let h = reg.histogram("tdb_stress_ns");
                for i in 0..OPS_PER_THREAD {
                    c.inc();
                    w.inc();
                    g.add(1);
                    h.observe(i);
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();

    let snap = reg.snapshot();
    let expected = THREADS as u64 * OPS_PER_THREAD;
    assert_eq!(snap.counter("tdb_stress_total"), Some(expected));
    assert_eq!(snap.counter_family("tdb_stress_worker_total"), expected);
    assert_eq!(snap.gauge("tdb_stress_gauge"), Some(expected as i64));
    let h = snap.histogram("tdb_stress_ns").unwrap();
    assert_eq!(h.count, expected);
    assert_eq!(h.cumulative().last().unwrap().1, expected);
    // sum of 0..OPS_PER_THREAD, per thread
    assert_eq!(
        h.sum,
        THREADS as u64 * (OPS_PER_THREAD * (OPS_PER_THREAD - 1) / 2)
    );
}

#[test]
fn concurrent_spans_do_not_tear() {
    tdb_obs::set_enabled(true);
    thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || {
                for i in 0..500 {
                    let _span = tdb_obs::span!("stress", thread = t, i = i);
                }
            });
        }
    });
    tdb_obs::set_enabled(false);
    // The ring holds at most its capacity, every record well-formed.
    for rec in tdb_obs::trace::recent_spans() {
        assert_eq!(rec.name, "stress");
        assert_eq!(rec.fields.len(), 2);
    }
    tdb_obs::trace::clear_spans();
}
