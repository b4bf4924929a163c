//! Valid-time microbenchmarks.
//!
//! * `e6_validtime` — E6: tentative vs definite trigger processing under
//!   retroactive updates.
//! * `vt_ingest` — the E21 stream (2 000 events, two rules) through the
//!   streaming facade at Δ ∈ {0, 32, 256}, all in order and with a fifth of
//!   the events late. Ingest cost follows the suffix an event touches, so
//!   the in-order time should not move with Δ and the late one only a
//!   little.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb_bench::experiments::{e21_stream, e6_validtime};
use tdb_bench::workload::disorder_events;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_validtime");
    group.sample_size(10);
    for &retro in &[0u32, 300] {
        group.bench_with_input(
            BenchmarkId::new("retro_permille", retro),
            &retro,
            |b, &r| b.iter(|| e6_validtime(&[r], 100, 20, 11)),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("vt_ingest");
    group.sample_size(10);
    for &delta in &[0i64, 32, 256] {
        for (order, rate) in [("in_order", 0u32), ("late", 200)] {
            let events = disorder_events(2_000, delta, rate, 11);
            group.bench_with_input(BenchmarkId::new(order, delta), &events, |b, events| {
                b.iter(|| e21_stream(events, delta).confirmed)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
