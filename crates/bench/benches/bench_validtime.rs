//! Valid-time microbenchmark: E6, tentative vs definite trigger processing
//! under retroactive updates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb_bench::experiments::e6_validtime;

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
}

criterion_group!(benches, bench);
criterion_main!(benches);
