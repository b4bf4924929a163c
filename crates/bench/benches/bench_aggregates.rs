//! E4 microbenchmark: maintaining a temporal average in the evaluator's
//! accumulator slot (§6.1.1's registers as formula state).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb_bench::experiments::e4_aggregates;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_aggregates");
    group.sample_size(10);
    for &n in &[50usize, 200] {
        group.bench_with_input(BenchmarkId::new("accumulator_vs_naive", n), &n, |b, &n| {
            b.iter(|| e4_aggregates(&[n], 7))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
