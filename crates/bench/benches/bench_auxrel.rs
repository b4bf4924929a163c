//! E10 microbenchmark: formula-state vs auxiliary-relation evaluation
//! strategies on the worked-example condition.

use criterion::{criterion_group, criterion_main, Criterion};
use tdb_baseline::AuxEvaluator;
use tdb_bench::workload::{ibm_doubled_formula, ticker_engine};
use tdb_core::IncrementalEvaluator;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_auxrel");
    group.sample_size(10);
    let engine = ticker_engine(1_000, 42);
    let f = ibm_doubled_formula();
    group.bench_function("formula_state", |b| {
        b.iter(|| {
            let mut ev = IncrementalEvaluator::compile(&f).unwrap();
            let mut fired = 0usize;
            for (i, s) in engine.history().iter() {
                fired += usize::from(!ev.advance_and_fire(s, i).unwrap().is_empty());
            }
            fired
        })
    });
    group.bench_function("aux_relation", |b| {
        b.iter(|| {
            let mut ev = AuxEvaluator::new(f.clone(), Some(10)).unwrap();
            let mut fired = 0usize;
            for (_, s) in engine.history().iter() {
                fired += usize::from(ev.advance(s).unwrap());
            }
            fired
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
