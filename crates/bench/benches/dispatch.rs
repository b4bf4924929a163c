//! Delta-dispatch microbenchmarks: the three cost centers the E15
//! experiment composes — read-set index probes, the sparse fast-path
//! advance versus a full advance, and memoized evaluation of an atom
//! shared across rules — plus the end-to-end dispatch cost with the obs
//! subsystem off and on (the off branch is the PR-5 acceptance bar:
//! disabled observability must stay within noise, < 2%).

use std::collections::BTreeSet;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use tdb_bench::workload::{relation_watch_db, set_watch_row_ops};
use tdb_core::parteval::StateView;
use tdb_core::{
    Action, ActiveDatabase, EvalConfig, EvalContext, IncrementalEvaluator, ManagerConfig,
    ReadSetIndex, Rule,
};
use tdb_engine::{EventSet, SystemState};
use tdb_obs::{ObsConfig, Registry};
use tdb_ptl::parse_formula;
use tdb_relation::{Delta, Timestamp};

fn names(names: &[String]) -> BTreeSet<String> {
    names.iter().cloned().collect()
}

/// Probing a 1000-rule index with a single-relation delta.
fn bench_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_index");
    group.sample_size(20);
    for &rules in &[100usize, 1000] {
        let relations = rules / 10;
        let mut ix = ReadSetIndex::new();
        for i in 0..rules {
            ix.insert(
                i,
                &names(&[]),
                &names(&[format!("W{}", i % relations)]),
                false,
            );
        }
        let delta = Delta::new(vec!["W3".into()], vec!["update".into()]);
        let mut affected = Vec::new();
        group.bench_with_input(BenchmarkId::new("affected", rules), &rules, |b, _| {
            b.iter(|| {
                ix.affected(black_box(&delta), &mut affected);
                black_box(affected.iter().filter(|&&a| a).count())
            })
        });
    }
    group.finish();
}

/// One E15-shaped rule advanced over an unaffected state: the kernel with
/// the state's (empty) delta keeps every atom (pointer copies), against an
/// advance without a delta, which re-evaluates them.
fn bench_advance(c: &mut Criterion) {
    let db = relation_watch_db(4);
    let state = SystemState::new(db, EventSet::new(), Timestamp(1));
    let f = parse_formula("r0_q() > 100 and previously(r0_q() <= 100)").unwrap();
    let ctx = Arc::new(EvalContext::new());
    let mut seeded =
        IncrementalEvaluator::new_for_catalog(&f, EvalConfig::default(), &ctx, state.db()).unwrap();
    seeded.advance(&state, 0).unwrap();
    assert!(seeded.sparse_ready());

    let mut group = c.benchmark_group("dispatch_advance");
    group.sample_size(20);
    group.bench_function("full", |b| {
        let mut ev = seeded.clone();
        let mut i = 1;
        b.iter(|| {
            i += 1;
            black_box(ev.advance(black_box(&state), i).unwrap())
        })
    });
    group.bench_function("sparse", |b| {
        let mut ev = seeded.clone();
        let mut i = 0;
        b.iter(|| {
            // Contiguous indices: each advance may keep the last one's atoms.
            i += 1;
            black_box(ev.advance_with(&state, i, Some(state.delta())).unwrap())
        })
    });
    group.finish();
}

/// Evaluating one interned atom many times at one state — the shape of a
/// subformula shared by many rules — memoized against direct evaluation.
fn bench_shared_atom(c: &mut Criterion) {
    let db = relation_watch_db(4);
    let state = SystemState::new(db, EventSet::new(), Timestamp(1));
    let atom = Arc::new(
        parse_formula("r0_q() > 100")
            .map(|f| match f {
                f @ tdb_ptl::Formula::Cmp(..) => f,
                other => panic!("expected a comparison atom, got {other}"),
            })
            .unwrap(),
    );

    let ctx = EvalContext::new();
    let mut group = c.benchmark_group("dispatch_shared_atom");
    group.sample_size(20);
    group.bench_function("direct", |b| {
        let view = StateView::new(&state, 1);
        b.iter(|| black_box(ctx.parteval_atom(black_box(&atom), &view).unwrap()))
    });
    group.bench_function("memoized", |b| {
        let view = StateView::new(&state, 2);
        ctx.parteval_atom_memo(&atom, &view).unwrap(); // warm the epoch
        b.iter(|| black_box(ctx.parteval_atom_memo(black_box(&atom), &view).unwrap()))
    });
    group.finish();
}

/// End-to-end dispatch of one E15-shaped state over 100 rules with the obs
/// subsystem disabled, enabled into a private registry, and — as the
/// baseline the disabled branch is judged against — the same config before
/// this PR existed has no equivalent, so `obs_off` *is* the reference:
/// `obs_off` vs `obs_on` bounds the recording cost, and `obs_off` must sit
/// within noise of historic E15 numbers (< 2% acceptance bar).
fn bench_obs_overhead(c: &mut Criterion) {
    const RULES: usize = 100;
    const RELATIONS: usize = 10;

    let build = |obs: ObsConfig| {
        let mut adb = ActiveDatabase::with_config(
            relation_watch_db(RELATIONS),
            ManagerConfig {
                obs,
                ..Default::default()
            },
        );
        for i in 0..RULES {
            let j = i % RELATIONS;
            let f =
                parse_formula(&format!("r{j}_q() > 100 and previously(r{j}_q() <= 100)")).unwrap();
            adb.add_rule(Rule::trigger(format!("watch{i}"), f, Action::Notify))
                .unwrap();
        }
        adb
    };

    let mut group = c.benchmark_group("dispatch_obs");
    group.sample_size(400);
    group.bench_function("obs_off", |b| {
        let mut adb = build(ObsConfig::off());
        let mut k = 0i64;
        b.iter(|| {
            k += 1;
            adb.advance_clock(1).unwrap();
            let ops = set_watch_row_ops(adb.db(), (k as usize) % RELATIONS, 90 + k % 21);
            adb.update(black_box(ops)).unwrap();
            black_box(adb.firings().len())
        })
    });
    group.bench_function("obs_on", |b| {
        let mut adb = build(ObsConfig::with_registry(Arc::new(Registry::new())));
        let mut k = 0i64;
        b.iter(|| {
            k += 1;
            adb.advance_clock(1).unwrap();
            let ops = set_watch_row_ops(adb.db(), (k as usize) % RELATIONS, 90 + k % 21);
            adb.update(black_box(ops)).unwrap();
            black_box(adb.firings().len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_index,
    bench_advance,
    bench_shared_atom,
    bench_obs_overhead
);
criterion_main!(benches);
