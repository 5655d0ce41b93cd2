//! E8: the Theorem 3.3 determinacy oracle — min/max-world construction and
//! query evaluation — as column size grows.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qbdp_bench::chain;
use qbdp_determinacy::selection::{determines_monotone_cq, max_world, min_world, ViewSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn half_sigma(f: &qbdp_bench::Fixture, seed: u64) -> ViewSet {
    let mut rng = StdRng::seed_from_u64(seed);
    ViewSet::sigma(&f.catalog)
        .iter()
        .filter(|_| rng.gen_bool(0.5))
        .collect()
}

fn bench_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("determinacy/oracle");
    for n in [8i64, 32, 128] {
        let f = chain(2, n, (2 * n) as usize, 8);
        let views = half_sigma(&f, n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                determines_monotone_cq(black_box(&f.catalog), &f.instance, &views, &f.query)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_worlds(c: &mut Criterion) {
    let mut group = c.benchmark_group("determinacy/worlds");
    let f = chain(2, 64, 128, 8);
    let views = half_sigma(&f, 99);
    group.bench_function("min_world", |b| {
        b.iter(|| min_world(black_box(&f.instance), &views).total_tuples())
    });
    group.bench_function("max_world", |b| {
        b.iter(|| max_world(black_box(&f.catalog), &f.instance, &views).total_tuples())
    });
    group.finish();
}

criterion_group!(benches, bench_oracle, bench_worlds);
criterion_main!(benches);
