//! E9: cycle queries (Theorem 3.15) — exact pricing cost vs the polynomial
//! global-cut upper bound, as the cycle length and column size grow.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qbdp_bench::cycle;
use qbdp_core::cycle::{cycle_price, global_cut_upper_bound};
use qbdp_core::exact::certificates::CertificateConfig;
use qbdp_core::normalize::Problem;
use std::hint::black_box;

fn problem_for(k: usize, n: i64) -> Problem {
    let f = cycle(k, n, (n * n) as usize, 900);
    Problem::new(
        f.catalog.clone(),
        f.instance.clone(),
        f.prices.clone(),
        f.query.clone(),
    )
}

fn bench_cycle_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle/exact");
    group.sample_size(10);
    for (k, n) in [(2usize, 2i64), (2, 3), (3, 2), (3, 3)] {
        let problem = problem_for(k, n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_n{n}")),
            &n,
            |b, _| {
                b.iter(|| {
                    cycle_price(black_box(&problem), CertificateConfig::default())
                        .unwrap()
                        .price
                })
            },
        );
    }
    group.finish();
}

fn bench_cycle_upper_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle/upper_bound");
    group.sample_size(10);
    for (k, n) in [(2usize, 3i64), (3, 3), (3, 8), (4, 8)] {
        let problem = problem_for(k, n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_n{n}")),
            &n,
            |b, _| b.iter(|| global_cut_upper_bound(black_box(&problem)).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cycle_exact, bench_cycle_upper_bound);
criterion_main!(benches);
