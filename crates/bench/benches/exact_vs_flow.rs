//! E3: the tractability boundary (Theorem 3.5 vs Theorem 3.7) — exact
//! pricing of the NP-complete H1 against Min-Cut pricing of a chain of the
//! same size. The shapes (exponential vs polynomial) are the result.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qbdp_bench::{chain, h1};
use qbdp_core::exact::certificates::{certificate_price, CertificateConfig};
use std::hint::black_box;

fn bench_h1_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_vs_flow/h1_exact");
    group.sample_size(10);
    for n in [2i64, 3, 4] {
        let f = h1(n, (n * n) as usize, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                certificate_price(
                    black_box(&f.catalog),
                    &f.instance,
                    &f.prices,
                    &f.query,
                    CertificateConfig::default(),
                )
                .unwrap()
                .price
            })
        });
    }
    group.finish();
}

fn bench_chain_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_vs_flow/chain_flow");
    for n in [2i64, 3, 4, 8, 16] {
        let f = chain(3, n, (n * n) as usize, 7);
        let pricer = f.pricer();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| pricer.price_cq(black_box(&f.query)).unwrap().price)
        });
    }
    group.finish();
}

/// The flow price equals the exact price on chains — benchmark both engines
/// on the *same* query to expose the engine gap at equal correctness.
fn bench_same_query_both_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_vs_flow/chain_both");
    group.sample_size(10);
    let n = 6i64;
    let f = chain(2, n, (n * n) as usize, 7);
    let pricer = f.pricer();
    group.bench_function("flow", |b| {
        b.iter(|| pricer.price_cq(black_box(&f.query)).unwrap().price)
    });
    group.bench_function("exact_certificates", |b| {
        b.iter(|| {
            certificate_price(
                black_box(&f.catalog),
                &f.instance,
                &f.prices,
                &f.query,
                CertificateConfig::default(),
            )
            .unwrap()
            .price
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_h1_exact,
    bench_chain_flow,
    bench_same_query_both_engines
);
criterion_main!(benches);
