//! E4: the Proposition 3.2 consistency check — a finite, instance-
//! independent sweep over the price list.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qbdp_core::consistency::find_list_arbitrage;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_consistency(c: &mut Criterion) {
    let mut group = c.benchmark_group("consistency/prop_3_2");
    for n in [16i64, 64, 256, 1024] {
        let qs = qbdp_workload::queries::chain_schema(2, n).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let prices = qbdp_workload::prices::random(&qs.catalog, &mut rng, 2, 9);
        group.throughput(Throughput::Elements(qs.catalog.sigma_size() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| find_list_arbitrage(black_box(&qs.catalog), &prices).len())
        });
    }
    group.finish();
}

fn bench_consistency_with_violations(c: &mut Criterion) {
    let mut group = c.benchmark_group("consistency/violating_list");
    let qs = qbdp_workload::queries::chain_schema(2, 256).unwrap();
    let prices =
        qbdp_workload::prices::with_arbitrage(&qs.catalog, qbdp_core::Price::dollars(1)).unwrap();
    group.bench_function("find_all", |b| {
        b.iter(|| find_list_arbitrage(black_box(&qs.catalog), &prices).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_consistency,
    bench_consistency_with_violations
);
criterion_main!(benches);
