//! E2: PTIME scaling of the GChQ pipeline (Theorem 3.7) over column size
//! `n` and chain length `k`, plus the Step 3 branching cost on stars.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qbdp_bench::{chain, star};
use std::hint::black_box;

fn bench_chain_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("gchq/chain");
    for k in [2usize, 4] {
        for n in [8i64, 32, 128] {
            let f = chain(k, n, (4 * n) as usize, 42);
            let pricer = f.pricer();
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(format!("k{k}"), n), &n, |b, _| {
                b.iter(|| pricer.price_cq(black_box(&f.query)).unwrap().price)
            });
        }
    }
    group.finish();
}

fn bench_star_branching(c: &mut Criterion) {
    let mut group = c.benchmark_group("gchq/star");
    // Stars have 2^k Step 3 branches: the k-axis measures that cost.
    for k in [1usize, 2, 3, 4] {
        let f = star(k, 8, 32, 43);
        let pricer = f.pricer();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| pricer.price_cq(black_box(&f.query)).unwrap().price)
        });
    }
    group.finish();
}

fn bench_zipf_vs_uniform(c: &mut Criterion) {
    let mut group = c.benchmark_group("gchq/skew");
    let n = 64i64;
    let qs = qbdp_workload::queries::chain_schema(3, n).unwrap();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    for (label, theta) in [("uniform", None), ("zipf1.2", Some(1.2))] {
        let instance = match theta {
            None => qbdp_workload::dbgen::populate_random(&qs.catalog, &mut rng, 4 * n as usize)
                .unwrap(),
            Some(t) => {
                qbdp_workload::dbgen::populate_zipf(&qs.catalog, &mut rng, 4 * n as usize, t)
                    .unwrap()
            }
        };
        let prices = qbdp_workload::prices::random(&qs.catalog, &mut rng, 1, 5);
        let pricer = qbdp_core::Pricer::new(qs.catalog.clone(), instance, prices).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| pricer.price_cq(black_box(&qs.query)).unwrap().price)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chain_scaling,
    bench_star_branching,
    bench_zipf_vs_uniform
);
criterion_main!(benches);
