//! E5: throughput of the Theorem 3.16 classifier over the paper's named
//! queries and growing synthetic chains.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qbdp_core::dichotomy::classify;
use qbdp_workload::queries::{chain_schema, cycle_schema, h1_schema, h2_schema, star_schema};
use std::hint::black_box;

fn bench_named_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("dichotomy/named");
    let cases = vec![
        ("chain3", chain_schema(3, 4).unwrap().query),
        ("star3", star_schema(3, 4).unwrap().query),
        ("cycle4", cycle_schema(4, 4).unwrap().query),
        ("h1", h1_schema(4).unwrap().query),
        ("h2", h2_schema(4).unwrap().query),
    ];
    for (label, q) in cases {
        group.bench_function(label, |b| b.iter(|| classify(black_box(&q))));
    }
    group.finish();
}

fn bench_long_chains(c: &mut Criterion) {
    // The GChQ order search is exponential in atom count with memoization —
    // measure where it actually starts to cost.
    let mut group = c.benchmark_group("dichotomy/chain_length");
    for k in [4usize, 8, 12, 16] {
        let q = chain_schema(k, 2).unwrap().query;
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| classify(black_box(&q)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_named_queries, bench_long_chains);
criterion_main!(benches);
