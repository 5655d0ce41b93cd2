//! E14: GChQ bundle pricing (Definition 3.9) — shared-graph Min-Cut cost as
//! bundle size and column size grow, vs the exact bundle-certificate engine.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qbdp_catalog::{Catalog, CatalogBuilder, Column};
use qbdp_core::chain::bundle::chain_bundle_price;
use qbdp_core::exact::certificates::{certificate_price_bundle, CertificateConfig};
use qbdp_core::normalize::Provenance;
use qbdp_core::price_points::PriceList;
use qbdp_query::ast::ConjunctiveQuery;
use qbdp_query::parser::parse_rule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// A bundle with a shared prefix `A, S` and `m` divergent tails.
fn bundle(
    n: i64,
    m: usize,
) -> (
    Catalog,
    qbdp_catalog::Instance,
    PriceList,
    Vec<ConjunctiveQuery>,
) {
    let col = Column::int_range(0, n);
    let mut b = CatalogBuilder::new()
        .uniform_relation("A", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col);
    for i in 0..m {
        b = b
            .uniform_relation(format!("M{i}"), &["X", "Y"], &col)
            .uniform_relation(format!("C{i}"), &["X"], &col);
    }
    let catalog = b.build().unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    let instance =
        qbdp_workload::dbgen::populate_random(&catalog, &mut rng, (2 * n) as usize).unwrap();
    let prices = qbdp_workload::prices::random(&catalog, &mut rng, 1, 5);
    let members = (0..m)
        .map(|i| {
            parse_rule(
                catalog.schema(),
                &format!("Q{i}(x, y, z) :- A(x), S(x, y), M{i}(y, z), C{i}(z)"),
            )
            .unwrap()
        })
        .collect();
    (catalog, instance, prices, members)
}

fn bench_bundle_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundles/flow");
    for (n, m) in [(8i64, 2usize), (8, 4), (32, 4), (64, 4)] {
        let (catalog, instance, prices, members) = bundle(n, m);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}")),
            &n,
            |b, _| {
                b.iter(|| {
                    chain_bundle_price(
                        black_box(&catalog),
                        &instance,
                        &prices,
                        &members,
                        &Provenance::identity(),
                    )
                    .unwrap()
                    .price
                })
            },
        );
    }
    group.finish();
}

fn bench_bundle_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundles/exact");
    group.sample_size(10);
    for (n, m) in [(3i64, 2usize), (3, 3)] {
        let (catalog, instance, prices, members) = bundle(n, m);
        let refs: Vec<&ConjunctiveQuery> = members.iter().collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}")),
            &n,
            |b, _| {
                b.iter(|| {
                    certificate_price_bundle(
                        black_box(&catalog),
                        &instance,
                        &prices,
                        &refs,
                        CertificateConfig::default(),
                    )
                    .unwrap()
                    .price
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bundle_flow, bench_bundle_exact);
criterion_main!(benches);
