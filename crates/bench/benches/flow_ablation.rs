//! E12: ablation of the Step 4 graph construction — the paper's literal
//! dense tuple edges vs the hub optimization, and Dinic vs Edmonds–Karp.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qbdp_bench::chain;
use qbdp_core::chain::graph::TupleEdgeMode;
use qbdp_core::chain::price::{chain_price, FlowAlgo};
use qbdp_core::gchq::reorder_to_gchq;
use qbdp_core::normalize::Problem;
use std::hint::black_box;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_ablation");
    group.sample_size(10);
    for n in [32i64, 128, 512] {
        let f = chain(3, n, (4 * n) as usize, 12);
        let problem = Problem::new(
            f.catalog.clone(),
            f.instance.clone(),
            f.prices.clone(),
            reorder_to_gchq(&f.query).unwrap(),
        );
        for (label, mode, algo) in [
            ("hub_dinic", TupleEdgeMode::Hub, FlowAlgo::Dinic),
            ("dense_dinic", TupleEdgeMode::Dense, FlowAlgo::Dinic),
            ("hub_ek", TupleEdgeMode::Hub, FlowAlgo::EdmondsKarp),
            ("dense_ek", TupleEdgeMode::Dense, FlowAlgo::EdmondsKarp),
        ] {
            if label == "dense_ek" && n > 128 {
                continue; // ~1.4 s/iteration at n = 512; E12 covers it once
            }
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| chain_price(black_box(&problem), mode, algo).unwrap().price)
            });
        }
    }
    group.finish();
}

/// Raw solver ablation on the constructed graphs (construction excluded).
fn bench_solvers_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_solvers");
    group.sample_size(10);
    let f = chain(3, 256, 1024, 12);
    let problem = Problem::new(
        f.catalog.clone(),
        f.instance.clone(),
        f.prices.clone(),
        reorder_to_gchq(&f.query).unwrap(),
    );
    let chain_q = qbdp_query::chain::ChainQuery::from_cq(&problem.query).unwrap();
    let pa = chain_q.partial_answers(&problem.catalog, &problem.instance);
    let cg = qbdp_core::chain::graph::ChainGraph::build(
        &problem.catalog,
        &problem.prices,
        &chain_q,
        &pa,
        TupleEdgeMode::Hub,
    );
    group.bench_function("dinic", |b| {
        b.iter(|| qbdp_flow::dinic(black_box(&cg.graph), cg.s, cg.t).value)
    });
    group.bench_function("edmonds_karp", |b| {
        b.iter(|| qbdp_flow::edmonds_karp(black_box(&cg.graph), cg.s, cg.t).value)
    });
    group.finish();
}

criterion_group!(benches, bench_ablation, bench_solvers_only);
criterion_main!(benches);
