//! E1: the Figure 1 / Example 3.8 price computation, end to end
//! (partial answers + graph construction + min-cut + cut extraction).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, Criterion};
use qbdp_bench::figure1;
use qbdp_core::Price;
use std::hint::black_box;

fn bench_figure1(c: &mut Criterion) {
    let f = figure1();
    let pricer = f.pricer();
    c.bench_function("figure1/price", |b| {
        b.iter(|| {
            let quote = pricer.price_cq(black_box(&f.query)).unwrap();
            assert_eq!(quote.price, Price::dollars(6));
            quote
        })
    });
    c.bench_function("figure1/quote_with_views", |b| {
        b.iter(|| pricer.price_cq(black_box(&f.query)).unwrap().views.len())
    });
}

criterion_group!(benches, bench_figure1);
criterion_main!(benches);
