//! E18: the telemetry tax — what `qbdp-obs` costs the quote path, on
//! and off. The overhead argument in DESIGN §4.6 makes two claims:
//!
//! * **enabled**: counters, histograms, trace spans, and the flight
//!   recorder together tax the median quote latency by less than 2%;
//! * **disabled** (the default): the entire subsystem collapses to one
//!   relaxed atomic load per instrumentation site, well under 0.5% of
//!   a median quote even at an implausibly dense site count.
//!
//! Both claims are asserted here, so a regression fails the CI
//! `observability` job instead of quietly eroding the "leave it on in
//! production" story.
//!
//! Method: one chain-join market serves identical quote streams with
//! telemetry off and on, in interleaved batches (off, on, off, on, …)
//! so thermal drift and allocator warmup land on both sides equally.
//! A price revision precedes every quote, column-scoped-invalidating
//! the quote cache, so every measured quote truly runs the pricing
//! pipeline — a cache-hit-only stream would measure the memoizer, not
//! the instrumented path. The disabled cost is then pinned directly by
//! a microbench of `record` + `Stopwatch::start` with telemetry off.

#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_catalog::{tuple, Catalog, CatalogBuilder, Column};
use qbdp_core::price_points::PriceList;
use qbdp_core::Price;
use qbdp_determinacy::selection::SelectionView;
use qbdp_market::{Market, MarketPolicy};
use std::fmt::Write as _;
use std::time::Instant;

/// Column size: {0, …, N-1}. Same scale as E17 — big enough that a
/// quote is real flow work, small enough that CI finishes quickly.
const N: i64 = 40;

/// Interleaved batches per mode; each batch quotes `BATCH` times.
const BATCHES: usize = 8;
const BATCH: usize = 50;

/// Iterations for the disabled-site microbench.
const MICRO_ITERS: u64 = 1_000_000;

/// Instrumentation sites a single quote could plausibly cross with
/// telemetry off. The real count is a couple dozen; asserting at 4x
/// that keeps the bound honest without making it brittle.
const SITES_PER_QUOTE: f64 = 100.0;

fn chain_market() -> Market {
    let col = Column::int_range(0, N);
    let catalog: Catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["Y"], &col)
        .build()
        .expect("chain catalog builds");
    let mut instance = catalog.empty_instance();
    let (r, s, t) = (
        catalog.schema().rel_id("R").expect("R"),
        catalog.schema().rel_id("S").expect("S"),
        catalog.schema().rel_id("T").expect("T"),
    );
    for x in 0..N {
        instance.insert(r, tuple![x]).expect("R tuple");
        instance.insert(t, tuple![x]).expect("T tuple");
        for k in 1..4 {
            instance.insert(s, tuple![x, (x + k) % N]).expect("S tuple");
        }
    }
    let mut prices = PriceList::new();
    for attr in catalog.schema().all_attrs() {
        let name = catalog.schema().attr_display(attr);
        let base = if name.starts_with("S.") { 150 } else { 100 };
        for v in catalog.column(attr).iter() {
            prices.set(SelectionView::new(attr, v.clone()), Price::cents(base));
        }
    }
    Market::open(catalog, instance, prices).expect("chain market opens")
}

/// Quote `BATCH` times with `telemetry`, a revision before every quote
/// so none is a cache hit. Appends per-quote latencies (µs) to `out`.
fn run_batch(market: &Market, telemetry: bool, revision_at: &mut u64, out: &mut Vec<f64>) {
    market.set_policy(MarketPolicy {
        telemetry,
        ..MarketPolicy::default()
    });
    let query = "Q(x, y) :- R(x), S(x, y), T(y)";
    for _ in 0..BATCH {
        let v = *revision_at % N as u64;
        let cents = 60 + (*revision_at * 17) % 300;
        *revision_at += 1;
        market
            .set_price(&format!("R.X={v}"), Price::cents(cents))
            .expect("arbitrage-free revision");
        let start = Instant::now();
        let quote = market.quote_str(query).expect("overhead quote");
        out.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(quote);
    }
}

fn median(latencies: &mut [f64]) -> f64 {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    latencies[latencies.len() / 2]
}

/// Per-call cost (ns) of one disabled instrumentation site: a counter
/// record plus a stopwatch start, the two ops every wrapped layer runs.
fn disabled_site_ns() -> f64 {
    qbdp_obs::set_enabled(false);
    let start = Instant::now();
    for i in 0..MICRO_ITERS {
        qbdp_obs::record(qbdp_obs::Ctr::MarketQuotes, std::hint::black_box(i & 1));
        std::hint::black_box(qbdp_obs::Stopwatch::start());
    }
    start.elapsed().as_secs_f64() * 1e9 / MICRO_ITERS as f64
}

fn main() {
    println!("E18 — telemetry tax: quote latency with qbdp-obs off vs on");
    let market = chain_market();
    // Warm up both modes once so first-touch derivation (plan shapes,
    // allocator arenas) is off the measured path.
    let mut revision_at = 0u64;
    let mut warmup = Vec::new();
    run_batch(&market, false, &mut revision_at, &mut warmup);
    run_batch(&market, true, &mut revision_at, &mut warmup);

    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        run_batch(&market, false, &mut revision_at, &mut off);
        run_batch(&market, true, &mut revision_at, &mut on);
    }
    market.set_policy(MarketPolicy::default());
    let off_median_us = median(&mut off);
    let on_median_us = median(&mut on);
    let on_tax = ((on_median_us - off_median_us) / off_median_us).max(0.0);

    let site_ns = disabled_site_ns();
    let off_tax = site_ns * SITES_PER_QUOTE / (off_median_us * 1e3);

    println!(
        "  off median {off_median_us:>9.1} µs   on median {on_median_us:>9.1} µs   on-tax {:.2}%",
        on_tax * 100.0
    );
    println!(
        "  disabled site {site_ns:.2} ns/call × {SITES_PER_QUOTE:.0} sites = {:.3}% of an off-median quote",
        off_tax * 100.0
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"E18\",");
    let _ = writeln!(json, "  \"quotes_per_mode\": {},", BATCHES * BATCH);
    let _ = writeln!(json, "  \"column_size\": {N},");
    let _ = writeln!(json, "  \"off_median_us\": {off_median_us:.2},");
    let _ = writeln!(json, "  \"on_median_us\": {on_median_us:.2},");
    let _ = writeln!(json, "  \"on_tax_pct\": {:.3},", on_tax * 100.0);
    let _ = writeln!(json, "  \"disabled_site_ns\": {site_ns:.3},");
    let _ = writeln!(json, "  \"assumed_sites_per_quote\": {SITES_PER_QUOTE:.0},");
    let _ = writeln!(json, "  \"off_tax_pct\": {:.4}", off_tax * 100.0);
    json.push('}');
    std::fs::write("BENCH_obs_overhead.json", &json).expect("write BENCH_obs_overhead.json");
    println!("  wrote BENCH_obs_overhead.json");

    // The acceptance bars from ISSUE/DESIGN §4.6.
    assert!(
        on_tax < 0.02,
        "telemetry-on tax {:.2}% exceeds the 2% budget (off {off_median_us:.1} µs, on {on_median_us:.1} µs)",
        on_tax * 100.0
    );
    assert!(
        off_tax < 0.005,
        "telemetry-off tax {:.3}% exceeds the 0.5% budget ({site_ns:.2} ns/site)",
        off_tax * 100.0
    );
}
