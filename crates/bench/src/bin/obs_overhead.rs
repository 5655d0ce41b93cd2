//! E18: the telemetry tax — what `qbdp-obs` costs the quote path, on
//! and off. The overhead argument in DESIGN §4.6 makes two claims:
//!
//! * **enabled**: counters, histograms, trace spans, and the flight
//!   recorder together tax the median quote latency by less than 2%;
//! * **disabled** (the default): the entire subsystem collapses to one
//!   relaxed atomic load per instrumentation site, well under 0.5% of
//!   a median quote even at an implausibly dense site count.
//!
//! Both claims are asserted on the median across [`REPEATS`] runs, so a
//! regression fails the CI `observability` job instead of quietly
//! eroding the "leave it on in production" story. The runs land in
//! `BENCH_obs_overhead.json` (qbench's `qbench/1` schema).
//!
//! Method: one chain-join market serves identical quote streams with
//! telemetry off and on, in interleaved batches (off, on, off, on, …)
//! so thermal drift and allocator warmup land on both sides equally.
//! A price revision precedes every quote, column-scoped-invalidating
//! the quote cache, so every measured quote truly runs the pricing
//! pipeline — a cache-hit-only stream would measure the memoizer, not
//! the instrumented path. The disabled cost is then pinned directly by
//! a microbench of `record` + `Stopwatch::start` with telemetry off.
//! A run is correct when the quote counter saw every telemetry-on quote
//! and no telemetry-off one.

#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_bench::{chain_market, median_of, metric, write_results, CHAIN_N, REPEATS};
use qbdp_core::Price;
use qbdp_market::{Market, MarketPolicy};
use qbdp_obs::Ctr;
use qbench::report::{self, RunResult};
use std::time::Instant;

/// Interleaved batches per mode; each batch quotes `BATCH` times.
const BATCHES: usize = 8;
const BATCH: usize = 50;

/// Iterations for the disabled-site microbench.
const MICRO_ITERS: u64 = 1_000_000;

/// Instrumentation sites a single quote could plausibly cross with
/// telemetry off. The real count is a couple dozen; asserting at 4x
/// that keeps the bound honest without making it brittle.
const SITES_PER_QUOTE: f64 = 100.0;

/// Quote `BATCH` times with `telemetry`, a revision before every quote
/// so none is a cache hit. Appends per-quote latencies (µs) to `out`.
fn run_batch(market: &Market, telemetry: bool, revision_at: &mut u64, out: &mut Vec<f64>) {
    market.set_policy(MarketPolicy {
        telemetry,
        ..MarketPolicy::default()
    });
    let query = "Q(x, y) :- R(x), S(x, y), T(y)";
    for _ in 0..BATCH {
        let v = *revision_at % CHAIN_N as u64;
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

/// Per-call cost (µs) of one disabled instrumentation site: a counter
/// record plus a stopwatch start, the two ops every wrapped layer runs.
fn disabled_site_us() -> f64 {
    qbdp_obs::set_enabled(false);
    let start = Instant::now();
    for i in 0..MICRO_ITERS {
        qbdp_obs::record(Ctr::MarketQuotes, std::hint::black_box(i & 1));
        std::hint::black_box(qbdp_obs::Stopwatch::start());
    }
    start.elapsed().as_secs_f64() * 1e6 / MICRO_ITERS as f64
}

/// One repeat on a fresh market.
fn measure(seed: u64) -> RunResult {
    let market = chain_market();
    // Warm up both modes once so first-touch derivation (plan shapes,
    // allocator arenas) is off the measured path.
    let mut revision_at = 0u64;
    let mut warmup = Vec::new();
    run_batch(&market, false, &mut revision_at, &mut warmup);
    run_batch(&market, true, &mut revision_at, &mut warmup);

    let quotes = qbdp_obs::global().counter(Ctr::MarketQuotes);
    let counted_before = quotes.get();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        run_batch(&market, false, &mut revision_at, &mut off);
        run_batch(&market, true, &mut revision_at, &mut on);
    }
    market.set_policy(MarketPolicy::default());
    let counted = quotes.get() - counted_before;
    let off_median_us = report::median(&off).expect("quotes were timed");
    let on_median_us = report::median(&on).expect("quotes were timed");
    let on_tax = ((on_median_us - off_median_us) / off_median_us).max(0.0);

    let site_us = disabled_site_us();
    let off_tax = site_us * SITES_PER_QUOTE / off_median_us;
    RunResult {
        workload: "obs_overhead".to_string(),
        seed,
        correct: counted == on.len() as u64,
        attempted: (off.len() + on.len()) as u64,
        failed: 0,
        metrics: vec![
            metric("off_median_us", "us", off_median_us),
            metric("on_median_us", "us", on_median_us),
            metric("on_tax_pct", "%", on_tax * 100.0),
            metric("disabled_site_us", "us", site_us),
            metric("off_tax_pct", "%", off_tax * 100.0),
        ],
    }
}

fn main() {
    println!(
        "E18 — telemetry tax: quote latency with qbdp-obs off vs on, {REPEATS} runs \
         ({SITES_PER_QUOTE:.0} disabled sites assumed per quote)"
    );
    let start = Instant::now();
    let runs: Vec<RunResult> = (0..REPEATS).map(measure).collect();
    write_results(
        "BENCH_obs_overhead.json",
        &runs,
        start.elapsed().as_secs_f64() / REPEATS as f64,
    );

    // The acceptance bars of DESIGN §4.6, on the medians across runs.
    assert!(
        runs.iter().all(|r| r.correct),
        "the quote counter missed a telemetry-on quote or counted a telemetry-off one"
    );
    let on_tax = median_of(&runs, "obs_overhead", "on_tax_pct");
    let off_tax = median_of(&runs, "obs_overhead", "off_tax_pct");
    assert!(
        on_tax < 2.0,
        "median telemetry-on tax {on_tax:.2}% exceeds the 2% budget"
    );
    assert!(
        off_tax < 0.5,
        "median telemetry-off tax {off_tax:.3}% exceeds the 0.5% budget"
    );
}
