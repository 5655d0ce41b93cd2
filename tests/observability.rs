//! Observability acceptance (DESIGN §4.6): the three user-visible
//! claims of the telemetry subsystem, driven end-to-end through the
//! CLI command layer the way an operator would reach them.
//!
//! 1. `price --trace` emits the complete pipeline span tree for the
//!    paper's Figure-1 query;
//! 2. after a workload, `stats` exports non-zero metrics in both the
//!    Prometheus text format and JSON;
//! 3. a forced degraded quote lands in the flight recorder and is
//!    visible via `stats --flight`.
//!
//! Telemetry state (the enabled flag, the registry, the flight ring) is
//! process-global, so all three claims live in ONE test fn in its own
//! integration binary: nothing else in this process toggles the flag
//! concurrently, and the counters this test reads are its own.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp::cli;
use qbdp::prelude::*;
use qbdp::workload::{dbgen, prices as wprices, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const FIG1_QDP: &str = include_str!("../data/figure1.qdp");

#[test]
fn telemetry_acceptance_end_to_end() {
    // --- 1. the pipeline trace for the Figure-1 chain query. -------
    let market = Market::open_qdp(FIG1_QDP).unwrap();
    market.set_policy(MarketPolicy {
        telemetry: true,
        ..MarketPolicy::default()
    });
    let out = cli::run_command(&market, "price --trace Q(x, y) :- R(x), S(x, y), T(y)");
    assert!(out.contains("price : $6.00"), "quote itself wrong:\n{out}");
    for span in [
        r#""span":"cache_lookup","detail":"miss""#,
        r#""span":"classify","detail":"gchq""#,
        r#""span":"normalize","detail":"steps_1_3""#,
        r#""span":"flow_solve","detail":"done""#,
    ] {
        assert!(out.contains(span), "missing span `{span}` in:\n{out}");
    }
    // The same shape under other variable names misses the quote cache
    // and is the plan cache's second miss of that shape, so it builds a
    // plan. A build runs the cold pipeline, so its stages are traced too.
    let out = cli::run_command(&market, "price --trace Q(u, w) :- R(u), S(u, w), T(w)");
    assert!(out.contains("price : $6.00"), "quote itself wrong:\n{out}");
    for span in [
        r#""span":"plan_cache","detail":"build""#,
        r#""span":"plan_build","detail":"","depth":0"#,
        r#""span":"normalize","detail":"steps_1_3","depth":1"#,
        r#""span":"flow_solve","detail":"done","depth":1"#,
    ] {
        assert!(out.contains(span), "missing span `{span}` in:\n{out}");
    }

    // --- 2. non-zero metrics in both export formats. ---------------
    // The trace run above already served one quote through one cache
    // miss; a second quote hits the cache, so both sides of the
    // hit/miss tally are provably non-zero, not just "some counter".
    let quote = market.quote_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
    assert!(quote.quality.is_exact());
    let prom = cli::run_command(&market, "stats");
    for needle in [
        "# TYPE qbdp_market_quotes_total counter",
        "qbdp_market_cache_hits_total 1",
        "qbdp_market_quote_latency_us_count",
    ] {
        assert!(prom.contains(needle), "missing `{needle}` in:\n{prom}");
    }
    assert!(
        !prom.contains("qbdp_market_quotes_total 0"),
        "quotes counter stayed zero:\n{prom}"
    );
    let json = cli::run_command(&market, "stats --json");
    assert!(
        json.contains(r#""qbdp_market_cache_hits_total": 1"#)
            || json.contains(r#""qbdp_market_cache_hits_total":1"#),
        "cache-hit tally missing from JSON:\n{json}"
    );
    assert!(
        json.contains("qbdp_market_quote_latency_us"),
        "latency histogram missing from JSON:\n{json}"
    );

    // --- 3. a forced degraded quote reaches the flight recorder. ---
    let qs = queries::h4_schema(199).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let d = dbgen::populate_zipf(&qs.catalog, &mut rng, 40_000, 0.8).unwrap();
    let hard = Market::open(
        qs.catalog.clone(),
        d,
        wprices::uniform(&qs.catalog, Price::dollars(1)),
    )
    .unwrap();
    hard.set_policy(MarketPolicy {
        telemetry: true,
        deadline: Some(Duration::from_millis(1)),
        sell_degraded: true,
        ..MarketPolicy::default()
    });
    let degraded = hard.quote_str("H4(x) :- R(x, y)").unwrap();
    assert!(!degraded.quality.is_exact(), "expected a degraded quote");
    let flight = cli::run_command(&hard, "stats --flight");
    assert!(
        flight.contains(r#""why":"degraded""#),
        "degraded quote not captured by the flight recorder:\n{flight}"
    );
    assert!(
        flight.contains("H4(x) :- R(x, y)"),
        "flight record lost the query text:\n{flight}"
    );

    // Leave the process-global flag the way the next binary expects it.
    hard.set_policy(MarketPolicy::default());
    assert!(!qbdp_obs::enabled());
}
