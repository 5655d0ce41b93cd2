//! E17: the update storm — what incremental pricing buys when quotes
//! interleave with price revisions. Each `set_price` invalidates the
//! touched quotes column-scoped, so a served quote after it pays a
//! reprice, which the market's plan cache answers by repairing the
//! previous flow (residual warm start). The same op stream is replayed
//! twice: once served (`Market::quote_str`), once parsed and priced cold
//! by `Pricer::price_rule` (a min-cut re-solved from scratch, what every
//! quote would cost without the caches). Per-quote latency medians are
//! compared at two mixes (90/10 and 50/50 quote/setprice) across two
//! scenarios, [`REPEATS`] times; each scenario × mix is one workload of
//! `BENCH_update_storm.json` (qbench's `qbench/1` schema), and a run is
//! correct when the served answers equal the cold ones.

#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_bench::{chain_market, median_of, metric, write_results, CHAIN_N, REPEATS};
use qbdp_core::{Price, Quote};
use qbdp_determinacy::selection::SelectionView;
use qbdp_market::MarketQuote;
use qbench::report::{self, RunResult};
use std::time::Instant;

/// Quotes measured per (scenario, mix, mode) run.
const QUOTES: usize = 400;

struct Scenario {
    name: &'static str,
    /// Quote stream: cycled in order.
    queries: Vec<String>,
    /// Price-revision stream: `(view, cents)`, cycled in order. Ranges
    /// are chosen arbitrage-free (single-attribute relations accept any
    /// price; `S` revisions stay far below any alternative cover).
    revisions: Vec<(String, u64)>,
}

fn scenarios() -> Vec<Scenario> {
    // One hot query shape: every revision forces a full reprice of the
    // chain join — the purest cold-solve vs warm-start comparison.
    let chain_join = Scenario {
        name: "chain_join",
        queries: vec!["Q(x, y) :- R(x), S(x, y), T(y)".to_string()],
        revisions: (0..CHAIN_N as u64)
            .map(|v| (format!("R.X={v}"), 60 + (v * 17) % 300))
            .collect(),
    };
    // A pool of constant-selection shapes over `S`: each constant is its
    // own plan-cache entry, so a storm on `S.X` invalidates the whole
    // pool and the warm market repairs many small networks instead of
    // re-deriving them.
    let selection_pool = Scenario {
        name: "selection_pool",
        queries: (0..CHAIN_N).map(|c| format!("Q(y) :- S({c}, y)")).collect(),
        revisions: (0..CHAIN_N as u64)
            .map(|v| (format!("S.X={v}"), 110 + (v * 13) % 180))
            .collect(),
    };
    vec![chain_join, selection_pool]
}

/// One quote of a run, kept whole until the timed loop is over: the
/// served side holds its quote's shared receipt, the cold side owns its
/// views, and neither is copied or rendered inside the timed region.
enum Answer {
    Served(MarketQuote),
    Cold(Quote),
}

impl Answer {
    fn price_and_views(&self) -> (Price, &[SelectionView]) {
        match self {
            Answer::Served(q) => (q.price, q.views()),
            Answer::Cold(q) => (q.price, &q.views),
        }
    }
}

/// Run `QUOTES` quotes at `quotes_per_revision` against a fresh market,
/// each served (`quote_str`) or parsed and priced cold
/// (`Pricer::price_rule` on the market's state), returning the per-quote
/// latencies in microseconds and the answers in stream order. The two
/// modes run as separate passes, so neither evicts the other's working
/// set from the CPU caches.
fn run_mix(
    scenario: &Scenario,
    quotes_per_revision: usize,
    served: bool,
) -> (Vec<f64>, Vec<Answer>) {
    let market = chain_market();
    // Warm up: quote every shape once so the measured region compares
    // steady states, not first-touch derivation.
    for q in &scenario.queries {
        market.quote_str(q).expect("warmup quote");
    }
    let mut latencies = Vec::with_capacity(QUOTES);
    let mut answers = Vec::with_capacity(QUOTES);
    let mut revision = scenario.revisions.iter().cycle();
    for i in 0..QUOTES {
        if i % quotes_per_revision == 0 {
            let (view, cents) = revision.next().expect("cycled");
            market
                .set_price(view, Price::cents(*cents))
                .expect("arbitrage-free revision");
        }
        let q = &scenario.queries[i % scenario.queries.len()];
        let start = Instant::now();
        let answer = if served {
            Answer::Served(market.quote_str(q).expect("storm quote"))
        } else {
            Answer::Cold(market.with_pricer(|p| p.price_rule(q).expect("cold quote")))
        };
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
        answers.push(answer);
    }
    (latencies, answers)
}

/// One repeat of one scenario × mix: the served pass, then the cold one.
fn measure(scenario: &Scenario, mix: &str, per: usize, seed: u64) -> RunResult {
    let (warm, served) = run_mix(scenario, per, true);
    let (cold, reference) = run_mix(scenario, per, false);
    let cold_median_us = report::median(&cold).expect("quotes were timed");
    let warm_median_us = report::median(&warm).expect("quotes were timed");
    RunResult {
        workload: format!("{}_{mix}", scenario.name),
        seed,
        correct: served
            .iter()
            .map(Answer::price_and_views)
            .eq(reference.iter().map(Answer::price_and_views)),
        attempted: (served.len() + reference.len()) as u64,
        failed: 0,
        metrics: vec![
            metric("cold_median_us", "us", cold_median_us),
            metric("warm_median_us", "us", warm_median_us),
            // Median-throughput ratio warm/cold (quotes per second at the
            // median latency).
            metric("speedup", "ratio", cold_median_us / warm_median_us),
        ],
    }
}

/// 90/10: nine quotes per revision; 50/50: one for one.
const MIXES: [(&str, usize); 2] = [("90_10", 9), ("50_50", 1)];

fn main() {
    println!(
        "E17 — update storm: served quotes (warm starts) vs cold solves, {REPEATS} runs of {QUOTES} quotes"
    );
    let start = Instant::now();
    let scenarios = scenarios();
    let mut runs = Vec::new();
    // Repeats outermost, so drift on a shared machine spreads over every
    // workload instead of landing on one.
    for seed in 0..REPEATS {
        for scenario in &scenarios {
            for (mix, per) in MIXES {
                runs.push(measure(scenario, mix, per, seed));
            }
        }
    }
    write_results(
        "BENCH_update_storm.json",
        &runs,
        start.elapsed().as_secs_f64() / REPEATS as f64,
    );

    assert!(
        runs.iter().all(|r| r.correct),
        "served and cold answers differ"
    );
    // The acceptance bar this experiment exists for: at least one
    // scenario must show ≥3x median quote throughput under the 50/50
    // mix, on the median across runs.
    let best_50_50 = scenarios
        .iter()
        .map(|s| median_of(&runs, &format!("{}_50_50", s.name), "speedup"))
        .fold(0.0f64, f64::max);
    assert!(
        best_50_50 >= 3.0,
        "no scenario reached a 3x median speedup under the 50/50 mix (best {best_50_50:.2}x)"
    );
}
