//! E17: the update storm — what incremental pricing buys when quotes
//! interleave with price revisions. Each `set_price` invalidates the
//! touched quotes column-scoped, so a served quote after it pays a
//! reprice, which the market's plan cache answers by repairing the
//! previous flow (residual warm start). The same op stream is replayed
//! twice: once served (`Market::quote_str`), once parsed and priced cold
//! by `Pricer::price_cq` (a min-cut re-solved from scratch, what every
//! quote would cost without the caches). Per-quote latency medians are
//! compared at two mixes (90/10 and 50/50 quote/setprice) across two
//! scenarios; results print as a table and land in
//! `BENCH_update_storm.json` for the experiment index.

#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_catalog::{tuple, Catalog, CatalogBuilder, Column};
use qbdp_core::price_points::PriceList;
use qbdp_core::Price;
use qbdp_determinacy::selection::SelectionView;
use qbdp_market::Market;
use std::fmt::Write as _;
use std::time::Instant;

/// Column size: {0, …, N-1}. Sized so the chain join's flow network is
/// big enough that a cold solve visibly out-costs a residual repair.
const N: i64 = 40;

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
        let cents = if name.starts_with("S.") { 150 } else { 100 };
        for v in catalog.column(attr).iter() {
            prices.set(SelectionView::new(attr, v.clone()), Price::cents(cents));
        }
    }
    Market::open(catalog, instance, prices).expect("chain market opens")
}

fn scenarios() -> Vec<Scenario> {
    // One hot query shape: every revision forces a full reprice of the
    // chain join — the purest cold-solve vs warm-start comparison.
    let chain_join = Scenario {
        name: "chain_join",
        queries: vec!["Q(x, y) :- R(x), S(x, y), T(y)".to_string()],
        revisions: (0..N as u64)
            .map(|v| (format!("R.X={v}"), 60 + (v * 17) % 300))
            .collect(),
    };
    // A pool of constant-selection shapes over `S`: each constant is its
    // own plan-cache entry, so a storm on `S.X` invalidates the whole
    // pool and the warm market repairs many small networks instead of
    // re-deriving them.
    let selection_pool = Scenario {
        name: "selection_pool",
        queries: (0..N).map(|c| format!("Q(y) :- S({c}, y)")).collect(),
        revisions: (0..N as u64)
            .map(|v| (format!("S.X={v}"), 110 + (v * 13) % 180))
            .collect(),
    };
    vec![chain_join, selection_pool]
}

/// Run `QUOTES` quotes at `quotes_per_revision` against a fresh market,
/// each served (`quote_str`) or parsed and priced cold
/// (`Pricer::price_rule` on the market's state), returning the per-quote
/// latencies in microseconds, sorted, and the `(price, views)` answers
/// in stream order. The two modes run as separate passes, so neither
/// evicts the other's working set from the CPU caches.
fn run_mix(
    scenario: &Scenario,
    quotes_per_revision: usize,
    served: bool,
) -> (Vec<f64>, Vec<(Price, Vec<SelectionView>)>) {
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
            let quote = market.quote_str(q).expect("storm quote");
            (quote.price, quote.views)
        } else {
            let quote = market.with_pricer(|p| p.price_rule(q).expect("cold quote"));
            (quote.price, quote.views)
        };
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
        answers.push(answer);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (latencies, answers)
}

fn median(sorted: &[f64]) -> f64 {
    sorted[sorted.len() / 2]
}

struct MixResult {
    mix: &'static str,
    cold_median_us: f64,
    warm_median_us: f64,
}

impl MixResult {
    /// Median-throughput ratio warm/cold (quotes per second at the
    /// median latency).
    fn speedup(&self) -> f64 {
        self.cold_median_us / self.warm_median_us
    }
}

fn main() {
    let mut rows: Vec<(&'static str, MixResult)> = Vec::new();
    println!("E17 — update storm: served quotes (warm starts) vs cold solves");
    for scenario in scenarios() {
        // 90/10: nine quotes per revision; 50/50: one for one.
        for (mix, per) in [("90_10", 9usize), ("50_50", 1usize)] {
            let (warm, served) = run_mix(&scenario, per, true);
            let (cold, reference) = run_mix(&scenario, per, false);
            assert_eq!(served, reference, "served and cold answers differ");
            let result = MixResult {
                mix,
                cold_median_us: median(&cold),
                warm_median_us: median(&warm),
            };
            println!(
                "  {:>15} {}: cold median {:>9.1} µs   served median {:>9.1} µs   speedup {:>5.2}x",
                scenario.name,
                mix,
                result.cold_median_us,
                result.warm_median_us,
                result.speedup()
            );
            rows.push((scenario.name, result));
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"E17\",");
    let _ = writeln!(json, "  \"quotes_per_run\": {QUOTES},");
    let _ = writeln!(json, "  \"column_size\": {N},");
    for (i, (name, r)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "  \"{name}_{}_cold_median_us\": {:.2},",
            r.mix, r.cold_median_us
        );
        let _ = writeln!(
            json,
            "  \"{name}_{}_warm_median_us\": {:.2},",
            r.mix, r.warm_median_us
        );
        let _ = writeln!(
            json,
            "  \"{name}_{}_median_speedup\": {:.2}{comma}",
            r.mix,
            r.speedup()
        );
    }
    json.push('}');
    std::fs::write("BENCH_update_storm.json", &json).expect("write BENCH_update_storm.json");
    println!("  wrote BENCH_update_storm.json");

    // The acceptance bar this experiment exists for: at least one
    // scenario must show ≥3x median quote throughput under the 50/50
    // mix. Fail loudly here rather than letting the JSON rot quietly.
    let best_50_50 = rows
        .iter()
        .filter(|(_, r)| r.mix == "50_50")
        .map(|(_, r)| r.speedup())
        .fold(0.0f64, f64::max);
    assert!(
        best_50_50 >= 3.0,
        "no scenario reached 3x under the 50/50 mix (best {best_50_50:.2}x)"
    );
}
