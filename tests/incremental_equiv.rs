//! Differential battery for the incremental pricing engine: every quote
//! a market serves — through the quote cache, the plan cache, and
//! residual warm starts — must be *observationally identical* to a cold
//! single-threaded `Pricer::price_cq` of the same query on the market's
//! current state. Random catalogs of the chain shape × random update
//! streams (`set_price` / `insert` interleaved with quotes) are
//! replayed; every served quote must match the cold reference field for
//! field — price, lower bound, receipt, views, method, class, and
//! `QuoteQuality` — and every error must match variant for variant. A
//! separate run exercises tight fuel budgets with `sell_degraded`, where
//! the degraded `[lower, upper]` intervals must equal
//! `Pricer::price_cq_within` under the same budget (budgeted quotes
//! never touch the plan cache, and this is what holds the market to
//! that).
//!
//! The headline test is a seeded exhaustion loop with an explicit
//! comparison counter: in release mode it must certify at least 10,000
//! quote comparisons (the acceptance bar), with a smaller stream count
//! under `debug_assertions` so `cargo test` stays quick.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp::core::PlanStats;
use qbdp::prelude::*;

const N: i64 = 6; // column size: {0, …, 5}

/// xorshift64* — deterministic, dependency-free stream generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn chain_catalog() -> Catalog {
    let col = Column::int_range(0, N);
    CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["Y"], &col)
        .build()
        .unwrap()
}

/// Uniform starting price list: cheap enough that the random revisions
/// below keep the list arbitrage-free (see `random_set_price`).
fn base_prices(catalog: &Catalog) -> PriceList {
    let mut prices = PriceList::new();
    for attr in catalog.schema().all_attrs() {
        let name = catalog.schema().attr_display(attr);
        let cents = if name.starts_with("S.") { 150 } else { 100 };
        for v in catalog.column(attr).iter() {
            prices.set(SelectionView::new(attr, v.clone()), Price::cents(cents));
        }
    }
    prices
}

/// Query pool: every engine path the plan cache fronts. The chain join
/// and the full single-relation queries take the GChQ flow pipeline, and
/// thus plan builds and residual warm starts; the predicate-carrying and
/// hanging-variable joins run it through Step 1's column shrinks and
/// Step 3's cover/skip branches; the repeated-variable and
/// constant-carrying shapes exercise the transformed-attribute
/// pre-seeding; the projection (exact subset search) and the boolean
/// shapes (witness or fullification) bypass the plan cache.
const QUERIES: &[&str] = &[
    "Q(x, y) :- R(x), S(x, y), T(y)",
    "Q(x) :- R(x)",
    "Q(y) :- T(y)",
    "Q(x, y) :- S(x, y)",
    "Q(x) :- S(x, x)",
    "Q(y) :- S(0, y)",
    "Q(x) :- S(x, y)",
    "Q() :- S(x, y)",
    "Q() :- R(x), T(y)",
    "Q(x, y) :- R(x), S(x, y), T(y), x > 1",
    "Q(x, y) :- R(x), S(x, y)",
    "Q(x, y) :- S(x, y), T(y), y != 2",
];

/// A market over an empty chain instance.
fn market() -> Market {
    let catalog = chain_catalog();
    let instance = catalog.empty_instance();
    let prices = base_prices(&catalog);
    Market::open(catalog, instance, prices).unwrap()
}

/// A cold quote dressed the way the market dresses quotes, with its
/// receipt rendered here rather than by the market.
#[derive(Debug)]
struct ColdQuote {
    query: String,
    price: Price,
    receipt: Vec<String>,
    views: Vec<SelectionView>,
    method: PricingMethod,
    class: QueryClass,
    quality: QuoteQuality,
    lower_bound: Price,
}

/// What the market must serve for `query` on its current state: a cold
/// `Pricer::price_cq` (or `price_cq_within` under `fuel`), dressed the
/// way the market dresses quotes.
fn cold_reference(
    market: &Market,
    query: &str,
    fuel: Option<u64>,
) -> Result<ColdQuote, MarketError> {
    let sell_degraded = market.policy().sell_degraded;
    market.with_pricer(|p| {
        let schema = p.catalog().schema();
        let q = parse_rule(schema, query)?;
        let quote = match fuel {
            None => p.price_cq(&q)?,
            Some(f) => p.price_cq_within(&q, &Budget::with_fuel(f))?,
        };
        if quote.price.is_infinite() {
            return Err(MarketError::NotForSale);
        }
        if !quote.quality.is_exact() && !sell_degraded {
            return Err(MarketError::DeadlineExceeded);
        }
        let receipt = quote
            .views
            .iter()
            .map(|v| format!("{} @ {}", v.display(schema), p.prices().get(v)))
            .collect();
        Ok(ColdQuote {
            query: qbdp::query::pretty::render(&q, schema),
            price: quote.price,
            receipt,
            views: quote.views,
            method: quote.method,
            class: quote.class,
            quality: quote.quality,
            lower_bound: quote.lower_bound,
        })
    })
}

/// Every observable field of a quote must agree — bit-identical, not
/// merely equal prices.
#[track_caller]
fn assert_same_quote(query: &str, served: &MarketQuote, cold: &ColdQuote) {
    assert_eq!(served.price, cold.price, "price drift on `{query}`");
    assert_eq!(
        served.lower_bound, cold.lower_bound,
        "lower-bound drift on `{query}`"
    );
    assert_eq!(served.quality, cold.quality, "quality drift on `{query}`");
    assert_eq!(served.method, cold.method, "method drift on `{query}`");
    assert_eq!(served.class, cold.class, "class drift on `{query}`");
    assert_eq!(served.views(), cold.views, "view-set drift on `{query}`");
    assert_eq!(served.receipt(), cold.receipt, "receipt drift on `{query}`");
    assert_eq!(served.query, cold.query, "rendering drift on `{query}`");
}

/// Quote `query` and demand the cold reference's outcome (a matching
/// quote, or a matching error variant). Returns 1 for the comparison
/// made.
#[track_caller]
fn compare_quote(market: &Market, query: &str, fuel: Option<u64>) -> u64 {
    match (market.quote_str(query), cold_reference(market, query, fuel)) {
        (Ok(served), Ok(cold)) => assert_same_quote(query, &served, &cold),
        (served, cold) => {
            let (served, cold) = (format!("{served:?}"), format!("{cold:?}"));
            assert_eq!(served, cold, "outcome drift on `{query}`");
        }
    }
    1
}

/// Revise one price. Revisions on the single-attribute relations
/// (`R.X`, `T.Y`) draw from 50–449¢ — any price is arbitrage-free there,
/// since no bundle of other views covers a selection on a relation's
/// only column. Revisions on `S` stay in 100–299¢: every alternative
/// cover of an `S` selection needs all six views of the other attribute
/// (≥ 600¢ at the 100¢ floor), so no revision in range can introduce
/// arbitrage.
fn random_set_price(rng: &mut Rng, market: &Market) {
    let (view, cents) = match rng.below(4) {
        0 => (format!("R.X={}", rng.below(N as u64)), 50 + rng.below(400)),
        1 => (format!("T.Y={}", rng.below(N as u64)), 50 + rng.below(400)),
        2 => (format!("S.X={}", rng.below(N as u64)), 100 + rng.below(200)),
        _ => (format!("S.Y={}", rng.below(N as u64)), 100 + rng.below(200)),
    };
    market.set_price(&view, Price::cents(cents)).unwrap();
}

/// Insert one random tuple.
fn random_insert(rng: &mut Rng, market: &Market) {
    let (a, b) = (rng.below(N as u64) as i64, rng.below(N as u64) as i64);
    let (rel, tuple) = match rng.below(3) {
        0 => ("R", tuple![a]),
        1 => ("S", tuple![a, b]),
        _ => ("T", tuple![b]),
    };
    market.insert(rel, [tuple]).unwrap();
}

/// Replay one random update stream against a fresh market, returning
/// the number of quote comparisons performed and the market's plan-cache
/// counters.
fn run_stream(seed: u64, ops: usize) -> (u64, PlanStats) {
    let mut rng = Rng(seed | 1);
    let market = market();
    let mut comparisons = 0;
    for _ in 0..ops {
        match rng.below(5) {
            // Updates outnumber quotes 3:2 so plans are repeatedly
            // invalidated/repriced, not filled once and served forever.
            0 | 1 => random_set_price(&mut rng, &market),
            2 => random_insert(&mut rng, &market),
            _ => {}
        }
        // Two random quotes after every op: one immediately repeated
        // shape (the warm-start / cache-hit path), one fresh draw.
        let q = QUERIES[rng.below(QUERIES.len() as u64) as usize];
        comparisons += compare_quote(&market, q, None);
        comparisons += compare_quote(&market, q, None);
    }
    // Final sweep: after the stream settles, every pool query must
    // agree — catches staleness that the random draws happened to miss.
    for q in QUERIES {
        comparisons += compare_quote(&market, q, None);
    }
    (comparisons, market.plan_stats())
}

/// The headline battery: ≥ 10,000 randomized update-stream comparisons
/// in release mode (the acceptance bar), a fast subset under debug.
#[test]
fn warm_start_quotes_match_cold_start_over_random_update_streams() {
    let streams: u64 = if cfg!(debug_assertions) { 24 } else { 360 };
    let mut comparisons = 0u64;
    let mut warm_reprices = 0u64;
    for stream in 0..streams {
        let (n, stats) = run_stream(0x9E37_79B9_7F4A_7C15 ^ (stream * 0x0123_4567_89AB_CDEF), 12);
        comparisons += n;
        warm_reprices += stats.warm_reprices;
    }
    // The served path must actually have warm-started, or the battery
    // proves nothing about the incremental engine.
    assert!(warm_reprices > 0, "warm path never engaged");
    if !cfg!(debug_assertions) {
        assert!(
            comparisons >= 10_000,
            "only {comparisons} served/cold comparisons — below the 10k acceptance bar"
        );
    }
}

/// Under a fuel budget with `sell_degraded`, served quotes must equal
/// `price_cq_within` under the same budget: the degraded
/// `[lower_bound, price]` intervals and `QuoteQuality` tags must be
/// identical — not merely both sound — and the plan cache must not
/// serve at all.
#[test]
fn degraded_intervals_match_under_tight_budgets() {
    let mut rng = Rng(0xD1F_FEED);
    for trial in 0..8u64 {
        let market = market();
        let fuel = trial * 37; // 0 (instant exhaustion) through generous
        let mut policy = market.policy();
        policy.fuel = Some(fuel);
        policy.sell_degraded = true;
        market.set_policy(policy);
        for _ in 0..4 {
            random_insert(&mut rng, &market);
        }
        for q in QUERIES {
            compare_quote(&market, q, Some(fuel));
        }
        let stats = market.plan_stats();
        assert_eq!(
            stats.hits + stats.misses + stats.warm_reprices,
            0,
            "plan cache served under a fuel budget: {stats:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Proptest wrapper over the same battery: shrinking finds the
    /// minimal op count on a divergence, which the seeded loop cannot.
    #[test]
    fn warm_cold_equivalence_holds_for_proptest_streams(
        seed in any::<u64>(),
        ops in 1usize..10,
    ) {
        run_stream(seed, ops);
    }
}
