//! Concurrency stress: many buyer threads quoting (serially and in
//! batches) and purchasing while the seller inserts data. Validates the
//! locking discipline, the sharded quote cache's coherence (no served
//! quote is stale, entries disjoint from a write stay cached), and that
//! observed prices never decrease over time (Proposition 2.22 for full
//! CQs under selection-view prices).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp_catalog::{tuple, Tuple, Value};
use qbdp_core::{Price, Pricer};
use qbdp_market::{Market, MarketPolicy, MarketQuote};
use qbdp_workload::scenarios::business::{generate, BusinessConfig, BusinessMarket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

const QDP: &str = r#"
schema R(X)
schema S(X, Y)
schema T(Y)
column R.X = {0, 1, 2, 3, 4, 5}
column S.X = {0, 1, 2, 3, 4, 5}
column S.Y = {0, 1, 2, 3, 4, 5}
column T.Y = {0, 1, 2, 3, 4, 5}
price R.X=0 100
price R.X=1 100
price R.X=2 100
price R.X=3 100
price R.X=4 100
price R.X=5 100
price S.X=0 150
price S.X=1 150
price S.X=2 150
price S.X=3 150
price S.X=4 150
price S.X=5 150
price S.Y=0 150
price S.Y=1 150
price S.Y=2 150
price S.Y=3 150
price S.Y=4 150
price S.Y=5 150
price T.Y=0 100
price T.Y=1 100
price T.Y=2 100
price T.Y=3 100
price T.Y=4 100
price T.Y=5 100
"#;

#[test]
fn concurrent_quotes_and_inserts() {
    let market = Market::open_qdp(QDP).unwrap();
    let query = "Q(x, y) :- R(x), S(x, y), T(y)";
    // Highest price observed so far, as raw cents; monotonicity means no
    // thread may ever observe a price below a previously observed one
    // *after* the writer thread has finished the corresponding insert —
    // but across threads we can only assert a per-thread monotone view
    // plus the global before/after relation.
    let global_before = market.quote_str(query).unwrap().price;
    let writer_done = AtomicU64::new(0);

    thread::scope(|scope| {
        // Seller: insert a trickle of data.
        scope.spawn(|| {
            for i in 0..6i64 {
                market.insert("R", [Tuple::new([Value::Int(i)])]).unwrap();
                market
                    .insert("S", [tuple![i, (i + 1) % 6], tuple![i, (i + 2) % 6]])
                    .unwrap();
                market
                    .insert("T", [Tuple::new([Value::Int((i + 1) % 6)])])
                    .unwrap();
            }
            writer_done.store(1, Ordering::SeqCst);
        });
        // Buyers: quote in a loop; each thread's observed prices must be
        // non-decreasing (full CQ + selection views, Prop 2.22).
        for t in 0..4 {
            scope.spawn(|| {
                let mut last = Price::ZERO;
                for _ in 0..25 {
                    let quote = market.quote_str(query).unwrap();
                    assert!(
                        quote.price >= last,
                        "observed price dropped from {last} to {}",
                        quote.price
                    );
                    last = quote.price;
                }
                last
            });
            let _ = t;
        }
    });

    let global_after = market.quote_str(query).unwrap().price;
    assert!(global_after >= global_before);
    // A purchase after the dust settles delivers all current answers.
    let purchase = market.purchase_str(query).unwrap();
    assert!(!purchase.answer.is_empty());
    assert_eq!(market.sales(), 1);
}

/// Regression for the quote-cache staleness race: were a quote filled
/// after its pricing's read lock was released, an interleaved `insert`
/// could clear the cache and then have the *pre-update* quote cached
/// against the *post-update* data — served stale forever after. Filling
/// under the read guard the quote was priced under must prevent that:
/// after all updates land, the cached quote must equal a freshly
/// computed (uncached) one.
#[test]
fn quote_cache_never_serves_stale_prices() {
    let market = Market::open_qdp(QDP).unwrap();
    let query = "Q(x, y) :- R(x), S(x, y), T(y)";

    thread::scope(|scope| {
        // Quoters hammer the cache-fill path…
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..50 {
                    let _ = market.quote_str(query).unwrap();
                }
            });
        }
        // …while the seller races cache clears against their inserts.
        scope.spawn(|| {
            for i in 0..6i64 {
                market.insert("R", [Tuple::new([Value::Int(i)])]).unwrap();
                market.insert("S", [tuple![i, (i + 3) % 6]]).unwrap();
                market
                    .insert("T", [Tuple::new([Value::Int((i + 3) % 6)])])
                    .unwrap();
            }
        });
    });

    // Cached path vs uncached path must agree now that updates stopped.
    let cached = market.quote_str(query).unwrap().price;
    let fresh = market.with_pricer(|pricer| {
        let q = qbdp_query::parser::parse_rule(pricer.catalog().schema(), query).unwrap();
        pricer.price_cq(&q).unwrap().price
    });
    assert_eq!(cached, fresh, "cache serves a stale quote");
}

/// The uncached reference price of `query` (bypasses the quote cache).
fn fresh_price(market: &Market, query: &str) -> Price {
    market.with_pricer(|pricer| {
        let q = qbdp_query::parser::parse_rule(pricer.catalog().schema(), query).unwrap();
        pricer.price_cq(&q).unwrap().price
    })
}

const MIX_QUERIES: [&str; 4] = [
    "Q(x, y) :- R(x), S(x, y), T(y)",
    "Q(x) :- R(x)",
    "Q(y) :- T(y)",
    "Q(x, y) :- S(x, y)",
];

/// 8 threads mixing `quote_batch`, `purchase_str`, and `insert` against
/// one market. Checks, under the full API mix:
///
/// * the batch path's per-thread view of the monotone join price never
///   decreases (Prop 2.22 — a stale cached quote would violate this by
///   resurfacing an old, lower price);
/// * every slot of every batch succeeds;
/// * once the writers are done, cached quotes equal freshly computed
///   ones for every query — no quote served from stale data.
#[test]
fn eight_thread_batch_purchase_insert_mix() {
    let market = Market::open_qdp(QDP).unwrap();

    thread::scope(|scope| {
        // 2 sellers: disjoint value ranges so inserts never conflict.
        for w in 0..2i64 {
            let market = &market;
            scope.spawn(move || {
                for i in 0..3i64 {
                    let v = w * 3 + i;
                    market.insert("R", [Tuple::new([Value::Int(v)])]).unwrap();
                    market.insert("S", [tuple![v, (v + 1) % 6]]).unwrap();
                    market
                        .insert("T", [Tuple::new([Value::Int((v + 1) % 6)])])
                        .unwrap();
                }
            });
        }
        // 4 batch quoters: every slot must fill, and the join price (slot
        // 0) must be monotone within each thread.
        for _ in 0..4 {
            let market = &market;
            scope.spawn(move || {
                let mut last_join = Price::ZERO;
                for _ in 0..20 {
                    let out = market.quote_batch(&MIX_QUERIES);
                    assert_eq!(out.len(), MIX_QUERIES.len());
                    let join = out[0].as_ref().unwrap().price;
                    for slot in &out {
                        assert!(slot.is_ok(), "{slot:?}");
                    }
                    assert!(
                        join >= last_join,
                        "join price dropped {last_join} -> {join} (stale quote?)"
                    );
                    last_join = join;
                }
            });
        }
        // 2 purchasers: exercise the write-lock path concurrently.
        for _ in 0..2 {
            let market = &market;
            scope.spawn(move || {
                for _ in 0..10 {
                    let p = market.purchase_str("Q(x) :- R(x)").unwrap();
                    assert!(p.quote.price.is_finite());
                }
            });
        }
    });

    // Writers are done: anything the cache now serves must equal the
    // uncached price computed from the final data.
    for query in MIX_QUERIES {
        let cached = market.quote_str(query).unwrap().price;
        assert_eq!(
            cached,
            fresh_price(&market, query),
            "stale cached quote for `{query}`"
        );
    }
    assert_eq!(market.sales(), 20);
}

/// Every field of a served quote must equal a cold single-threaded
/// `Pricer::price_cq` of the same query on the market's current state —
/// the warm-start path is not allowed to drift in receipts, method,
/// class, quality, or bounds.
#[track_caller]
fn assert_matches_cold(market: &Market, query: &str, served: &MarketQuote) {
    market.with_pricer(|pricer| {
        let schema = pricer.catalog().schema();
        let q = qbdp_query::parser::parse_rule(schema, query).unwrap();
        let cold = pricer.price_cq(&q).unwrap();
        assert_eq!(served.price, cold.price, "price drift for `{query}`");
        assert_eq!(
            served.lower_bound, cold.lower_bound,
            "bound drift for `{query}`"
        );
        assert_eq!(served.views(), cold.views, "view drift for `{query}`");
        assert_eq!(served.method, cold.method, "method drift for `{query}`");
        assert_eq!(served.class, cold.class, "class drift for `{query}`");
        assert_eq!(served.quality, cold.quality, "quality drift for `{query}`");
        let receipt: Vec<String> = cold
            .views
            .iter()
            .map(|v| format!("{} @ {}", v.display(schema), pricer.prices().get(v)))
            .collect();
        assert_eq!(served.receipt(), receipt, "receipt drift for `{query}`");
        assert_eq!(served.query, qbdp_query::pretty::render(&q, schema));
    });
}

/// A market with some data, so join prices exercise the real min-cut,
/// not empty networks.
fn storm_market() -> Market {
    let market = Market::open_qdp(QDP).unwrap();
    for i in 0..6i64 {
        market.insert("R", [Tuple::new([Value::Int(i)])]).unwrap();
        market.insert("S", [tuple![i, (i + 1) % 6]]).unwrap();
        market
            .insert("T", [Tuple::new([Value::Int((i + 1) % 6)])])
            .unwrap();
    }
    market
}

/// Price-update storm: `writers` seller threads revise prices while the
/// remaining threads (8 total) hammer quotes. Revisions hit only the
/// single-attribute relations `R.X` and `T.Y`, where *any* price is
/// arbitrage-consistent (no bundle of other views covers a selection on
/// the sole column of a relation), so every `set_price` must succeed.
///
/// Checks, under column-scoped invalidation and warm-started repricing:
///
/// * every quote during the storm succeeds (invalidation never wedges a
///   shard or poisons an entry);
/// * once the writers stop, every served quote matches a cold
///   `Pricer::price_cq` of the final state field for field —
///   `set_price(R.X=…)` must have invalidated every cached quote whose
///   footprint touches `R.X`, and the plans it warm-reprices must match
///   a cold solve;
/// * a few more revisions afterwards drive the warm path for certain.
fn price_update_storm(writers: usize) {
    let market = storm_market();
    let quoters = 8 - writers;

    thread::scope(|scope| {
        for w in 0..writers {
            let market = &market;
            scope.spawn(move || {
                for round in 0..15u64 {
                    // Single-attribute relations: always consistent.
                    let v = (w as u64 + round) % 6;
                    let cents = 50 + (w as u64 * 37 + round * 19) % 350;
                    market
                        .set_price(&format!("R.X={v}"), Price::cents(cents))
                        .unwrap();
                    market
                        .set_price(&format!("T.Y={v}"), Price::cents(cents + 25))
                        .unwrap();
                }
            });
        }
        for t in 0..quoters {
            let market = &market;
            scope.spawn(move || {
                for i in 0..30 {
                    let query = MIX_QUERIES[(t + i) % MIX_QUERIES.len()];
                    let quote = market.quote_str(query).unwrap();
                    assert!(quote.price.is_finite(), "storm quote went infinite");
                }
            });
        }
    });

    // Writers are done: the cache must now serve the final price list.
    for query in MIX_QUERIES {
        assert_matches_cold(&market, query, &market.quote_str(query).unwrap());
    }
    for round in 0..3u64 {
        market
            .set_price("R.X=0", Price::cents(60 + 40 * round))
            .unwrap();
        for query in MIX_QUERIES {
            assert_matches_cold(&market, query, &market.quote_str(query).unwrap());
        }
    }
    let stats = market.plan_stats();
    assert!(
        stats.warm_reprices > 0,
        "warm path never engaged: {stats:?}"
    );
}

/// 90/10 quote/setprice mix (7 quoters, 1 price writer).
#[test]
fn update_storm_90_10() {
    price_update_storm(1);
}

/// 50/50 quote/setprice mix (4 quoters, 4 price writers).
#[test]
fn update_storm_50_50() {
    price_update_storm(4);
}

/// Eight batch workers price the same shape at once: one batch holds
/// eight renamings of the chain join (one shape, eight quote-cache
/// keys), so every worker checks the same plan out, builds or reprices
/// it, and checks it back in concurrently. Every slot must still equal
/// a cold solve, round after round of price revisions.
#[test]
fn batch_workers_share_one_shape_concurrently() {
    let market = storm_market();
    market.set_policy(MarketPolicy {
        batch_workers: 8,
        ..MarketPolicy::default()
    });
    let queries: Vec<String> = (0..8)
        .map(|i| format!("Q{i}(x, y) :- R(x), S(x, y), T(y)"))
        .collect();
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    for round in 0..12u64 {
        market
            .set_price(&format!("R.X={}", round % 6), Price::cents(50 + 23 * round))
            .unwrap();
        for (query, served) in refs.iter().zip(market.quote_batch(&refs)) {
            assert_matches_cold(&market, query, &served.unwrap());
        }
    }
    let stats = market.plan_stats();
    assert!(stats.builds >= 1, "no plan was built: {stats:?}");
    assert!(
        stats.warm_reprices > 0,
        "warm path never engaged: {stats:?}"
    );
}

/// The business directory of the paper's §1: seed 2012, 10 states × 10
/// counties × 400 businesses.
fn directory() -> BusinessMarket {
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(2012);
    let config = BusinessConfig {
        states: 10,
        counties_per_state: 10,
        businesses: 400,
        ..BusinessConfig::default()
    };
    generate(&mut rng, config).unwrap()
}

/// Two batch workers price 64 distinct county slices on a freshly opened
/// directory market. Nothing has read `Business` through an index yet, so
/// the workers race to build its lazy indexes, and to fill the full-cover
/// sums kept with the prices. Every slot must equal a serial cold price
/// on a directory generated apart, which shares no relation, index or
/// price map with the market.
#[test]
fn batch_workers_race_to_build_indexes_and_cover_sums() {
    let m = directory();
    let market = Market::open(m.catalog, m.instance, m.prices).unwrap();
    market.set_policy(MarketPolicy {
        batch_workers: 2,
        ..MarketPolicy::default()
    });
    let reference = directory();
    let queries: Vec<String> = (0..64)
        .map(|i| {
            let state = i % 10;
            let mask = 1 + i / 10 * 97 % 1023;
            let counties: Vec<String> = (0..10)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| format!("'{}'", reference.counties[state * 10 + b]))
                .collect();
            format!(
                "Q(n, c) :- Business(n, '{}', c), c in {{{}}}",
                reference.states[state],
                counties.join(", ")
            )
        })
        .collect();
    let distinct: std::collections::BTreeSet<&String> = queries.iter().collect();
    assert_eq!(distinct.len(), queries.len());
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let served = market.quote_batch(&refs);

    let pricer = Pricer::new(reference.catalog, reference.instance, reference.prices).unwrap();
    for (query, served) in refs.iter().zip(served) {
        let served = served.unwrap();
        let q = qbdp_query::parser::parse_rule(pricer.catalog().schema(), query).unwrap();
        let cold = pricer.price_cq(&q).unwrap();
        assert_eq!(served.price, cold.price, "price drift for `{query}`");
        assert_eq!(served.views(), cold.views, "view drift for `{query}`");
        assert_eq!(served.method, cold.method, "method drift for `{query}`");
        assert_eq!(served.quality, cold.quality, "quality drift for `{query}`");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache-coherence property: for ANY interleaving of a random insert
    /// schedule with concurrent batch quoting, once the writer finishes,
    /// the cache serves exactly the prices of the final data — never a
    /// quote priced against older data. (The threads' scheduling is the
    /// random part the proptest seed can't control; the insert schedule
    /// varies the data it races against.)
    #[test]
    fn cache_coherent_under_random_insert_schedules(
        inserts in proptest::collection::vec((0u8..3, 0i64..6, 0i64..6), 1..12),
    ) {
        let market = Market::open_qdp(QDP).unwrap();
        thread::scope(|scope| {
            let market = &market;
            let schedule = &inserts;
            scope.spawn(move || {
                for &(rel, a, b) in schedule {
                    match rel {
                        0 => market.insert("R", [Tuple::new([Value::Int(a)])]).unwrap(),
                        1 => market.insert("S", [tuple![a, b]]).unwrap(),
                        _ => market.insert("T", [Tuple::new([Value::Int(b)])]).unwrap(),
                    };
                }
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..8 {
                        for slot in market.quote_batch(&MIX_QUERIES) {
                            assert!(slot.is_ok(), "{slot:?}");
                        }
                    }
                });
            }
        });
        for query in MIX_QUERIES {
            let cached = market.quote_str(query).unwrap().price;
            prop_assert_eq!(
                cached,
                fresh_price(&market, query),
                "stale cached quote for `{}`",
                query
            );
        }
    }
}
