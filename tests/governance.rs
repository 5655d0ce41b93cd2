//! Resource-governance acceptance tests: deadlines on NP-hard queries,
//! degraded-quote soundness, panic isolation, and admission control.
//!
//! Timing assertions use a 2× tolerance in release builds (the CI deadline
//! job runs these with `--release`); debug builds get a wider factor so
//! tier-1 `cargo test` stays deterministic on slow machines — wide enough
//! to absorb unoptimized code, still tight enough to catch a hang.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp::core::fault;
use qbdp::prelude::*;
use qbdp::workload::{dbgen, prices as wprices, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// The injected engine panic is process-wide and one-shot: tests that
/// price hold this shared, and tests that arm the trap hold it
/// exclusively, so no other test's pricing call can trip it.
static ENGINE: RwLock<()> = RwLock::new(());

fn pricing() -> RwLockReadGuard<'static, ()> {
    ENGINE.read().unwrap_or_else(PoisonError::into_inner)
}

fn trapping() -> RwLockWriteGuard<'static, ()> {
    ENGINE.write().unwrap_or_else(PoisonError::into_inner)
}

/// Deadline-overshoot tolerance factor (× the deadline).
fn tolerance() -> u32 {
    if cfg!(debug_assertions) {
        20
    } else {
        2
    }
}

/// A ~10k-tuple Zipf-skewed instance for an NP-hard query family.
fn big_instance(qs: &queries::QuerySet) -> Instance {
    let mut rng = StdRng::seed_from_u64(42);
    let d = dbgen::populate_zipf(&qs.catalog, &mut rng, 40_000, 0.8).unwrap();
    assert!(
        d.total_tuples() >= 10_000,
        "instance too small: {} tuples",
        d.total_tuples()
    );
    d
}

/// Acceptance: an H4-class query (`H4(x) :- R(x, y)`, NP-complete by
/// Theorem 3.5) against a 10k-tuple instance with a 50 ms deadline returns
/// a `QuoteQuality::UpperBound` quote — not an error, not a hang — within
/// tolerance of the deadline.
#[test]
fn h4_large_instance_meets_deadline() {
    let _engine = pricing();
    let qs = queries::h4_schema(199).unwrap();
    let d = big_instance(&qs);
    let prices = wprices::uniform(&qs.catalog, Price::dollars(1));
    let market = Market::open(qs.catalog.clone(), d, prices).unwrap();
    let deadline = Duration::from_millis(50);
    market.set_policy(MarketPolicy {
        deadline: Some(deadline),
        sell_degraded: true,
        ..MarketPolicy::default()
    });

    let start = Instant::now();
    let quote = market.quote_str("H4(x) :- R(x, y)").unwrap();
    let elapsed = start.elapsed();

    assert!(!quote.quality.is_exact(), "expected a degraded quote");
    assert!(quote.price.is_finite());
    assert!(quote.lower_bound <= quote.price);
    assert!(
        elapsed <= deadline * tolerance(),
        "quote took {elapsed:?}, deadline {deadline:?}"
    );
}

/// Same discipline for H2 (`H2(x,y) :- P(x), R(x,y), S(x,y)`, the hard
/// full-CQ shape): the certificate engine is interrupted mid-enumeration
/// and must still return a sound interval promptly.
#[test]
fn h2_large_instance_meets_deadline() {
    let _engine = pricing();
    let qs = queries::h2_schema(199).unwrap();
    let d = big_instance(&qs);
    let prices = wprices::uniform(&qs.catalog, Price::dollars(1));
    let pricer = Pricer::new(qs.catalog.clone(), d, prices).unwrap();
    let deadline = Duration::from_millis(50);
    let budget = Budget::with_deadline(deadline);

    let start = Instant::now();
    let quote = pricer.price_cq_within(&qs.query, &budget).unwrap();
    let elapsed = start.elapsed();

    assert!(!quote.quality.is_exact(), "expected a degraded quote");
    assert!(quote.price.is_finite());
    assert!(quote.lower_bound <= quote.price);
    assert!(
        elapsed <= deadline * tolerance(),
        "quote took {elapsed:?}, deadline {deadline:?}"
    );
}

/// Soundness: on a small instance where the exact price is computable, a
/// budget-starved quote is an over-estimate (selling at it creates no
/// arbitrage) and its reported lower bound really lower-bounds the truth.
#[test]
fn degraded_quote_bounds_the_exact_price() {
    let _engine = pricing();
    for (name, qs) in [
        ("h2", queries::h2_schema(3).unwrap()),
        ("h4", queries::h4_schema(3).unwrap()),
        ("chain", queries::chain_schema(2, 3).unwrap()),
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let d = dbgen::populate_random(&qs.catalog, &mut rng, 12).unwrap();
        let prices = wprices::uniform(&qs.catalog, Price::dollars(1));
        let pricer = Pricer::new(qs.catalog.clone(), d, prices).unwrap();

        let exact = pricer.price_cq(&qs.query).unwrap();
        assert!(
            exact.quality.is_exact(),
            "{name}: unlimited budget degraded"
        );

        for fuel in [1, 64, 1024] {
            let degraded = pricer
                .price_cq_within(&qs.query, &Budget::with_fuel(fuel))
                .unwrap();
            assert!(
                degraded.price >= exact.price,
                "{name}/fuel={fuel}: degraded {} below exact {}",
                degraded.price,
                exact.price
            );
            assert!(
                degraded.lower_bound <= exact.price,
                "{name}/fuel={fuel}: lower bound {} above exact {}",
                degraded.lower_bound,
                exact.price
            );
        }
    }
}

const FIG1_QDP: &str = include_str!("../data/figure1.qdp");

/// Acceptance: an injected engine panic is contained at the market
/// boundary as `MarketError::Internal`, and the market serves the very
/// next quote normally.
#[test]
fn market_survives_engine_panic() {
    let _engine = trapping();
    let market = Market::open_qdp(FIG1_QDP).unwrap();
    let q = "Q(x, y) :- R(x), S(x, y), T(y)";

    fault::arm_panic();
    let err = market.quote_str(q);
    assert!(
        matches!(err, Err(MarketError::Internal(_))),
        "expected Internal, got {err:?}"
    );

    // The trap is one-shot; the market must keep serving.
    let quote = market.quote_str(q).unwrap();
    assert_eq!(quote.price, Price::dollars(6));
    let purchase = market.purchase_str(q).unwrap();
    assert_eq!(purchase.quote.price, Price::dollars(6));
}

/// Acceptance: in a batch, an injected engine panic poisons only its own
/// slot — batch-mates still get their quotes, and the next batch is
/// completely healthy.
#[test]
fn injected_panic_poisons_only_its_own_batch_slot() {
    let _engine = trapping();
    let market = Market::open_qdp(FIG1_QDP).unwrap();
    // One worker makes job order deterministic: slot 0 trips the one-shot
    // trap, the rest price normally.
    market.set_policy(MarketPolicy {
        batch_workers: 1,
        ..MarketPolicy::default()
    });
    let queries = [
        "Q(x, y) :- R(x), S(x, y), T(y)",
        "Q(x) :- R(x)",
        "Q(y) :- T(y)",
    ];

    fault::arm_panic();
    let out = market.quote_batch(&queries);
    assert!(
        matches!(out[0], Err(MarketError::Internal(_))),
        "expected slot 0 poisoned, got {:?}",
        out[0]
    );
    assert!(out[1].is_ok(), "{:?}", out[1]);
    assert!(out[2].is_ok(), "{:?}", out[2]);

    // The trap is one-shot; the next batch is fully healthy.
    let healthy = market.quote_batch(&queries);
    assert!(healthy.iter().all(|r| r.is_ok()));
    assert_eq!(
        healthy[0].as_ref().unwrap().price,
        Price::dollars(6),
        "post-panic batch must price Figure 1 exactly"
    );
}

/// Acceptance: an explanation prices through the same contained
/// boundary (explanations bypass the quote cache, so every call reaches
/// the engine), and the next explanation renders Figure 1's $6.
#[test]
fn explain_survives_engine_panic() {
    let _engine = trapping();
    let market = Market::open_qdp(FIG1_QDP).unwrap();
    let q = "Q(x, y) :- R(x), S(x, y), T(y)";

    fault::arm_panic();
    let err = market.explain_str(q);
    assert!(
        matches!(err, Err(MarketError::Internal(_))),
        "expected Internal, got {err:?}"
    );

    let text = market.explain_str(q).unwrap();
    assert!(text.contains(&Price::dollars(6).to_string()), "{text}");
}

/// Acceptance: a durable purchase whose pricing panics is refused as
/// `Internal` before anything is logged, the market stays writable, and
/// the next purchase is charged $6 and survives a reopen.
#[test]
fn durable_purchase_survives_engine_panic() {
    let _engine = trapping();
    let dir = std::env::temp_dir().join(format!("qbdp-governance-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dm = DurableMarket::create(&dir, FIG1_QDP, FsyncPolicy::Always).unwrap();
    let q = "Q(x, y) :- R(x), S(x, y), T(y)";
    let logged = dm.wal_position();

    fault::arm_panic();
    let err = dm.purchase_str(q);
    assert!(
        matches!(err, Err(MarketError::Internal(_))),
        "expected Internal, got {err:?}"
    );
    assert_eq!(dm.wal_position(), logged, "a refused purchase logs nothing");
    assert_eq!(dm.market().sales(), 0);

    let purchase = dm.purchase_str(q).unwrap();
    assert_eq!(purchase.quote.price, Price::dollars(6));
    drop(dm);
    let back = DurableMarket::open(&dir, FsyncPolicy::Always).unwrap();
    assert_eq!(back.market().sales(), 1);
    assert_eq!(back.market().revenue(), Price::dollars(6));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Policy: with `sell_degraded` off (the default), a budget-starved quote
/// is refused with `DeadlineExceeded` instead of silently over-charging;
/// flipping the policy sells the same quote as an upper bound.
#[test]
fn sell_degraded_policy_gates_upper_bound_quotes() {
    let _engine = pricing();
    let qs = queries::h4_schema(30).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let d = dbgen::populate_random(&qs.catalog, &mut rng, 200).unwrap();
    let prices = wprices::uniform(&qs.catalog, Price::dollars(1));
    let market = Market::open(qs.catalog.clone(), d, prices).unwrap();

    market.set_policy(MarketPolicy {
        fuel: Some(1),
        ..MarketPolicy::default()
    });
    let err = market.quote_str("H4(x) :- R(x, y)");
    assert!(
        matches!(err, Err(MarketError::DeadlineExceeded)),
        "expected DeadlineExceeded, got {err:?}"
    );

    market.set_policy(MarketPolicy {
        fuel: Some(1),
        sell_degraded: true,
        ..MarketPolicy::default()
    });
    let quote = market.quote_str("H4(x) :- R(x, y)").unwrap();
    assert!(!quote.quality.is_exact());
    assert!(quote.price.is_finite());
}

/// Admission control: a zero-capacity market refuses with `Overloaded`.
#[test]
fn admission_cap_refuses_excess_quotes() {
    let _engine = pricing();
    let market = Market::open_qdp(FIG1_QDP).unwrap();
    market.set_policy(MarketPolicy {
        max_in_flight: 0,
        ..MarketPolicy::default()
    });
    let err = market.quote_str("Q(x) :- R(x)");
    assert!(matches!(err, Err(MarketError::Overloaded)), "{err:?}");

    // Restoring capacity restores service (slots were released on error).
    market.set_policy(MarketPolicy::default());
    assert!(market.quote_str("Q(x) :- R(x)").is_ok());
}
