//! End-to-end marketplace runs over all three named scenarios: open,
//! consistency, quotes across the dichotomy classes, purchases, updates,
//! price revisions, persistence.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp::market::Market;
use qbdp::prelude::*;
use qbdp::workload::scenarios::{business, sports, webgraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn business_directory_end_to_end() {
    let mut rng = StdRng::seed_from_u64(11);
    let m = business::generate(
        &mut rng,
        business::BusinessConfig {
            states: 6,
            counties_per_state: 4,
            businesses: 80,
            ..Default::default()
        },
    )
    .unwrap();
    let market = Market::open(m.catalog.clone(), m.instance, m.prices).unwrap();

    // Quotes across classes.
    let chain = market.quote_str("Q(n, c) :- Business(n, 'S1', c)").unwrap();
    assert!(chain.price.is_finite());
    let join = market
        .quote_str("Q(n, c) :- Business(n, 'S1', c), Restaurant(n)")
        .unwrap();
    assert!(join.price.is_finite());
    let boolean = market
        .quote_str("Q() :- Business(n, 'S1', c), Restaurant(n)")
        .unwrap();
    assert!(boolean.price <= join.price, "boolean above full");

    // Purchase records revenue.
    let p = market
        .purchase_str("Q(n, c) :- Business(n, 'S1', c)")
        .unwrap();
    assert_eq!(market.revenue(), p.quote.price);

    // Insertions keep quotes monotone.
    let before = market
        .quote_str("Q(n, c) :- Business(n, 'S2', c)")
        .unwrap()
        .price;
    market
        .insert(
            "Business",
            [tuple!["biz0", "S2", "S2_C0"], tuple!["biz1", "S2", "S2_C1"]],
        )
        .unwrap();
    let after = market
        .quote_str("Q(n, c) :- Business(n, 'S2', c)")
        .unwrap()
        .price;
    assert!(after >= before);

    // Persistence round-trips quotes.
    let saved = market.to_qdp();
    let reopened = Market::open_qdp(&saved).unwrap();
    assert_eq!(
        reopened
            .quote_str("Q(n, c) :- Business(n, 'S2', c)")
            .unwrap()
            .price,
        after
    );
}

#[test]
fn sports_market_end_to_end() {
    let mut rng = StdRng::seed_from_u64(12);
    let m = sports::generate(
        &mut rng,
        sports::SportsConfig {
            teams: 6,
            games: 12,
            ..Default::default()
        },
    )
    .unwrap();
    let market = Market::open(m.catalog.clone(), m.instance, m.prices).unwrap();
    // A three-relation chain through all APIs.
    let q = "Q(tid, g, a) :- Team('team2', tid), Game(g, tid, a)";
    let quote = market.quote_str(q).unwrap();
    assert!(quote.price.is_finite());
    assert_eq!(quote.method, qbdp::core::pricer::PricingMethod::ChainFlow);
    // Attendance selections are not for sale; a query needing them alone
    // still prices through key covers.
    let whole_game_table = market.quote_str("Q(g, t, a) :- Game(g, t, a)").unwrap();
    assert!(whole_game_table.price.is_finite());
    // A team name outside the declared column can never exist in any
    // possible world, so the query is vacuously determined — price 0.
    let ghost = market.quote_str("Q(tid) :- Team('nosuch', tid)").unwrap();
    assert_eq!(ghost.price, Price::ZERO);
}

#[test]
fn webgraph_market_end_to_end() {
    let mut rng = StdRng::seed_from_u64(13);
    let m = webgraph::generate(
        &mut rng,
        webgraph::WebGraphConfig {
            domains: 5,
            links: 12,
            ..Default::default()
        },
    )
    .unwrap();
    let market = Market::open(m.catalog.clone(), m.instance.clone(), m.prices.clone()).unwrap();
    // The cycle query prices and audits.
    let src = "M(x, y) :- Links(x, y), Backlinks(x, y)";
    let quote = market.quote_str(src).unwrap();
    assert!(quote.price.is_finite());
    let pricer = Pricer::new(m.catalog.clone(), m.instance, m.prices).unwrap();
    let q = parse_rule(m.catalog.schema(), src).unwrap();
    let direct = pricer.price_cq(&q).unwrap();
    assert_eq!(direct.price, quote.price);
    assert!(pricer.verify_quote(&q, &direct).unwrap());
    // Explanations render.
    let explain = market.explain_str(src).unwrap();
    assert!(explain.contains("Cycle"), "{explain}");
}

/// The paper's §1 query, "restaurants in state S", on the served
/// benchmark's directory (seed 2012, 10 states × 10 counties × 400
/// businesses). Its four Step 3 branches buy covers of very different
/// cost, and the one with no cover wins, so a cold price solves that
/// branch's flow and skips the other three.
#[test]
fn a_cold_restaurant_list_price_solves_one_flow() {
    let mut rng = StdRng::seed_from_u64(2012);
    let m = business::generate(
        &mut rng,
        business::BusinessConfig {
            states: 10,
            counties_per_state: 10,
            businesses: 400,
            ..Default::default()
        },
    )
    .unwrap();
    let pricer = Pricer::new(m.catalog, m.instance, m.prices).unwrap();
    for s in &m.states {
        let src = format!("Q(n, c) :- Business(n, '{s}', c), Restaurant(n)");
        let q = parse_rule(pricer.catalog().schema(), &src).unwrap();
        qbdp_obs::trace::begin();
        let quote = pricer.price_cq(&q).unwrap();
        let spans = qbdp_obs::trace::finish();
        let branches = spans.iter().find(|s| s.name == "normalize").unwrap().n;
        let flows = spans.iter().filter(|s| s.name == "flow_solve").count();
        assert_eq!((branches, flows), (4, 1), "{src}");
        assert_eq!(quote.method, PricingMethod::ChainFlow, "{src}");
        assert!(quote.quality.is_exact() && quote.price.is_finite(), "{src}");
    }
}
