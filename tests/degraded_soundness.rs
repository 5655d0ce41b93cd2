//! Property-based soundness of budget-degraded quotes: on small random
//! instances, an `UpperBound` quote never under-cuts the exact
//! arbitrage-price (Equation 2), its lower bound never over-shoots it, and
//! the quoted views are a genuine determining set sold at list price — so
//! selling the quote is exactly selling those explicit price points, which
//! introduces no arbitrage.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp::prelude::*;

const N: i64 = 3; // column size: {0, 1, 2}

fn chain2_catalog() -> Catalog {
    let col = Column::int_range(0, N);
    CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["Y"], &col)
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
struct World {
    r: Vec<i64>,
    s: Vec<(i64, i64)>,
    t: Vec<i64>,
    prices: Vec<u64>, // one price (in dollars, 1..=5) per Σ view
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        proptest::collection::vec(0..N, 0..4),
        proptest::collection::vec((0..N, 0..N), 0..6),
        proptest::collection::vec(0..N, 0..4),
        proptest::collection::vec(1u64..=5, (N as usize) * 4),
    )
        .prop_map(|(r, s, t, prices)| World { r, s, t, prices })
}

fn build(world: &World) -> (Catalog, Instance, PriceList) {
    let catalog = chain2_catalog();
    let mut d = catalog.empty_instance();
    let (r, s, t) = (
        catalog.schema().rel_id("R").unwrap(),
        catalog.schema().rel_id("S").unwrap(),
        catalog.schema().rel_id("T").unwrap(),
    );
    for &x in &world.r {
        d.insert(r, tuple![x]).unwrap();
    }
    for &(x, y) in &world.s {
        d.insert(s, tuple![x, y]).unwrap();
    }
    for &y in &world.t {
        d.insert(t, tuple![y]).unwrap();
    }
    let mut prices = PriceList::new();
    let mut i = 0;
    for attr in catalog.schema().all_attrs() {
        for v in catalog.column(attr).iter() {
            prices.set(
                SelectionView::new(attr, v.clone()),
                Price::dollars(world.prices[i]),
            );
            i += 1;
        }
    }
    (catalog, d, prices)
}

/// The query shapes that exercise every budget-governed engine: the GChQ
/// flow path, the certificate path (full single-atom), the subset path
/// (projection), and the boolean path.
const QUERIES: &[&str] = &[
    "Q(x, y) :- R(x), S(x, y), T(y)",
    "Q(x, y) :- S(x, y)",
    "Q(x) :- S(x, y)",
    "Q() :- S(x, y)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Budget-exhausted quotes bracket the exact price from above, their
    /// lower bounds from below, and the quoted views are a real
    /// determining set summing to the quoted price.
    #[test]
    fn degraded_quotes_are_sound(world in world_strategy(), fuel in 0u64..2000) {
        let (catalog, d, prices) = build(&world);
        let pricer = Pricer::new(catalog.clone(), d.clone(), prices.clone()).unwrap();
        for q_src in QUERIES {
            let q = parse_rule(catalog.schema(), q_src).unwrap();
            let exact = pricer.price_cq(&q).unwrap();
            prop_assert!(exact.quality.is_exact(), "unlimited budget degraded on {}", q_src);

            let degraded = pricer.price_cq_within(&q, &Budget::with_fuel(fuel)).unwrap();
            prop_assert!(
                degraded.price >= exact.price,
                "{}: degraded {} < exact {} (fuel {})",
                q_src, degraded.price, exact.price, fuel
            );
            prop_assert!(
                degraded.lower_bound <= exact.price,
                "{}: lower bound {} > exact {} (fuel {})",
                q_src, degraded.lower_bound, exact.price, fuel
            );
            prop_assert!(degraded.lower_bound <= degraded.price);

            // No-arbitrage: the quote is backed by explicit views sold at
            // list price — the receipt sums to the price and determines Q.
            if degraded.price.is_finite() {
                let total: Price = degraded.views.iter().map(|v| prices.get(v)).sum();
                prop_assert_eq!(
                    total, degraded.price,
                    "{}: views sum {} != price {} (fuel {})",
                    q_src, total, degraded.price, fuel
                );
                let vs: ViewSet = degraded.views.iter().cloned().collect();
                prop_assert!(
                    qbdp::determinacy::selection::determines_monotone_cq(&catalog, &d, &vs, &q)
                        .unwrap(),
                    "{}: quoted views do not determine the query (fuel {})",
                    q_src, fuel
                );
            }
        }
    }

    /// Zero fuel is the harshest budget: the structural fallback must
    /// still produce a sound, finite quote whenever the dataset is
    /// sellable (every view priced here), without any oracle calls.
    #[test]
    fn zero_fuel_still_quotes(world in world_strategy()) {
        let (catalog, d, prices) = build(&world);
        let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
        for q_src in QUERIES {
            let q = parse_rule(catalog.schema(), q_src).unwrap();
            let quote = pricer.price_cq_within(&q, &Budget::with_fuel(0)).unwrap();
            prop_assert!(quote.price.is_finite(), "{}: infinite under zero fuel", q_src);
            let exact = pricer.price_cq(&q).unwrap();
            prop_assert!(quote.price >= exact.price);
        }
    }
}

/// Cold GChQ pricing solves the Step 3 branches cheapest cover first and
/// skips those whose cover cost cannot beat a finished branch. When the
/// fuel runs out inside the cheapest-cover branch's flow, nothing has
/// finished, so nothing may be skipped: every branch still opens a flow
/// solve, and the degraded interval still brackets the exact price.
#[test]
fn fuel_running_out_on_the_cheapest_cover_prunes_nothing() {
    let world = World {
        r: vec![0, 1],
        s: vec![(0, 0), (0, 1), (1, 2), (2, 2), (2, 0)],
        t: vec![0, 2],
        prices: vec![2, 3, 1, 4, 1, 2, 5, 1, 3, 2, 2, 4],
    };
    let (catalog, d, prices) = build(&world);
    let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
    let q = parse_rule(catalog.schema(), "Q(x, y) :- S(x, y)").unwrap();
    let exact = pricer.price_cq(&q).unwrap();
    assert!(exact.quality.is_exact());
    let mut exercised = false;
    for fuel in 0..2000 {
        qbdp_obs::trace::begin();
        let degraded = pricer
            .price_cq_within(&q, &Budget::with_fuel(fuel))
            .unwrap();
        let spans = qbdp_obs::trace::finish();
        let Some(normalize) = spans.iter().find(|s| s.name == "normalize") else {
            continue;
        };
        let flows: Vec<_> = spans.iter().filter(|s| s.name == "flow_solve").collect();
        // Spans close child-first, so the flows are in solve order.
        let first_ran_dry = flows.first().is_some_and(|f| f.detail == "exhausted");
        if normalize.detail != "steps_1_3" || !first_ran_dry {
            continue;
        }
        exercised = true;
        assert!(normalize.n >= 2, "the query has a cover and a skip branch");
        assert_eq!(
            flows.len() as u64,
            normalize.n,
            "an exhausted branch pruned another (fuel {fuel})"
        );
        assert!(!degraded.quality.is_exact());
        assert!(
            degraded.lower_bound <= exact.price && exact.price <= degraded.price,
            "[{}, {}] misses the exact {} (fuel {fuel})",
            degraded.lower_bound,
            degraded.price,
            exact.price
        );
    }
    assert!(exercised, "no fuel ran out inside the first branch's flow");
}
