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
