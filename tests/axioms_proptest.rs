//! Property-based tests of the pricing axioms (proptest): the framework's
//! theorems hold on randomized instances, not just the worked examples.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp::core::chain::bundle::chain_bundle_price;
use qbdp::core::chain::multi_attr::{multi_attr_chain_price, PairPriceList};
use qbdp::core::exact::certificates::{certificate_price, CertificateConfig};
use qbdp::core::normalize::{Problem, Provenance};
use qbdp::prelude::*;

const N: i64 = 3; // column size: {0, 1, 2}

/// Strategy: a random instance of the chain-2 schema R(X), S(X,Y), T(Y).
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

fn chain_query(catalog: &Catalog) -> ConjunctiveQuery {
    parse_rule(catalog.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 3.13: the flow price equals the exact certificate price, on
    /// the served hub network, the paper's literal Θ(n²) network, and a
    /// singleton bundle.
    #[test]
    fn flow_price_is_exact(world in world_strategy()) {
        let (catalog, d, prices) = build(&world);
        let q = chain_query(&catalog);
        let exact = certificate_price(&catalog, &d, &prices, &q, CertificateConfig::default())
            .unwrap()
            .price;
        let pricer = Pricer::new(catalog.clone(), d.clone(), prices.clone()).unwrap();
        prop_assert_eq!(pricer.price_cq(&q).unwrap().price, exact);
        let bundle = chain_bundle_price(
            &catalog,
            &d,
            &prices,
            std::slice::from_ref(&q),
            &Provenance::identity(),
        )
        .unwrap();
        prop_assert_eq!(bundle.price, exact);
        let problem = Problem::new(catalog, d, prices, q);
        let literal = multi_attr_chain_price(&problem, &PairPriceList::new()).unwrap();
        prop_assert_eq!(literal.price, exact);
    }

    /// The quoted views really determine the query and sum to the price
    /// (no phantom discounts, no over-charging).
    #[test]
    fn quotes_are_faithful(world in world_strategy()) {
        let (catalog, d, prices) = build(&world);
        let q = chain_query(&catalog);
        let pricer = Pricer::new(catalog.clone(), d.clone(), prices.clone()).unwrap();
        let quote = pricer.price_cq(&q).unwrap();
        prop_assert!(quote.price.is_finite());
        let total: Price = quote.views.iter().map(|v| prices.get(v)).sum();
        prop_assert_eq!(total, quote.price);
        let vs: ViewSet = quote.views.iter().cloned().collect();
        prop_assert!(qbdp::determinacy::selection::determines_monotone_cq(&catalog, &d, &vs, &q).unwrap());
    }

    /// Proposition 2.8: prices are bounded by the identity price; boolean
    /// and projection variants are never pricier than ID either.
    #[test]
    fn bounded_by_identity(world in world_strategy()) {
        let (catalog, d, prices) = build(&world);
        let id_price = prices.identity_price(&catalog);
        let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
        for q_src in ["Q(x, y) :- R(x), S(x, y), T(y)", "Q() :- S(x, y)", "Q(x) :- S(x, y)"] {
            let q = parse_rule(catalog.schema(), q_src).unwrap();
            let p = pricer.price_cq(&q).unwrap().price;
            prop_assert!(p <= id_price, "{} > id {} for {}", p, id_price, q_src);
        }
    }

    /// Proposition 2.8(1): bundle subadditivity.
    #[test]
    fn bundle_subadditive(world in world_strategy()) {
        let (catalog, d, prices) = build(&world);
        let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
        let q1 = parse_rule(catalog.schema(), "Q1(x, y) :- R(x), S(x, y)").unwrap();
        let q2 = parse_rule(catalog.schema(), "Q2(x, y) :- S(x, y), T(y)").unwrap();
        let p1 = pricer.price_cq(&q1).unwrap().price;
        let p2 = pricer.price_cq(&q2).unwrap().price;
        let pb = pricer
            .price_bundle(&Bundle::new([Ucq::single(q1), Ucq::single(q2)]))
            .unwrap()
            .price;
        prop_assert!(pb <= p1.saturating_add(p2), "{} > {} + {}", pb, p1, p2);
        prop_assert!(pb >= p1.max(p2), "bundle below its dearest part");
    }

    /// Proposition 2.22: inserting tuples never lowers the price of a full
    /// CQ under selection-view prices.
    #[test]
    fn insertion_monotonicity(
        world in world_strategy(),
        extra in proptest::collection::vec((0usize..3, 0..N, 0..N), 1..5),
    ) {
        let (catalog, d, prices) = build(&world);
        let q = chain_query(&catalog);
        let mut pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
        let mut last = pricer.price_cq(&q).unwrap().price;
        for (rel_idx, a, b) in extra {
            let (rel, t) = match rel_idx {
                0 => (catalog.schema().rel_id("R").unwrap(), tuple![a]),
                1 => (catalog.schema().rel_id("S").unwrap(), tuple![a, b]),
                _ => (catalog.schema().rel_id("T").unwrap(), tuple![b]),
            };
            pricer.insert(rel, [t]).unwrap();
            let now = pricer.price_cq(&q).unwrap().price;
            prop_assert!(now >= last, "price dropped {} -> {}", last, now);
            last = now;
        }
    }

    /// §4 "Price updates": adding price points (new discounts) never raises
    /// any price.
    #[test]
    fn adding_price_points_never_raises(world in world_strategy()) {
        let (catalog, d, mut prices) = build(&world);
        // Remove one attribute's prices first so there is something to add.
        let sy = catalog.schema().resolve_attr("S.Y").unwrap();
        prices.remove_attr(sy);
        let q = chain_query(&catalog);
        let before = Pricer::new(catalog.clone(), d.clone(), prices.clone())
            .unwrap()
            .price_cq(&q)
            .unwrap()
            .price;
        prices.set_attr_uniform(&catalog, sy, Price::dollars(1));
        let after = Pricer::new(catalog.clone(), d, prices).unwrap().price_cq(&q).unwrap().price;
        prop_assert!(after <= before, "{} > {}", after, before);
    }

    /// Boolean price ≤ full price: knowing whether an answer exists is
    /// never dearer than knowing the whole answer (the full query
    /// determines the boolean one).
    #[test]
    fn boolean_cheaper_than_full(world in world_strategy()) {
        let (catalog, d, prices) = build(&world);
        let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
        let full = chain_query(&catalog);
        let boolean = parse_rule(catalog.schema(), "B() :- R(x), S(x, y), T(y)").unwrap();
        let pf = pricer.price_cq(&full).unwrap().price;
        let pb = pricer.price_cq(&boolean).unwrap().price;
        prop_assert!(pb <= pf, "boolean {} > full {}", pb, pf);
    }
}
