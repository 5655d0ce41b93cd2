//! Every worked example and named query of the paper, asserted end to end.
//! Each test cites the paper anchor it reproduces.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp::core::consistency::find_list_arbitrage;
use qbdp::core::dichotomy::NpReason;
use qbdp::core::support::{arbitrage_price, is_consistent, SupportConfig};
use qbdp::prelude::*;

/// Figure 1 + Example 3.8: the example database, price 6, and the exact
/// minimal view set.
#[test]
fn figure1_example_3_8() {
    let ax = Column::texts(["a1", "a2", "a3", "a4"]);
    let by = Column::texts(["b1", "b2", "b3"]);
    let catalog = CatalogBuilder::new()
        .relation("R", &[("X", ax.clone())])
        .relation("S", &[("X", ax), ("Y", by.clone())])
        .relation("T", &[("Y", by)])
        .build()
        .unwrap();
    let mut d = catalog.empty_instance();
    d.insert_all(
        catalog.schema().rel_id("R").unwrap(),
        [tuple!["a1"], tuple!["a2"]],
    )
    .unwrap();
    d.insert_all(
        catalog.schema().rel_id("S").unwrap(),
        [
            tuple!["a1", "b1"],
            tuple!["a1", "b2"],
            tuple!["a2", "b2"],
            tuple!["a4", "b1"],
        ],
    )
    .unwrap();
    d.insert_all(
        catalog.schema().rel_id("T").unwrap(),
        [tuple!["b1"], tuple!["b3"]],
    )
    .unwrap();
    let prices = PriceList::uniform(&catalog, Price::dollars(1));
    let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();

    let q = parse_rule(catalog.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
    let quote = pricer.price_cq(&q).unwrap();
    assert_eq!(quote.price, Price::dollars(6), "Example 3.8: pS_D(Q) = 6");
    let mut views: Vec<String> = quote
        .views
        .iter()
        .map(|v| v.display(catalog.schema()))
        .collect();
    views.sort();
    assert_eq!(
        views,
        vec![
            "σ[R.X=a1]",
            "σ[R.X=a4]",
            "σ[S.Y=b1]",
            "σ[S.Y=b3]",
            "σ[T.Y=b1]",
            "σ[T.Y=b2]"
        ],
        "the minimal determining set of Example 3.8"
    );
    assert_eq!(quote.class, QueryClass::GeneralizedChain);
}

/// §2.3 / Example 2.4 (adapted to the instance-based setting): a fully
/// covered *empty* relation determines any query joining through it, even
/// though information-theoretically it would not.
#[test]
fn example_2_4_instance_based_gap() {
    let col = Column::int_range(0, 2);
    let catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X", "Y"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["X", "Y"], &col)
        .build()
        .unwrap();
    let q = parse_rule(catalog.schema(), "Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u)").unwrap();
    // Price only R.X views; R empty ⇒ price of Q is just certifying R = ∅.
    let mut prices = PriceList::new();
    let rx = catalog.schema().resolve_attr("R.X").unwrap();
    prices.set_attr_uniform(&catalog, rx, Price::dollars(1));
    let d = catalog.empty_instance();
    let pricer = Pricer::new(catalog.clone(), d, prices.clone()).unwrap();
    let quote = pricer.price_cq(&q).unwrap();
    assert_eq!(
        quote.price,
        Price::dollars(2),
        "full cover of empty R certifies Q = ∅"
    );
    // With a tuple completing a potential join, the same views no longer
    // suffice... they still do here: covering R fully always determines
    // emptiness *through R* only if R(D) = ∅. Insert R and S tuples: now Q
    // needs more than R's cover, and nothing else is priced → ∞.
    let mut d2 = catalog.empty_instance();
    d2.insert(catalog.schema().rel_id("R").unwrap(), tuple![0, 0])
        .unwrap();
    d2.insert(catalog.schema().rel_id("S").unwrap(), tuple![0, 1])
        .unwrap();
    let pricer2 = Pricer::new(catalog, d2, prices).unwrap();
    assert!(pricer2.price_cq(&q).unwrap().price.is_infinite());
}

/// Example 2.18, literally: S1 loses consistency when D grows; S2 stays
/// consistent but the price of Q drops $100 → $1.
#[test]
fn example_2_18() {
    let col = Column::int_range(0, 2);
    let catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .build()
        .unwrap();
    let schema = catalog.schema();
    let v = parse_rule(schema, "V(x, y) :- R(x), S(x, y)").unwrap();
    let q = parse_rule(schema, "Q() :- R(x)").unwrap();
    let qb = Bundle::from(q.clone());

    let mut s1 = PriceSchedule::new();
    s1.add(PricePoint::new(
        "V",
        ViewDef::Queries(Bundle::from(v.clone())),
        Price::dollars(1),
    ));
    s1.add(PricePoint::new(
        "Q",
        ViewDef::Queries(qb.clone()),
        Price::dollars(10),
    ));
    s1.add(PricePoint::new(
        "ID",
        ViewDef::identity(&catalog),
        Price::dollars(100),
    ));
    let mut s2 = PriceSchedule::new();
    s2.add(PricePoint::new(
        "V",
        ViewDef::Queries(Bundle::from(v)),
        Price::dollars(1),
    ));
    s2.add(PricePoint::new(
        "ID",
        ViewDef::identity(&catalog),
        Price::dollars(100),
    ));

    let d1 = catalog.empty_instance();
    let mut d2 = catalog.empty_instance();
    d2.insert(schema.rel_id("R").unwrap(), tuple![0]).unwrap();
    d2.insert(schema.rel_id("S").unwrap(), tuple![0, 1])
        .unwrap();

    let cfg = SupportConfig::default();
    assert!(
        is_consistent(&catalog, &d1, &s1, cfg).unwrap(),
        "S1 consistent on D1"
    );
    assert!(
        !is_consistent(&catalog, &d2, &s1, cfg).unwrap(),
        "S1 inconsistent on D2"
    );
    assert!(
        is_consistent(&catalog, &d1, &s2, cfg).unwrap(),
        "S2 consistent on D1"
    );
    assert!(
        is_consistent(&catalog, &d2, &s2, cfg).unwrap(),
        "S2 consistent on D2"
    );
    assert_eq!(
        arbitrage_price(&catalog, &d1, &s2, &qb, cfg).unwrap().price,
        Price::dollars(100)
    );
    assert_eq!(
        arbitrage_price(&catalog, &d2, &s2, &qb, cfg).unwrap().price,
        Price::dollars(1)
    );
}

/// Proposition 2.8 on a concrete schedule: subadditive, non-negative,
/// empty bundle free, bounded by ID.
#[test]
fn proposition_2_8_properties() {
    let col = Column::int_range(0, 2);
    let catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .build()
        .unwrap();
    let mut d = catalog.empty_instance();
    d.insert(catalog.schema().rel_id("R").unwrap(), tuple![0])
        .unwrap();
    d.insert(catalog.schema().rel_id("S").unwrap(), tuple![0, 1])
        .unwrap();
    let prices = PriceList::uniform(&catalog, Price::dollars(2));
    let pricer = Pricer::new(catalog.clone(), d, prices.clone()).unwrap();
    let q1 = parse_rule(catalog.schema(), "Q1(x) :- R(x)").unwrap();
    let q2 = parse_rule(catalog.schema(), "Q2(x, y) :- S(x, y)").unwrap();

    let p1 = pricer.price_cq(&q1).unwrap().price;
    let p2 = pricer.price_cq(&q2).unwrap().price;
    let bundle = Bundle::new([Ucq::single(q1), Ucq::single(q2)]);
    let pb = pricer.price_bundle(&bundle).unwrap().price;
    assert!(pb <= p1.saturating_add(p2), "subadditivity");
    assert!(p1 >= Price::ZERO && p2 >= Price::ZERO, "non-negativity");
    assert_eq!(
        pricer.price_bundle(&Bundle::empty()).unwrap().price,
        Price::ZERO,
        "pD() = 0"
    );
    let id_price = prices.identity_price(&catalog);
    assert!(pb <= id_price, "bounded by ID");
}

/// Theorem 3.5's queries classify as stated, and Theorem 3.15's
/// brittleness: C2 is PTIME, C2 + unary (= H2) is NP-complete.
#[test]
fn theorem_3_5_and_3_15_classification() {
    let col = Column::int_range(0, 3);
    let catalog = CatalogBuilder::new()
        .uniform_relation("R3", &["X", "Y", "Z"], &col)
        .uniform_relation("P", &["X"], &col)
        .uniform_relation("U1", &["X"], &col)
        .uniform_relation("U2", &["X"], &col)
        .uniform_relation("A", &["X", "Y"], &col)
        .uniform_relation("B", &["X", "Y"], &col)
        .build()
        .unwrap();
    let s = catalog.schema();
    let h1 = parse_rule(s, "H1(x,y,z) :- R3(x,y,z), P(x), U1(y), U2(z)").unwrap();
    let h2 = parse_rule(s, "H2(x,y) :- P(x), A(x,y), B(x,y)").unwrap();
    let h3 = parse_rule(s, "H3(x,y) :- P(x), A(x,y), P(y)").unwrap();
    let h4 = parse_rule(s, "H4(x) :- A(x,y)").unwrap();
    let c2 = parse_rule(s, "C2(x,y) :- A(x,y), B(y,x)").unwrap();
    assert_eq!(classify(&h1), QueryClass::NpComplete(NpReason::HardShape));
    assert_eq!(classify(&h2), QueryClass::NpComplete(NpReason::HardShape));
    assert_eq!(classify(&h3), QueryClass::OutsideDichotomy);
    assert_eq!(
        classify(&h4),
        QueryClass::NpComplete(NpReason::NotFullNotBoolean)
    );
    assert_eq!(classify(&c2), QueryClass::Cycle(2));
}

/// Example 4.1: Q1 ⊆ Q2 yet price(Q1) > price(Q2) is achievable — pricing
/// must not be monotone w.r.t. containment.
#[test]
fn example_4_1_containment_non_monotonicity() {
    let names = Column::texts(["apple", "beta", "corp"]);
    let catalog = CatalogBuilder::new()
        .relation("R", &[("X", names.clone())]) // the analyst's secret list
        .relation("S", &[("X", names), ("P", Column::int_range(0, 10))])
        .build()
        .unwrap();
    let s = catalog.schema();
    let q1 = parse_rule(s, "Q(x, p) :- R(x), S(x, p)").unwrap();
    let q2 = parse_rule(s, "Q(x, p) :- S(x, p)").unwrap();
    assert!(qbdp::query::homomorphism::is_contained_in(&q1, &q2));
    let mut d = catalog.empty_instance();
    d.insert(s.rel_id("R").unwrap(), tuple!["apple"]).unwrap();
    d.insert(s.rel_id("S").unwrap(), tuple!["apple", 5])
        .unwrap();
    d.insert(s.rel_id("S").unwrap(), tuple!["beta", 3]).unwrap();
    // R (the secret list) is expensive; S is cheap.
    let mut prices = PriceList::new();
    prices.set_attr_uniform(
        &catalog,
        s.resolve_attr("R.X").unwrap(),
        Price::dollars(500),
    );
    prices.set_attr_uniform(&catalog, s.resolve_attr("S.X").unwrap(), Price::dollars(1));
    let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
    let p1 = pricer.price_cq(&q1).unwrap().price;
    let p2 = pricer.price_cq(&q2).unwrap().price;
    assert!(p1 > p2, "the contained query is pricier: {p1} > {p2}");
}

/// Proposition 3.14's four cases through the façade.
#[test]
fn proposition_3_14_disconnected() {
    let col = Column::int_range(0, 2);
    let catalog = CatalogBuilder::new()
        .uniform_relation("A", &["X"], &col)
        .uniform_relation("B", &["X"], &col)
        .build()
        .unwrap();
    let q = parse_rule(catalog.schema(), "Q(x, y) :- A(x), B(y)").unwrap();
    let prices = PriceList::uniform(&catalog, Price::dollars(1));
    let a = catalog.schema().rel_id("A").unwrap();
    let b = catalog.schema().rel_id("B").unwrap();
    let price_with = |fill_a: bool, fill_b: bool| {
        let mut d = catalog.empty_instance();
        if fill_a {
            d.insert(a, tuple![0]).unwrap();
        }
        if fill_b {
            d.insert(b, tuple![1]).unwrap();
        }
        Pricer::new(catalog.clone(), d, prices.clone())
            .unwrap()
            .price_cq(&q)
            .unwrap()
            .price
    };
    // Both nonempty: sum of full covers ($2 + $2).
    assert_eq!(price_with(true, true), Price::dollars(4));
    // A empty: certify A's emptiness (full cover of A = $2).
    assert_eq!(price_with(false, true), Price::dollars(2));
    assert_eq!(price_with(true, false), Price::dollars(2));
    // Both empty: min of the two emptiness certificates.
    assert_eq!(price_with(false, false), Price::dollars(2));
}

/// Proposition 3.2's consistency check and the §4 claim that adding price
/// points can only lower prices.
#[test]
fn prop_3_2_and_price_point_additions() {
    let col = Column::int_range(0, 3);
    let catalog = CatalogBuilder::new()
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["Y"], &col)
        .build()
        .unwrap();
    // Start with only S.X priced.
    let mut prices = PriceList::new();
    prices.set_attr_uniform(
        &catalog,
        catalog.schema().resolve_attr("S.X").unwrap(),
        Price::dollars(5),
    );
    prices.set_attr_uniform(
        &catalog,
        catalog.schema().resolve_attr("T.Y").unwrap(),
        Price::dollars(5),
    );
    assert!(find_list_arbitrage(&catalog, &prices).is_empty());
    let mut d = catalog.empty_instance();
    d.insert(catalog.schema().rel_id("S").unwrap(), tuple![0, 1])
        .unwrap();
    d.insert(catalog.schema().rel_id("T").unwrap(), tuple![1])
        .unwrap();
    let q = parse_rule(catalog.schema(), "Q(x, y) :- S(x, y), T(y)").unwrap();
    let before = Pricer::new(catalog.clone(), d.clone(), prices.clone())
        .unwrap()
        .price_cq(&q)
        .unwrap()
        .price;
    // Add S.Y price points (more discounts).
    prices.set_attr_uniform(
        &catalog,
        catalog.schema().resolve_attr("S.Y").unwrap(),
        Price::dollars(2),
    );
    assert!(
        find_list_arbitrage(&catalog, &prices).is_empty(),
        "still consistent"
    );
    let after = Pricer::new(catalog, d, prices)
        .unwrap()
        .price_cq(&q)
        .unwrap()
        .price;
    assert!(
        after <= before,
        "additions never raise prices: {after} ≤ {before}"
    );
}

/// Lemma 2.14(a) in the §3 setting: the arbitrage-price of an explicitly
/// priced view never exceeds its list price.
#[test]
fn lemma_2_14a_view_price_bound() {
    let col = Column::int_range(0, 3);
    let catalog = CatalogBuilder::new()
        .uniform_relation("S", &["X", "Y"], &col)
        .build()
        .unwrap();
    let mut d = catalog.empty_instance();
    d.insert(catalog.schema().rel_id("S").unwrap(), tuple![0, 1])
        .unwrap();
    let prices = PriceList::uniform(&catalog, Price::dollars(3));
    let pricer = Pricer::new(catalog.clone(), d, prices.clone()).unwrap();
    // σ_{S.X=0} as a query: S(0, y) full? no — make it the full slice.
    let q = parse_rule(catalog.schema(), "V(y) :- S(0, y)").unwrap();
    let quote = pricer.price_cq(&q).unwrap();
    assert!(
        quote.price <= Price::dollars(3),
        "pS_D(V) ≤ explicit price: {}",
        quote.price
    );
}

/// Proposition 2.24: the restricted relation `։*` repairs Example 2.18 —
/// the restricted price of Q stays at $100 after the insertions (no drop),
/// and restricted prices never undercut plain prices (part (c)).
#[test]
fn proposition_2_24_restricted_prices() {
    use qbdp::core::support::arbitrage_price_restricted;
    use qbdp::core::support::{arbitrage_price, SupportConfig};
    let col = Column::int_range(0, 2);
    let catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .build()
        .unwrap();
    let schema = catalog.schema();
    let v = parse_rule(schema, "V(x, y) :- R(x), S(x, y)").unwrap();
    let q = parse_rule(schema, "Q() :- R(x)").unwrap();
    let qb = Bundle::from(q);
    let mut s2 = PriceSchedule::new();
    s2.add(PricePoint::new(
        "V",
        ViewDef::Queries(Bundle::from(v)),
        Price::dollars(1),
    ));
    s2.add(PricePoint::new(
        "ID",
        ViewDef::identity(&catalog),
        Price::dollars(100),
    ));

    let d1 = catalog.empty_instance();
    let mut d2 = catalog.empty_instance();
    d2.insert(schema.rel_id("R").unwrap(), tuple![0]).unwrap();
    d2.insert(schema.rel_id("S").unwrap(), tuple![0, 1])
        .unwrap();

    let cfg = SupportConfig {
        max_points: 8,
        bruteforce_limit: 8,
    };
    let plain_d1 = arbitrage_price(&catalog, &d1, &s2, &qb, cfg).unwrap().price;
    let plain_d2 = arbitrage_price(&catalog, &d2, &s2, &qb, cfg).unwrap().price;
    let restr_d1 = arbitrage_price_restricted(&catalog, &d1, &s2, &qb, cfg)
        .unwrap()
        .price;
    let restr_d2 = arbitrage_price_restricted(&catalog, &d2, &s2, &qb, cfg)
        .unwrap()
        .price;
    // The plain relation drops $100 → $1; the restricted one does not.
    assert_eq!(plain_d1, Price::dollars(100));
    assert_eq!(plain_d2, Price::dollars(1));
    assert_eq!(restr_d1, Price::dollars(100), "restricted price at D1");
    assert_eq!(
        restr_d2,
        Price::dollars(100),
        "restricted price must not drop"
    );
    // Prop 2.24(c): plain ≤ restricted, pointwise.
    assert!(plain_d1 <= restr_d1 && plain_d2 <= restr_d2);
}

/// Proposition 2.17 (spirit): determinacy reduces to price-consistency.
/// Price every view of V at $0 and Q at $1; then the Q price point admits
/// arbitrage (is flagged by Theorem 2.15's check) exactly when V determines
/// Q on D.
#[test]
fn proposition_2_17_determinacy_via_consistency() {
    use qbdp::core::support::{find_arbitrage, SupportConfig};
    use qbdp::determinacy::bruteforce::determines_bruteforce;
    let col = Column::int_range(0, 2);
    let catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .build()
        .unwrap();
    let schema = catalog.schema();
    let cases = [
        // (V sources, Q source, databases to try)
        ("V(x, y) :- R(x), S(x, y)", "Q() :- R(x)"),
        ("V(x) :- R(x)", "Q() :- R(x)"),
        ("V(x, y) :- S(x, y)", "Q(x) :- S(x, x)"),
    ];
    let mut rng_state = 0xabcdefu64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    let cfg = SupportConfig {
        max_points: 6,
        bruteforce_limit: 10,
    };
    let mut agreements = 0;
    for (v_src, q_src) in cases {
        let v = parse_rule(schema, v_src).unwrap();
        let q = parse_rule(schema, q_src).unwrap();
        for _ in 0..6 {
            let mut d = catalog.empty_instance();
            for x in 0..2i64 {
                if next() % 2 == 0 {
                    let _ = d.insert(schema.rel_id("R").unwrap(), tuple![x]);
                }
                for y in 0..2i64 {
                    if next() % 2 == 0 {
                        let _ = d.insert(schema.rel_id("S").unwrap(), tuple![x, y]);
                    }
                }
            }
            // The reduction's schedule: V free, Q at $1.
            let mut s = PriceSchedule::new();
            s.add(PricePoint::new(
                "V",
                ViewDef::Queries(Bundle::from(v.clone())),
                Price::ZERO,
            ));
            s.add(PricePoint::new(
                "Q",
                ViewDef::Queries(Bundle::from(q.clone())),
                Price::dollars(1),
            ));
            let arb = find_arbitrage(&catalog, &d, &s, cfg).unwrap();
            let q_flagged = arb.iter().any(|a| a.point == 1 && a.cheaper == Price::ZERO);
            let determined = determines_bruteforce(
                &catalog,
                &d,
                &Bundle::from(v.clone()),
                &Bundle::from(q.clone()),
                10,
            )
            .unwrap();
            assert_eq!(
                q_flagged, determined,
                "{v_src} / {q_src}: consistency-flag vs determinacy mismatch"
            );
            agreements += 1;
        }
    }
    assert_eq!(agreements, 18);
}

/// Golden pinned prices for the paper's named query families: Figure 1,
/// the hard queries H1–H4 of Theorem 3.5, and cycles `C_k` for k = 3..6
/// (Theorem 3.15), each on a fixed seeded instance with seeded random
/// view prices.
///
/// The engine cross-check suite proves the three engines agree with
/// *each other*; these pins anchor them to fixed absolute values, so a
/// bug that shifts all engines together (e.g. in the shared determinacy
/// oracle or in `Money` arithmetic) still trips a test. The cent values
/// were computed by this implementation under three-engine agreement and
/// must never drift.
#[test]
fn golden_prices_h_family_and_cycles() {
    use qbdp::workload::{dbgen, prices as wprices, queries};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn priced(qs: &qbdp::workload::queries::QuerySet, seed: u64, tuples: usize) -> Quote {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = dbgen::populate_random(&qs.catalog, &mut rng, tuples).unwrap();
        let prices = wprices::random(&qs.catalog, &mut rng, 1, 5);
        let pricer = Pricer::new(qs.catalog.clone(), d, prices).unwrap();
        pricer.price_cq(&qs.query).unwrap()
    }

    // H1(x,y,z) = R(x,y,z), S(x), T(y), U(z) — NP-complete, certificates.
    let q = priced(&queries::h1_schema(3).unwrap(), 11, 12);
    assert_eq!(q.price, Price::cents(3800), "H1 golden price drifted");
    assert_eq!(q.method, PricingMethod::ExactCertificates);

    // H2(x,y) = P(x), R(x,y), S(x,y) — NP-complete (C_2 + unary).
    let q = priced(&queries::h2_schema(3).unwrap(), 12, 10);
    assert_eq!(q.price, Price::cents(1700), "H2 golden price drifted");
    assert_eq!(q.method, PricingMethod::ExactCertificates);

    // H3(x,y) = P(x), A(x,y), P(y) — self-join, outside the dichotomy,
    // priced by the exact engines regardless.
    let col = Column::int_range(0, 3);
    let catalog = CatalogBuilder::new()
        .relation("P", &[("X", col.clone())])
        .relation("A", &[("X", col.clone()), ("Y", col)])
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let d = dbgen::populate_random(&catalog, &mut rng, 8).unwrap();
    let prices = wprices::random(&catalog, &mut rng, 1, 5);
    let h3 = parse_rule(catalog.schema(), "H3(x, y) :- P(x), A(x, y), P(y)").unwrap();
    assert_eq!(classify(&h3), QueryClass::OutsideDichotomy);
    let q = Pricer::new(catalog, d, prices)
        .unwrap()
        .price_cq(&h3)
        .unwrap();
    assert_eq!(q.price, Price::cents(1800), "H3 golden price drifted");
    assert_eq!(q.method, PricingMethod::ExactCertificates);

    // H4(x) = R(x,y) — the simplest non-full CQ, subset engine.
    let q = priced(&queries::h4_schema(3).unwrap(), 14, 8);
    assert_eq!(q.price, Price::cents(700), "H4 golden price drifted");
    assert_eq!(q.method, PricingMethod::ExactSubset);

    // C_k for k = 3..6 — the Theorem 3.15 cycle algorithm.
    let golden_cycles = [(3usize, 1400u64), (4, 1500), (5, 2400), (6, 2100)];
    for (k, cents) in golden_cycles {
        let q = priced(&queries::cycle_schema(k, 2).unwrap(), 20 + k as u64, 3);
        assert_eq!(q.price, Price::cents(cents), "C_{k} golden price drifted");
        assert_eq!(q.method, PricingMethod::CycleCertificates, "C_{k}");
    }
}

/// Golden pin for Figure 1: the exact $6.00 (Example 3.8) *and* the exact
/// minimal view multiset the receipt stands for, via the market layer so
/// rendering is covered too.
#[test]
fn golden_figure1_receipt() {
    let market = Market::open_qdp(include_str!("../data/figure1.qdp")).unwrap();
    let quote = market.quote_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
    assert_eq!(quote.price, Price::dollars(6));
    assert_eq!(quote.quality, QuoteQuality::Exact);
    let mut receipt = quote.receipt().to_vec();
    receipt.sort();
    assert_eq!(
        receipt,
        vec![
            "σ[R.X=a1] @ $1.00",
            "σ[R.X=a4] @ $1.00",
            "σ[S.Y=b1] @ $1.00",
            "σ[S.Y=b3] @ $1.00",
            "σ[T.Y=b1] @ $1.00",
            "σ[T.Y=b2] @ $1.00",
        ],
        "Figure 1 golden receipt drifted"
    );
}
