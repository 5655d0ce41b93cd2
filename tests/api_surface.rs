//! API-surface tests: the public entry points a downstream user reaches
//! first, exercised end to end (UCQ pricing, quote audit, explanations,
//! general schedules with atomic points).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp::core::support::{arbitrage_price, SupportConfig};
use qbdp::prelude::*;

fn tiny() -> (Catalog, Instance, PriceList) {
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
    (catalog, d, prices)
}

#[test]
fn ucq_union_priced_via_subset_engine() {
    let (catalog, d, prices) = tiny();
    let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
    // U(x) :- R(x)  ∪  U(x) :- S(x, x): determining the union needs enough
    // views to pin down both disjuncts' contributions.
    let u = parse_query(catalog.schema(), "U(x) :- R(x); U(x) :- S(x, x)").unwrap();
    let quote = pricer.price_ucq(&u).unwrap();
    assert!(quote.price.is_finite());
    // The union is determined by R's full cover + S's full cover, so it is
    // bounded by the identity price; and it cannot be free (R(0) must be
    // secured or refuted).
    assert!(quote.price > Price::ZERO);
    assert!(quote.price <= prices_identity(&catalog));
    // A single-disjunct UCQ routes through the dichotomy dispatch.
    let single = parse_query(catalog.schema(), "U(x, y) :- S(x, y)").unwrap();
    let quote = pricer.price_ucq(&single).unwrap();
    assert_eq!(quote.class, QueryClass::GeneralizedChain);
}

fn prices_identity(catalog: &Catalog) -> Price {
    PriceList::uniform(catalog, Price::dollars(2)).identity_price(catalog)
}

#[test]
fn verify_quote_rejects_tampering() {
    let (catalog, d, prices) = tiny();
    let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
    let q = parse_rule(catalog.schema(), "Q(x, y) :- R(x), S(x, y)").unwrap();
    let quote = pricer.price_cq(&q).unwrap();
    assert!(pricer.verify_quote(&q, &quote).unwrap());
    // Tampered price: mismatch with the views' sum.
    let mut cheaper = quote.clone();
    cheaper.price = Price::cents(1);
    assert!(!pricer.verify_quote(&q, &cheaper).unwrap());
    // Tampered views: dropping one view breaks determinacy (and the sum).
    let mut fewer = quote.clone();
    let dropped = fewer.views.pop().unwrap();
    fewer.price = fewer.views.iter().map(|v| pricer.prices().get(v)).sum();
    assert!(
        !pricer.verify_quote(&q, &fewer).unwrap(),
        "dropping {dropped:?} should break the receipt"
    );
}

#[test]
fn explanations_render_for_every_engine() {
    let (catalog, d, prices) = tiny();
    let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
    for (src, needle) in [
        ("Q(x, y) :- R(x), S(x, y)", "ChainFlow"),
        ("Q() :- S(x, y)", "BooleanWitness"),
        ("Q(x) :- S(x, y)", "ExactSubset"),
    ] {
        let q = parse_rule(catalog.schema(), src).unwrap();
        let quote = pricer.price_cq(&q).unwrap();
        let text = quote.explain(pricer.catalog(), pricer.prices());
        assert!(text.contains(needle), "`{src}`: {text}");
        assert!(text.contains("price"), "`{src}`: {text}");
    }
}

#[test]
fn atomic_schedules_price_through_the_general_framework() {
    let (catalog, d, _) = tiny();
    // Two bundles: "all of R" and "the S slice at X=0", plus ID.
    let rx = catalog.schema().resolve_attr("R.X").unwrap();
    let sx = catalog.schema().resolve_attr("S.X").unwrap();
    let mut schedule = PriceSchedule::new();
    schedule.add(PricePoint::new(
        "R bundle",
        ViewDef::Atomic(
            (0..2)
                .map(|i| {
                    qbdp::core::price_points::AtomicView::Selection(SelectionView::new(
                        rx,
                        Value::Int(i),
                    ))
                })
                .collect(),
        ),
        Price::dollars(3),
    ));
    schedule.add(PricePoint::new(
        "S slice",
        ViewDef::Atomic(vec![qbdp::core::price_points::AtomicView::Selection(
            SelectionView::new(sx, Value::Int(0)),
        )]),
        Price::dollars(4),
    ));
    schedule.add(PricePoint::new(
        "ID",
        ViewDef::identity(&catalog),
        Price::dollars(20),
    ));
    // Price "all of R": the R bundle at $3 beats ID at $20.
    let target = Bundle::from(parse_rule(catalog.schema(), "QR(x) :- R(x)").unwrap());
    let r = arbitrage_price(&catalog, &d, &schedule, &target, SupportConfig::default()).unwrap();
    assert_eq!(r.price, Price::dollars(3));
    assert_eq!(r.support, vec![0]);
    // Price the full S: only ID covers all of S.
    let target = Bundle::from(parse_rule(catalog.schema(), "QS(x, y) :- S(x, y)").unwrap());
    let r = arbitrage_price(&catalog, &d, &schedule, &target, SupportConfig::default()).unwrap();
    assert_eq!(r.price, Price::dollars(20));
}
