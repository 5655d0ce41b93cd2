//! Three-engine cross-check: on ~200 seeded random instances, the
//! subset-enumeration engine (Equation 2 verbatim), the certificate
//! hitting-set engine, and the PTIME dispatch path (GChQ Min-Cut /
//! Theorem 3.15 cycle algorithm) must produce the *same* `Price`, to the
//! cent. The three implementations share no pricing code above the
//! determinacy oracle, so exact agreement across random data is strong
//! evidence each one computes the arbitrage-price of Equation 2.
//!
//! Additionally, every query in this suite is PTIME-classified (Theorem
//! 3.16), and we assert the dispatcher really routed it to a PTIME
//! engine — a silent fallback to exact search would keep prices right
//! while voiding the Theorem 3.7/3.15 complexity claim.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp::catalog::{Catalog, CatalogBuilder, Column, Instance, Tuple, Value};
use qbdp::core::exact::certificates::{certificate_price, CertificateConfig};
use qbdp::core::exact::subset::{subset_price, SubsetConfig};
use qbdp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Setup {
    catalog: Catalog,
    instance: Instance,
    prices: PriceList,
}

/// Random instance + fully covering random price list over `rels`.
/// Column values are `0..n`; every candidate tuple appears with
/// probability `density`. Full coverage keeps prices finite, and random
/// per-view prices (1–5 dollars) make min-cut/hitting-set ties rare, so
/// agreement is a real test rather than a constant-price coincidence.
fn random_setup(rng: &mut StdRng, rels: &[(&str, usize)], n: i64, density: f64) -> Setup {
    let col = Column::int_range(0, n);
    let mut builder = CatalogBuilder::new();
    for &(name, arity) in rels {
        let attrs: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
        let attr_refs: Vec<(&str, Column)> =
            attrs.iter().map(|a| (a.as_str(), col.clone())).collect();
        builder = builder.relation(name, &attr_refs);
    }
    let catalog = builder.build().unwrap();
    let mut instance = catalog.empty_instance();
    for (rid, rel) in catalog.schema().iter() {
        let arity = rel.arity();
        let total = (n as usize).pow(arity as u32);
        for idx in 0..total {
            if rng.gen_bool(density) {
                let mut vals = Vec::with_capacity(arity);
                let mut rest = idx;
                for _ in 0..arity {
                    vals.push(Value::Int((rest % n as usize) as i64));
                    rest /= n as usize;
                }
                instance.insert(rid, Tuple::new(vals)).unwrap();
            }
        }
    }
    let mut prices = PriceList::new();
    for attr in catalog.schema().all_attrs() {
        for v in catalog.column(attr).iter() {
            prices.set(
                SelectionView::new(attr, v.clone()),
                Price::dollars(rng.gen_range(1..=5)),
            );
        }
    }
    Setup {
        catalog,
        instance,
        prices,
    }
}

/// Does the dispatcher's engine choice match the PTIME classification?
fn is_ptime_method(m: &PricingMethod) -> bool {
    match m {
        PricingMethod::ChainFlow
        | PricingMethod::ChainBundleFlow
        | PricingMethod::CycleCertificates
        | PricingMethod::BooleanWitness
        | PricingMethod::Trivial => true,
        PricingMethod::BooleanEmpty(inner) => is_ptime_method(inner),
        PricingMethod::Disconnected(parts) => parts.iter().all(is_ptime_method),
        PricingMethod::ExactCertificates
        | PricingMethod::ExactSubset
        | PricingMethod::StructuralCover => false,
    }
}

/// Price `query` three independent ways and demand cent-exact agreement.
fn cross_check(setup: &Setup, query: &str, case: &str) {
    let q = parse_rule(setup.catalog.schema(), query).unwrap();
    let class = classify(&q);
    assert!(
        class.is_ptime(),
        "{case}: `{query}` classified {class:?}, suite expects PTIME queries"
    );

    // Engine 1: the dispatch path (Min-Cut for GChQ, Theorem 3.15 for
    // cycles) — and prove it really took a PTIME engine.
    let pricer = Pricer::new(
        setup.catalog.clone(),
        setup.instance.clone(),
        setup.prices.clone(),
    )
    .unwrap();
    let quote = pricer.price_cq(&q).unwrap();
    assert!(
        quote.quality.is_exact(),
        "{case}: unlimited budget must give an exact quote"
    );
    assert!(
        is_ptime_method(&quote.method),
        "{case}: PTIME-classified `{query}` priced by non-PTIME engine {:?}",
        quote.method
    );

    // Engine 2: subset enumeration over Equation 2.
    let bundle = Bundle::single(Ucq::single(q.clone()));
    let subset = subset_price(
        &setup.catalog,
        &setup.instance,
        &setup.prices,
        &bundle,
        SubsetConfig::default(),
    )
    .unwrap();

    // Engine 3: weighted hitting set over determinacy certificates.
    let cert = certificate_price(
        &setup.catalog,
        &setup.instance,
        &setup.prices,
        &q,
        CertificateConfig::default(),
    )
    .unwrap();

    assert_eq!(
        quote.price, subset.price,
        "{case}: dispatch vs subset enumeration on `{query}`"
    );
    assert_eq!(
        subset.price, cert.price,
        "{case}: subset enumeration vs hitting set on `{query}`"
    );
}

/// 80 chain instances (Theorem 3.7 pipeline): the Figure-1 shape
/// R(x), S(x,y), T(y) across densities and price draws. 8 priced views
/// at n = 2, 12 at n = 3 — both within the subset engine's cap.
#[test]
fn chains_three_engines_agree() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..80 {
        let density = [0.15, 0.35, 0.6, 0.85][case % 4];
        let n = if case % 2 == 0 { 2 } else { 3 };
        let setup = random_setup(&mut rng, &[("R", 1), ("S", 2), ("T", 1)], n, density);
        cross_check(
            &setup,
            "Q(x, y) :- R(x), S(x, y), T(y)",
            &format!("chain/{case}"),
        );
    }
}

/// 60 star instances: R(x,y), S(x,z), T(x) — y and z hang, exercising
/// Step 3 of the normalization before the Min-Cut.
#[test]
fn stars_three_engines_agree() {
    let mut rng = StdRng::seed_from_u64(0x5A5A);
    for case in 0..60 {
        let density = [0.2, 0.45, 0.75][case % 3];
        let setup = random_setup(&mut rng, &[("R", 2), ("S", 2), ("T", 1)], 2, density);
        cross_check(
            &setup,
            "Q(x, y, z) :- R(x, y), S(x, z), T(x)",
            &format!("star/{case}"),
        );
    }
}

/// 60 cycle instances: C_3 = P0(x,y), P1(y,z), P2(z,x), the smallest
/// query priced by the Theorem 3.15 algorithm (12 priced views at n = 2).
#[test]
fn cycles_three_engines_agree() {
    let mut rng = StdRng::seed_from_u64(0xCCCC);
    for case in 0..60 {
        let density = [0.2, 0.5, 0.8][case % 3];
        let setup = random_setup(&mut rng, &[("P0", 2), ("P1", 2), ("P2", 2)], 2, density);
        cross_check(
            &setup,
            "Q(x, y, z) :- P0(x, y), P1(y, z), P2(z, x)",
            &format!("cycle/{case}"),
        );
    }
}

/// 60 GChQ instances with constants and interpreted predicates: Step 1
/// shrinks columns, filters the shrunk relations through their indexes
/// and drops the removed values' prices before the Min-Cut. Each shape
/// runs on the chain suite's random instances at n = 3 (12 priced views),
/// so a wrong row kept or dropped by the filter shows as a price the
/// subset and certificate engines disagree with.
#[test]
fn constants_and_predicates_three_engines_agree() {
    let shapes = [
        "Q(y) :- S(2, y)",
        "Q(x, y) :- R(x), S(x, y), x in {0, 2}",
        "Q(x, y) :- S(x, y), y > 1",
        "Q(x, y) :- R(x), S(x, y), T(y), y in {1, 2}",
    ];
    let mut rng = StdRng::seed_from_u64(0x57E1);
    for case in 0..60 {
        let density = [0.2, 0.45, 0.7][case % 3];
        let setup = random_setup(&mut rng, &[("R", 1), ("S", 2), ("T", 1)], 3, density);
        let query = shapes[case % shapes.len()];
        cross_check(&setup, query, &format!("step1/{case}"));
    }
}
