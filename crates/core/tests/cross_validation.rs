//! Randomized cross-validation of the PTIME flow pipeline against the two
//! independent exact engines (Equation-2 subset search and the certificate
//! hitting set). Any disagreement is a correctness bug in one of the three
//! implementations — this suite is the empirical backbone of the
//! reproduction's Theorem 3.7/3.13 claim.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp_catalog::{Catalog, CatalogBuilder, Column, Tuple, Value};
use qbdp_core::exact::certificates::{certificate_price, CertificateConfig};
use qbdp_core::exact::subset::{subset_price, SubsetConfig};
use qbdp_core::price_points::PriceList;
use qbdp_core::{Price, Pricer};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::bundle::Bundle;
use qbdp_query::parser::parse_rule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Setup {
    catalog: Catalog,
    instance: qbdp_catalog::Instance,
    prices: PriceList,
}

/// Random database + random (always fully covering) price list over the
/// given relation shapes.
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
    // Random prices 1..=5 dollars on every view (full coverage keeps every
    // query finitely priced and exercises nontrivial min-cuts).
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

fn check_agreement(setup: &Setup, query: &str, case: &str) {
    let q = parse_rule(setup.catalog.schema(), query).unwrap();
    let pricer = Pricer::new(
        setup.catalog.clone(),
        setup.instance.clone(),
        setup.prices.clone(),
    )
    .unwrap();
    let quote = pricer.price_cq(&q).unwrap();
    let cert = certificate_price(
        &setup.catalog,
        &setup.instance,
        &setup.prices,
        &q,
        CertificateConfig::default(),
    )
    .unwrap();
    assert_eq!(
        quote.price, cert.price,
        "{case}: flow vs certificates on `{query}`"
    );
    // The quoted views must really determine the query at the quoted price.
    if quote.price.is_finite() {
        let total: Price = quote.views.iter().map(|v| setup.prices.get(v)).sum();
        assert_eq!(total, quote.price, "{case}: view receipt sums to the price");
        let vs: qbdp_determinacy::selection::ViewSet = quote.views.iter().cloned().collect();
        assert!(
            qbdp_determinacy::selection::determines_monotone_cq(
                &setup.catalog,
                &setup.instance,
                &vs,
                &q
            )
            .unwrap(),
            "{case}: quoted views fail to determine `{query}`"
        );
    }
}

#[test]
fn chain2_flow_matches_exact_engines() {
    let mut rng = StdRng::seed_from_u64(42);
    for case in 0..60 {
        let density = [0.1, 0.3, 0.6, 0.9][case % 4];
        let setup = random_setup(&mut rng, &[("R", 1), ("S", 2), ("T", 1)], 3, density);
        check_agreement(
            &setup,
            "Q(x, y) :- R(x), S(x, y), T(y)",
            &format!("chain2/{case}"),
        );
    }
}

#[test]
fn chain3_flow_matches_exact_engines() {
    let mut rng = StdRng::seed_from_u64(7);
    for case in 0..30 {
        let density = [0.15, 0.4, 0.75][case % 3];
        let setup = random_setup(
            &mut rng,
            &[("R", 1), ("S", 2), ("U", 2), ("T", 1)],
            3,
            density,
        );
        check_agreement(
            &setup,
            "Q(x, y, z) :- R(x), S(x, y), U(y, z), T(z)",
            &format!("chain3/{case}"),
        );
    }
}

#[test]
fn hanging_vars_flow_matches_exact_engines() {
    let mut rng = StdRng::seed_from_u64(1234);
    for case in 0..40 {
        let density = [0.2, 0.5, 0.8][case % 3];
        let setup = random_setup(&mut rng, &[("R", 2), ("S", 2), ("T", 1)], 3, density);
        // x hangs on R; full pipeline with Step 3 branching.
        check_agreement(
            &setup,
            "Q(x, y, z) :- R(x, y), S(y, z), T(z)",
            &format!("hang/{case}"),
        );
    }
}

#[test]
fn star_query_flow_matches_exact_engines() {
    let mut rng = StdRng::seed_from_u64(99);
    for case in 0..30 {
        let density = [0.2, 0.5][case % 2];
        let setup = random_setup(&mut rng, &[("R", 2), ("S", 2), ("T", 1)], 2, density);
        // Star on x: R(x,y), S(x,z), T(x) — y and z hang.
        check_agreement(
            &setup,
            "Q(x, y, z) :- R(x, y), S(x, z), T(x)",
            &format!("star/{case}"),
        );
    }
}

#[test]
fn middle_unary_atoms_flow_matches_exact_engines() {
    let mut rng = StdRng::seed_from_u64(2025);
    for case in 0..30 {
        let density = [0.25, 0.6][case % 2];
        let setup = random_setup(
            &mut rng,
            &[("R", 1), ("S", 2), ("M", 1), ("U", 2), ("T", 1)],
            2,
            density,
        );
        check_agreement(
            &setup,
            "Q(x, y, z) :- R(x), S(x, y), M(y), U(y, z), T(z)",
            &format!("mid-unary/{case}"),
        );
    }
}

#[test]
fn predicates_and_constants_flow_matches_exact_engines() {
    let mut rng = StdRng::seed_from_u64(555);
    for case in 0..30 {
        let density = [0.3, 0.7][case % 2];
        let setup = random_setup(&mut rng, &[("R", 1), ("S", 2), ("T", 1)], 4, density);
        check_agreement(
            &setup,
            "Q(x, y) :- R(x), S(x, y), T(y), x > 0",
            &format!("pred/{case}"),
        );
        check_agreement(
            &setup,
            "Q(x, y) :- R(x), S(x, y), T(y), y in {0, 2, 3}",
            &format!("pred-set/{case}"),
        );
        check_agreement(
            &setup,
            "Q(y) :- R(1), S(1, y), T(y)",
            &format!("const/{case}"),
        );
    }
}

#[test]
fn repeated_variable_in_atom_matches_exact() {
    let mut rng = StdRng::seed_from_u64(31337);
    for case in 0..30 {
        let density = [0.3, 0.6][case % 2];
        let setup = random_setup(&mut rng, &[("R", 1), ("S", 3), ("T", 1)], 3, density);
        // S(x, x, y): Step 2 collapses the repeat, then chain R, S', T.
        check_agreement(
            &setup,
            "Q(x, y) :- R(x), S(x, x, y), T(y)",
            &format!("repeat/{case}"),
        );
    }
}

#[test]
fn subset_engine_agrees_on_small_cases() {
    // The subset engine is the slowest; validate on a reduced sample.
    let mut rng = StdRng::seed_from_u64(4242);
    for case in 0..12 {
        let setup = random_setup(&mut rng, &[("R", 1), ("S", 2)], 2, 0.5);
        let q = parse_rule(setup.catalog.schema(), "Q(x, y) :- R(x), S(x, y)").unwrap();
        let pricer = Pricer::new(
            setup.catalog.clone(),
            setup.instance.clone(),
            setup.prices.clone(),
        )
        .unwrap();
        let quote = pricer.price_cq(&q).unwrap();
        let subset = subset_price(
            &setup.catalog,
            &setup.instance,
            &setup.prices,
            &Bundle::from(q.clone()),
            SubsetConfig::default(),
        )
        .unwrap();
        assert_eq!(quote.price, subset.price, "subset/{case}");
    }
}

#[test]
fn np_hard_shapes_certificates_vs_subset() {
    // H1 and H2 on tiny instances: the two exact engines must agree.
    let mut rng = StdRng::seed_from_u64(777);
    for case in 0..8 {
        let setup = random_setup(
            &mut rng,
            &[("R", 3), ("S", 1), ("T", 1), ("U", 1)],
            2,
            [0.3, 0.6][case % 2],
        );
        let q = parse_rule(
            setup.catalog.schema(),
            "H1(x, y, z) :- R(x, y, z), S(x), T(y), U(z)",
        )
        .unwrap();
        let cert = certificate_price(
            &setup.catalog,
            &setup.instance,
            &setup.prices,
            &q,
            CertificateConfig::default(),
        )
        .unwrap();
        let subset = subset_price(
            &setup.catalog,
            &setup.instance,
            &setup.prices,
            &Bundle::from(q.clone()),
            SubsetConfig { max_views: 24 },
        )
        .unwrap();
        assert_eq!(cert.price, subset.price, "h1/{case}");
    }
}

#[test]
fn cycle_certificates_vs_subset() {
    let mut rng = StdRng::seed_from_u64(31415);
    for case in 0..10 {
        let setup = random_setup(
            &mut rng,
            &[("E1", 2), ("E2", 2)],
            2,
            [0.25, 0.5, 0.75][case % 3],
        );
        let q = parse_rule(setup.catalog.schema(), "C2(x, y) :- E1(x, y), E2(y, x)").unwrap();
        let cert = certificate_price(
            &setup.catalog,
            &setup.instance,
            &setup.prices,
            &q,
            CertificateConfig::default(),
        )
        .unwrap();
        let subset = subset_price(
            &setup.catalog,
            &setup.instance,
            &setup.prices,
            &Bundle::from(q.clone()),
            SubsetConfig::default(),
        )
        .unwrap();
        assert_eq!(cert.price, subset.price, "c2/{case}");
    }
}

#[test]
fn all_normalization_steps_together_match_exact() {
    // Constants (Step 1), a repeated in-atom variable (Step 2), and a
    // hanging variable (Step 3) in one query:
    //   Q(x, y, z) :- P(x, x), S(x, y), U(1, y), T(y, z)
    // P(x,x) collapses, U's constant shrinks a column, z hangs on T.
    let mut rng = StdRng::seed_from_u64(909);
    for case in 0..25 {
        let density = [0.2, 0.5, 0.8][case % 3];
        let setup = random_setup(
            &mut rng,
            &[("P", 2), ("S", 2), ("U", 2), ("T", 2)],
            3,
            density,
        );
        check_agreement(
            &setup,
            "Q(x, y, z) :- P(x, x), S(x, y), U(1, y), T(y, z)",
            &format!("all-steps/{case}"),
        );
    }
}

#[test]
fn boolean_prices_match_subset_engine() {
    // The boolean pricer (witness cover / emptiness certificate) against
    // the literal Equation-2 subset engine.
    let mut rng = StdRng::seed_from_u64(808);
    for case in 0..20 {
        let density = [0.15, 0.45, 0.8][case % 3];
        let setup = random_setup(&mut rng, &[("R", 1), ("S", 2)], 2, density);
        for query in [
            "B() :- R(x), S(x, y)",
            "B() :- S(x, x)",
            "B() :- S(x, y), R(y)",
        ] {
            let q = parse_rule(setup.catalog.schema(), query).unwrap();
            let pricer = Pricer::new(
                setup.catalog.clone(),
                setup.instance.clone(),
                setup.prices.clone(),
            )
            .unwrap();
            let quote = pricer.price_cq(&q).unwrap();
            let subset = subset_price(
                &setup.catalog,
                &setup.instance,
                &setup.prices,
                &Bundle::from(q.clone()),
                SubsetConfig::default(),
            )
            .unwrap();
            assert_eq!(
                quote.price, subset.price,
                "boolean/{case}: `{query}` (density {density})"
            );
        }
    }
}
