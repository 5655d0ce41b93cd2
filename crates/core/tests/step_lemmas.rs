//! Direct validation of the normalization step lemmas: each step preserves
//! the arbitrage-price of the *problem itself*, measured by the exact
//! certificate engine before and after the rewrite (independently of the
//! flow pipeline).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp_catalog::{CatalogBuilder, Column, Tuple, Value};
use qbdp_core::exact::certificates::{certificate_price, CertificateConfig};
use qbdp_core::normalize::{step1_predicates, step2_repeated, step3_hanging, Problem};
use qbdp_core::price_points::PriceList;
use qbdp_core::Price;
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::parser::parse_rule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_problem(
    rng: &mut StdRng,
    rels: &[(&str, usize)],
    n: i64,
    density: f64,
    query: &str,
) -> Problem {
    let col = Column::int_range(0, n);
    let mut builder = CatalogBuilder::new();
    for &(name, arity) in rels {
        let attrs: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
        let refs: Vec<(&str, Column)> = attrs.iter().map(|a| (a.as_str(), col.clone())).collect();
        builder = builder.relation(name, &refs);
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
                let _ = instance.insert(rid, Tuple::new(vals));
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
    let q = parse_rule(catalog.schema(), query).unwrap();
    Problem::new(catalog, instance, prices, q)
}

fn exact_price(p: &Problem) -> Price {
    certificate_price(
        &p.catalog,
        &p.instance,
        &p.prices,
        &p.query,
        CertificateConfig::default(),
    )
    .unwrap()
    .price
}

/// Step 1 (predicates and constants) preserves the price:
/// `p_{S'}^{D'}(Q') = p_S^D(Q)`.
#[test]
fn step1_preserves_price() {
    let mut rng = StdRng::seed_from_u64(1001);
    for case in 0..20 {
        let density = [0.25, 0.55, 0.85][case % 3];
        let p = random_problem(
            &mut rng,
            &[("R", 1), ("S", 2), ("T", 1)],
            4,
            density,
            "Q(x, y) :- R(x), S(x, y), T(y), x > 0, y in {0, 1, 3}",
        );
        let before = exact_price(&p);
        let after_problem = step1_predicates::apply(p).unwrap();
        let after = exact_price(&after_problem);
        assert_eq!(before, after, "step1/{case} (density {density})");
        assert!(after_problem.query.preds().is_empty());
    }
}

/// Step 2 (repeated in-atom variables) preserves the price.
#[test]
fn step2_preserves_price() {
    let mut rng = StdRng::seed_from_u64(1002);
    for case in 0..20 {
        let density = [0.25, 0.55, 0.85][case % 3];
        let p = random_problem(
            &mut rng,
            &[("R", 1), ("S", 3), ("T", 1)],
            3,
            density,
            "Q(x, y) :- R(x), S(x, x, y), T(y)",
        );
        let before = exact_price(&p);
        let after_problem = step2_repeated::apply(p).unwrap();
        let after = exact_price(&after_problem);
        assert_eq!(before, after, "step2/{case} (density {density})");
    }
}

/// Step 3 (hanging variables, Lemma 3.11): the ORIGINAL price equals the
/// minimum over the cover/skip branches of base-cost + branch price.
#[test]
fn step3_branch_minimum_is_the_price() {
    let mut rng = StdRng::seed_from_u64(1003);
    for case in 0..20 {
        let density = [0.25, 0.55, 0.85][case % 3];
        let p = random_problem(
            &mut rng,
            &[("R", 2), ("S", 2), ("T", 1)],
            3,
            density,
            "Q(x, y, z) :- R(x, y), S(y, z), T(z)",
        );
        let before = exact_price(&p);
        let mut best = Price::INFINITE;
        for branch in step3_hanging::branches(p).unwrap() {
            let branch_price = exact_price(&branch.problem);
            best = best.min(branch.base_cost.saturating_add(branch_price));
        }
        assert_eq!(before, best, "step3/{case} (density {density})");
    }
}
