//! Pricing cycle queries `C_k(x_1..x_k) = R_1(x_1,x_2), …, R_k(x_k,x_1)`
//! (Theorem 3.15).
//!
//! The conference paper states that cycle pricing is PTIME but defers the
//! algorithm to the full version, noting it is "technically the most
//! difficult result" and "quite different" from the Min-Cut reduction.
//! This module prices cycles with a **polynomial sandwich + exact
//! fallback**:
//!
//! 1. unroll the cycle at the seam variable `x_1` into a chain
//!    ([`unrolled_problem`]); determinacy of the cycle is characterized by
//!    blocking every *diagonal* seam traversal `a → a` (a winding
//!    assignment returns to its starting value);
//! 2. the **upper bound** ([`global_cut_upper_bound`]) blocks *every* seam
//!    pair `a → b` with one Min-Cut — a valid determining set, possibly
//!    over-blocking;
//! 3. the **lower bound** ([`single_pair_lower_bound`]) observes that any
//!    solution must contain, for each seam value `a`, a cut blocking
//!    `a → a` alone, so `max_a minCut(a → a)` is a floor;
//! 4. when the bounds meet — the common case, measured by experiment E9 —
//!    the price is certified **in polynomial time**; otherwise
//!    [`cycle_price`] falls back to the exact certificate engine (the
//!    (a)/(b) hitting set, exponential worst case).
//!
//! The residual gap is real: blocking only the diagonal is a *directed
//! multicut* over the seam pairs, which the chain reduction cannot express
//! (its cuts block rectangles, not diagonals). The full version's
//! special-structure algorithm closes that gap; EXPERIMENTS.md records this
//! substitution and the measured gap frequency honestly.

use crate::budget::{Budget, Metered};
use crate::chain::price::{chain_price, chain_price_within};
use crate::error::PricingError;
use crate::exact::certificates::{certificate_price_within, CertificateConfig};
use crate::exact::ExactResult;
use crate::money::Price;
use crate::normalize::Problem;
use qbdp_catalog::{AttrRef, CatalogBuilder, Column, Tuple, Value};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::analysis;
use qbdp_query::ast::CqBuilder;

/// Price a cycle query: polynomial bounds first, exact fallback when they
/// disagree.
pub fn cycle_price(
    problem: &Problem,
    config: CertificateConfig,
) -> Result<ExactResult, PricingError> {
    cycle_price_within(problem, config, &Budget::unlimited())
}

/// [`cycle_price`] under a [`Budget`]. The polynomial sandwich runs on the
/// metered flow engine; if the bounds meet the price is exact as usual.
/// Otherwise the exact certificate fallback runs on whatever budget
/// remains, and a degraded fallback result is tightened with the
/// polynomial bounds: the global-cut purchase (when it completed) is a
/// genuine determining set, and every completed single-pair cut stays a
/// valid floor.
pub fn cycle_price_within(
    problem: &Problem,
    config: CertificateConfig,
    budget: &Budget,
) -> Result<ExactResult, PricingError> {
    if analysis::cycle_order(&problem.query).is_none() {
        return Err(PricingError::NotApplicable(
            "query is not a cycle C_k".into(),
        ));
    }
    // Upper bound: one global chain cut (a valid determining set).
    let unrolled = unrolled_problem(problem, None)?;
    let ub = match chain_price_within(&unrolled, budget)? {
        Metered::Done(r) => Some(ExactResult::exact(r.price, r.original_views)),
        Metered::Exhausted { .. } => None,
    };
    // Lower bound: max over completed single-pair cuts (each is a floor).
    let mut lb = Price::ZERO;
    let mut lb_complete = true;
    for a in seam_column(problem)?.iter() {
        if budget.is_exhausted() {
            lb_complete = false;
            break;
        }
        let single = unrolled_problem(problem, Some(std::slice::from_ref(a)))?;
        match chain_price_within(&single, budget)? {
            Metered::Done(r) => lb = lb.max(r.price),
            Metered::Exhausted { .. } => {
                lb_complete = false;
                break;
            }
        }
    }
    if let Some(ub) = &ub {
        if lb_complete && lb == ub.price {
            // Certified optimal in PTIME: the global-cut solution is a
            // valid determining set and no solution can beat the
            // single-pair floor.
            return Ok(ub.clone());
        }
    }
    let fallback = certificate_price_within(
        &problem.catalog,
        &problem.instance,
        &problem.prices,
        &problem.query,
        config,
        budget,
    )?;
    if fallback.quality.is_exact() {
        return Ok(fallback);
    }
    // Degraded fallback: tighten with the polynomial sandwich.
    let (price, views) = match ub {
        Some(ub) if ub.price < fallback.price => (ub.price, ub.views),
        _ => (fallback.price, fallback.views),
    };
    Ok(ExactResult::degraded(
        price,
        views,
        fallback.lower_bound.max(lb),
    ))
}

/// Both polynomial bounds: `(lower, upper-with-views)`.
pub fn cycle_bounds(problem: &Problem) -> Result<(Price, ExactResult), PricingError> {
    let ub = global_cut_result(problem)?;
    let lb = single_pair_lower_bound(problem)?;
    Ok((lb, ub))
}

/// Upper bound from a seam **partition**: block all intra-group windings of
/// each group with its own restricted chain cut and take the union of the
/// purchased views (pricing the union against the original list, so views
/// shared between group cuts are paid once). Every diagonal pair lies
/// inside some group, so the union determines the cycle — a valid upper
/// bound for any partition; the harness searches small partition families
/// for the tightest (experiment E9's structural probe).
pub fn partition_upper_bound(
    problem: &Problem,
    groups: &[Vec<Value>],
) -> Result<Price, PricingError> {
    let mut views: Vec<SelectionView> = Vec::new();
    for group in groups {
        if group.is_empty() {
            continue;
        }
        let unrolled = unrolled_problem(problem, Some(group))?;
        let r = chain_price(&unrolled)?;
        if r.price.is_infinite() {
            return Ok(Price::INFINITE);
        }
        views.extend(r.original_views);
    }
    views.sort();
    views.dedup();
    Ok(views.iter().map(|v| problem.prices.get(v)).sum())
}

/// A polynomial **upper bound** on the cycle price: cut the cycle open at
/// `x_1` and block *every* seam pair `(a, b)` with one chain Min-Cut. The
/// unrolled chain determines the cycle (the cycle is a selection over it),
/// so its price upper-bounds the cycle's.
pub fn global_cut_upper_bound(problem: &Problem) -> Result<Price, PricingError> {
    Ok(global_cut_result(problem)?.price)
}

/// Upper bound plus the realizing (original) views.
pub fn global_cut_result(problem: &Problem) -> Result<ExactResult, PricingError> {
    let unrolled = unrolled_problem(problem, None)?;
    let r = chain_price(&unrolled)?;
    // Map the unrolled views back (cap views are free and resolve to
    // nothing; cycle-relation views map by name and flip).
    Ok(ExactResult::exact(r.price, r.original_views))
}

/// A polynomial **lower bound**: any determining set contains, for every
/// seam value `a`, a cut blocking the winding assignments through `a`
/// alone, so each single-seam chain cut is a floor and so is their max.
pub fn single_pair_lower_bound(problem: &Problem) -> Result<Price, PricingError> {
    let seam = seam_column(problem)?;
    let mut best = Price::ZERO;
    for a in seam.iter() {
        let unrolled = unrolled_problem(problem, Some(std::slice::from_ref(a)))?;
        let r = chain_price(&unrolled)?;
        best = best.max(r.price);
    }
    Ok(best)
}

/// The seam column `Col_{x_1}`: intersection of the first atom's entry
/// attribute and the last atom's exit attribute (in cycle order).
fn seam_column(problem: &Problem) -> Result<Column, PricingError> {
    let order = analysis::cycle_order(&problem.query)
        .ok_or_else(|| PricingError::NotApplicable("query is not a cycle C_k".into()))?;
    let q = &problem.query;
    let (first_ai, first_flip) = order[0];
    let (last_ai, last_flip) = *order
        .last()
        .ok_or_else(|| PricingError::Internal("cycle order is empty".into()))?;
    Ok(problem
        .catalog
        .column(AttrRef::new(q.atoms()[first_ai].rel, entry_pos(first_flip)))
        .intersect(
            problem
                .catalog
                .column(AttrRef::new(q.atoms()[last_ai].rel, exit_pos(last_flip))),
        ))
}

fn entry_pos(flipped: bool) -> u32 {
    if flipped {
        1
    } else {
        0
    }
}

fn exit_pos(flipped: bool) -> u32 {
    if flipped {
        0
    } else {
        1
    }
}

/// The unrolled chain problem: `capA(x_1), R_1(x_1, x_2), …, R_k(x_k, x_1'),
/// capB(x_1')` with free caps. `seam_restrict = Some(group)` shrinks both
/// cap columns to that subset, making the chain block exactly the winding
/// paths that start **and** end inside the group (singleton groups give the
/// single-pair subproblems of the lower bound; the full column gives the
/// global-cut upper bound).
///
/// Provenance on the cycle relations is preserved (cap views resolve to
/// nothing), so chain results map back to the seller's price list.
pub fn unrolled_problem(
    problem: &Problem,
    seam_restrict: Option<&[Value]>,
) -> Result<Problem, PricingError> {
    let order = analysis::cycle_order(&problem.query)
        .ok_or_else(|| PricingError::NotApplicable("query is not a cycle C_k".into()))?;
    let q = &problem.query;
    let schema = problem.catalog.schema();
    let col_x1 = match seam_restrict {
        None => seam_column(problem)?,
        Some(group) => {
            let full = seam_column(problem)?;
            full.filter(|v| group.contains(v))
        }
    };

    // Catalog: free caps + the cycle's relations with columns in traversal
    // order.
    let mut builder = CatalogBuilder::new();
    builder = builder.relation("__capA", &[("X", col_x1.clone())]);
    builder = builder.relation("__capB", &[("X", col_x1.clone())]);
    for &(ai, flipped) in &order {
        let rel = q.atoms()[ai].rel;
        let r = schema.relation(rel);
        builder = builder.relation(
            r.name(),
            &[
                (
                    "L",
                    problem
                        .catalog
                        .column(AttrRef::new(rel, entry_pos(flipped)))
                        .clone(),
                ),
                (
                    "R",
                    problem
                        .catalog
                        .column(AttrRef::new(rel, exit_pos(flipped)))
                        .clone(),
                ),
            ],
        );
    }
    let catalog = builder.build()?;

    // Data: caps full over their (possibly restricted) column; cycle
    // relations copied, flipped atoms reversed.
    let mut instance = catalog.empty_instance();
    let missing_cap = || PricingError::Internal("unrolled schema lost its cap relation".into());
    let cap_a = catalog.schema().rel_id("__capA").ok_or_else(missing_cap)?;
    let cap_b = catalog.schema().rel_id("__capB").ok_or_else(missing_cap)?;
    for v in col_x1.iter() {
        instance.insert(cap_a, Tuple::new([v.clone()]))?;
        instance.insert(cap_b, Tuple::new([v.clone()]))?;
    }
    for &(ai, flipped) in &order {
        let old_rel = q.atoms()[ai].rel;
        let new_rel = catalog
            .schema()
            .rel_id(schema.relation(old_rel).name())
            .ok_or_else(|| {
                PricingError::Internal("unrolled schema lost a cycle relation".into())
            })?;
        for t in problem.instance.relation(old_rel).iter() {
            let t = if flipped {
                Tuple::new([t[1].clone(), t[0].clone()])
            } else {
                Tuple::new(t.to_vec())
            };
            instance.insert(new_rel, t)?;
        }
    }

    // Prices + provenance: caps free (resolve to nothing); cycle relations
    // keep their prices with positions remapped through the flip, resolving
    // to the original views.
    let mut prices = crate::price_points::PriceList::new();
    let mut provenance = crate::normalize::Provenance::identity();
    for cap in [cap_a, cap_b] {
        let attr = AttrRef::new(cap, 0);
        prices.set_free(attr, col_x1.clone());
        provenance.set_free(attr);
    }
    for (view, price) in problem.prices.iter() {
        if let Some(&(ai, flipped)) = order
            .iter()
            .find(|&&(ai, _)| q.atoms()[ai].rel == view.attr.rel)
        {
            let name = schema.relation(q.atoms()[ai].rel).name();
            let Some(new_rel) = catalog.schema().rel_id(name) else {
                return Err(PricingError::Internal(
                    "unrolled schema lost a priced relation".into(),
                ));
            };
            let new_pos = if flipped {
                1 - view.attr.attr.0
            } else {
                view.attr.attr.0
            };
            let new_attr = AttrRef::new(new_rel, new_pos);
            prices.set(SelectionView::new(new_attr, view.value.clone()), price);
            provenance.record(
                new_attr,
                view.value.clone(),
                problem.provenance.resolve(&view),
            );
        }
    }

    // The unrolled chain query.
    let k = order.len();
    let head_names: Vec<String> = (0..=k).map(|i| format!("u{i}")).collect();
    let mut cq = CqBuilder::new("Unrolled").head_vars(head_names.iter().map(String::as_str));
    cq = cq.atom("__capA", &["u0"]);
    for (pos, &(ai, _)) in order.iter().enumerate() {
        let name = schema.relation(q.atoms()[ai].rel).name().to_string();
        let left = format!("u{pos}");
        let right = format!("u{}", pos + 1);
        cq = cq.atom(name, &[left.as_str(), right.as_str()]);
    }
    cq = cq.atom("__capB", &[format!("u{k}").as_str()]);
    let query = cq.build(catalog.schema())?;

    Ok(Problem {
        catalog,
        instance,
        prices,
        query,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::certificates::certificate_price;
    use crate::price_points::PriceList;
    use qbdp_catalog::{tuple, Catalog};
    use qbdp_query::parser::parse_rule;

    fn c2_problem(tuples1: &[(i64, i64)], tuples2: &[(i64, i64)], n: i64) -> Problem {
        let col = Column::int_range(0, n);
        let cat = CatalogBuilder::new()
            .uniform_relation("R1", &["X", "Y"], &col)
            .uniform_relation("R2", &["X", "Y"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        for &(a, b) in tuples1 {
            d.insert(cat.schema().rel_id("R1").unwrap(), tuple![a, b])
                .unwrap();
        }
        for &(a, b) in tuples2 {
            d.insert(cat.schema().rel_id("R2").unwrap(), tuple![a, b])
                .unwrap();
        }
        let q = parse_rule(cat.schema(), "C2(x, y) :- R1(x, y), R2(y, x)").unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        Problem::new(cat, d, prices, q)
    }

    #[test]
    fn c2_exact_price_matches_subset_engine() {
        let p = c2_problem(&[(0, 1)], &[(1, 0)], 2);
        let exact = cycle_price(&p, CertificateConfig::default()).unwrap();
        let subset = crate::exact::subset::subset_price(
            &p.catalog,
            &p.instance,
            &p.prices,
            &qbdp_query::bundle::Bundle::from(p.query.clone()),
            crate::exact::subset::SubsetConfig::default(),
        )
        .unwrap();
        assert_eq!(exact.price, subset.price);
    }

    #[test]
    fn bounds_sandwich_the_exact_price() {
        for (t1, t2) in [
            (vec![(0, 1)], vec![(1, 0)]),
            (vec![(0, 0), (1, 1)], vec![(0, 0)]),
            (vec![], vec![(0, 1), (1, 0)]),
            (vec![(0, 0), (0, 1), (1, 0)], vec![(0, 0), (1, 1)]),
        ] {
            let p = c2_problem(&t1, &t2, 2);
            let exact = certificate_price(
                &p.catalog,
                &p.instance,
                &p.prices,
                &p.query,
                CertificateConfig::default(),
            )
            .unwrap()
            .price;
            let (lb, ub) = cycle_bounds(&p).unwrap();
            assert!(lb <= exact, "lb {lb} above exact {exact} for {t1:?}/{t2:?}");
            assert!(
                ub.price >= exact,
                "ub {} below exact {exact} for {t1:?}/{t2:?}",
                ub.price
            );
        }
    }

    #[test]
    fn cycle_price_is_exact_even_when_bounds_gap() {
        // Whatever the bounds do, cycle_price must equal the certificate
        // engine's answer.
        let mut found_gap = false;
        for seed in 0..20u64 {
            let mut state = 0x9e3779b9u64.wrapping_mul(seed + 1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let t1: Vec<(i64, i64)> = (0..4)
                .filter(|_| next() % 2 == 0)
                .map(|i| ((i / 2) as i64, (i % 2) as i64))
                .collect();
            let t2: Vec<(i64, i64)> = (0..4)
                .filter(|_| next() % 2 == 0)
                .map(|i| ((i / 2) as i64, (i % 2) as i64))
                .collect();
            let p = c2_problem(&t1, &t2, 2);
            let exact = certificate_price(
                &p.catalog,
                &p.instance,
                &p.prices,
                &p.query,
                CertificateConfig::default(),
            )
            .unwrap()
            .price;
            let via_cycle = cycle_price(&p, CertificateConfig::default()).unwrap().price;
            assert_eq!(via_cycle, exact, "seed {seed}");
            let (lb, ub) = cycle_bounds(&p).unwrap();
            if lb != ub.price {
                found_gap = true;
            }
        }
        // The sandwich is not always tight (that is the point of the
        // exact fallback); at least sanity-check we exercised both paths
        // OR none had gaps (both acceptable, but record it).
        let _ = found_gap;
    }

    #[test]
    fn upper_bound_views_resolve_to_originals() {
        let p = c2_problem(&[(0, 1)], &[(1, 0)], 2);
        let ub = global_cut_result(&p).unwrap();
        assert!(ub.price.is_finite());
        // Every returned view is a real view of the ORIGINAL catalog.
        for v in &ub.views {
            assert!(v.attr.rel.0 <= 1, "cap view leaked: {v:?}");
            assert!(p.prices.get(v).is_finite());
        }
        let total: Price = ub.views.iter().map(|v| p.prices.get(v)).sum();
        assert_eq!(total, ub.price);
    }

    #[test]
    fn non_cycle_rejected() {
        let col = Column::int_range(0, 2);
        let cat: Catalog = CatalogBuilder::new()
            .uniform_relation("R1", &["X", "Y"], &col)
            .uniform_relation("R2", &["X", "Y"], &col)
            .build()
            .unwrap();
        let d = cat.empty_instance();
        let q = parse_rule(cat.schema(), "Q(x, y, z) :- R1(x, y), R2(y, z)").unwrap();
        let p = Problem::new(
            cat.clone(),
            d,
            PriceList::uniform(&cat, Price::dollars(1)),
            q,
        );
        assert!(matches!(
            cycle_price(&p, CertificateConfig::default()),
            Err(PricingError::NotApplicable(_))
        ));
    }

    #[test]
    fn orientation_agnostic_cycles_priced() {
        // A(u,v), C(u,v) is C2 up to flipping C's attributes.
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("A", &["X", "Y"], &col)
            .uniform_relation("C", &["X", "Y"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("A").unwrap(), tuple![0, 1])
            .unwrap();
        d.insert(cat.schema().rel_id("C").unwrap(), tuple![0, 1])
            .unwrap();
        let q = parse_rule(cat.schema(), "Q(u, v) :- A(u, v), C(u, v)").unwrap();
        let p = Problem::new(
            cat.clone(),
            d.clone(),
            PriceList::uniform(&cat, Price::dollars(1)),
            q.clone(),
        );
        let via_cycle = cycle_price(&p, CertificateConfig::default()).unwrap().price;
        let exact = certificate_price(&cat, &d, &p.prices, &q, CertificateConfig::default())
            .unwrap()
            .price;
        assert_eq!(via_cycle, exact);
    }
}
