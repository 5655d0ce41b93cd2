//! Determinacy certificates for full conjunctive queries.
//!
//! For a **full** CQ `Q` (every variable in the head — so each assignment
//! has a *unique* witness) and selection views `V ⊆ Σ`, instance-based
//! determinacy has an exact combinatorial characterization, which is the
//! invariant behind the paper's flow construction (§3.1):
//!
//! `D ⊢ V ։ Q` iff
//!
//! * **(a)** for every answer `ū ∈ Q(D)`, *every* base tuple of its witness
//!   is covered by some view of `V` (else the world `D ∖ {t}` is consistent
//!   and loses the answer), and
//! * **(b)** for every non-answer assignment `ū` over the variables'
//!   columns, at least one *missing* witness tuple is covered (else the
//!   world `D ∪ missing` is consistent and gains the answer).
//!
//! Pricing is then the minimum-weight set of priced views hitting every
//! constraint — a weighted hitting set ([`crate::exact::hitting_set`]).
//! Constraint (b) enumerates `∏ |Col_x|` assignments, polynomial in data
//! complexity but exponential in the (fixed) variable count; the NP-hardness
//! of Theorem 3.5 lives in the hitting set itself, not in this enumeration.

use crate::budget::Budget;
use crate::degrade::{relevant_rels_cq, structural_cover};
use crate::error::PricingError;
use crate::exact::ExactResult;
use crate::money::Price;
use crate::price_points::PriceList;
use qbdp_catalog::{AttrRef, Catalog, Column, FxHashMap, FxHashSet, Instance, Tuple, Value};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::analysis;
use qbdp_query::ast::{ConjunctiveQuery, Term, Var};

/// A hitting-set instance derived from a pricing problem.
#[derive(Clone, Debug)]
pub struct CertificateSystem {
    /// The purchasable views (finite price), dense-indexed.
    pub elements: Vec<SelectionView>,
    /// Element weights (aligned with `elements`).
    pub weights: Vec<Price>,
    /// Constraints: each is a set of element indices, at least one of which
    /// must be bought. Deduplicated; supersets removed.
    pub constraints: Vec<Vec<u32>>,
    /// `true` if some constraint is unhittable (no finite-priced view),
    /// i.e. the price is `INFINITE` outright.
    pub infeasible: bool,
    /// `false` when a budget ran out before every assignment was
    /// enumerated. A partial system's constraints are a *subset* of the
    /// truth, so its hitting-set optimum only **lower-bounds** the price
    /// (an `infeasible` verdict stays conclusive either way).
    pub complete: bool,
}

/// Configuration for certificate generation.
#[derive(Clone, Copy, Debug)]
pub struct CertificateConfig {
    /// Cap on `∏ |Col_x|`, the number of enumerated assignments.
    pub max_assignments: usize,
}

impl Default for CertificateConfig {
    fn default() -> Self {
        CertificateConfig {
            max_assignments: 2_000_000,
        }
    }
}

/// Build the certificate system for a full CQ (self-joins allowed;
/// interpreted predicates restrict the assignment space).
pub fn build_certificates(
    catalog: &Catalog,
    d: &Instance,
    prices: &PriceList,
    q: &ConjunctiveQuery,
    config: CertificateConfig,
) -> Result<CertificateSystem, PricingError> {
    build_certificates_within(catalog, d, prices, q, config, &Budget::unlimited())
}

/// [`build_certificates`] under a [`Budget`]. A limited budget replaces
/// the assignment cap (and its `LimitExceeded` error) with metered
/// enumeration: one charge per assignment, and on exhaustion the system
/// built so far is returned with `complete = false`. An `infeasible`
/// verdict short-circuits immediately — one genuinely unhittable
/// constraint already proves the price `INFINITE`.
pub fn build_certificates_within(
    catalog: &Catalog,
    d: &Instance,
    prices: &PriceList,
    q: &ConjunctiveQuery,
    config: CertificateConfig,
    budget: &Budget,
) -> Result<CertificateSystem, PricingError> {
    if !analysis::is_full(q) {
        return Err(PricingError::NotApplicable(
            "certificates require a full conjunctive query".into(),
        ));
    }

    // Variable columns: intersection of the columns of every position the
    // variable occupies, filtered by its interpreted predicates.
    let vars = q.body_vars();
    let occ = analysis::var_occurrences(q);
    let mut var_cols: FxHashMap<Var, Column> = FxHashMap::default();
    for &v in &vars {
        let positions = &occ[&v];
        let mut col: Option<Column> = None;
        for &(ai, pos) in positions {
            let attr = AttrRef::new(q.atoms()[ai].rel, pos as u32);
            let c = catalog.column(attr);
            col = Some(match col {
                None => c.clone(),
                Some(prev) => prev.intersect(c),
            });
        }
        let mut col = col.ok_or_else(|| {
            PricingError::Internal(format!("body variable {v:?} has no atom occurrence"))
        })?;
        for p in q.preds() {
            if p.var == v {
                let pred = p.pred.clone();
                let mut err = None;
                col = col.filter(|val| match pred.eval(val) {
                    Ok(b) => b,
                    Err(e) => {
                        err = Some(e);
                        false
                    }
                });
                if let Some(e) = err {
                    return Err(e.into());
                }
            }
        }
        var_cols.insert(v, col);
    }

    let total: usize = vars
        .iter()
        .map(|v| var_cols[v].len())
        .try_fold(1usize, usize::checked_mul)
        .unwrap_or(usize::MAX);
    if total > config.max_assignments && !budget.is_limited() {
        // A limited budget meters the enumeration itself instead of
        // erroring on a size estimate.
        return Err(PricingError::LimitExceeded(format!(
            "{total} assignments exceed the certificate cap of {}",
            config.max_assignments
        )));
    }

    // Purchasable views on the query's attributes, dense-indexed.
    let mut elements: Vec<SelectionView> = Vec::new();
    let mut weights: Vec<Price> = Vec::new();
    let mut elem_id: FxHashMap<(AttrRef, Value), u32> = FxHashMap::default();
    let mut attrs_seen: FxHashSet<AttrRef> = FxHashSet::default();
    for atom in q.atoms() {
        for pos in 0..atom.terms.len() {
            let attr = AttrRef::new(atom.rel, pos as u32);
            if !attrs_seen.insert(attr) {
                continue;
            }
            for (value, price) in prices.views_on(attr) {
                if price.is_finite() {
                    let id = elements.len() as u32;
                    elements.push(SelectionView::new(attr, value.clone()));
                    weights.push(price);
                    elem_id.insert((attr, value.clone()), id);
                }
            }
        }
    }

    // The views covering one witness tuple: one candidate per position.
    let covering = |rel: qbdp_catalog::RelId, t: &Tuple| -> Vec<u32> {
        let mut out = Vec::new();
        for (pos, v) in t.iter().enumerate() {
            if let Some(&id) = elem_id.get(&(AttrRef::new(rel, pos as u32), v.clone())) {
                out.push(id);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    };

    let mut constraints: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut critical_seen: FxHashSet<(qbdp_catalog::RelId, Tuple)> = FxHashSet::default();
    let mut infeasible = false;

    // Enumerate assignments (odometer over var columns).
    let k = vars.len();
    let cols: Vec<&Column> = vars.iter().map(|v| &var_cols[v]).collect();
    if cols.iter().any(|c| c.is_empty()) {
        // No assignments at all: Q(D') = ∅ in every world — determined by
        // the empty view set, price 0, no constraints.
        return Ok(CertificateSystem {
            elements,
            weights,
            constraints: Vec::new(),
            infeasible: false,
            complete: true,
        });
    }
    let assignment_cost = 1 + q.atoms().len() as u64;
    let mut idx = vec![0u32; k];
    loop {
        if infeasible {
            // One unhittable constraint already proves the price INFINITE;
            // the remaining assignments cannot change that verdict.
            let mut constraints: Vec<Vec<u32>> = constraints.into_iter().collect();
            remove_supersets(&mut constraints, budget);
            return Ok(CertificateSystem {
                elements,
                weights,
                constraints,
                infeasible: true,
                complete: true,
            });
        }
        if !budget.charge(assignment_cost) {
            // Partial system: skip the quadratic superset pruning — the
            // budget is already dead and these constraints only feed a
            // lower bound (supersets never change a hitting-set optimum).
            let constraints: Vec<Vec<u32>> = constraints.into_iter().collect();
            return Ok(CertificateSystem {
                elements,
                weights,
                constraints,
                infeasible: false,
                complete: false,
            });
        }
        // Materialize the witness for this assignment.
        #[expect(
            clippy::expect_used,
            reason = "idx is indexed by exactly these body vars"
        )]
        let value_of = |v: Var| -> &Value {
            let vi = vars.iter().position(|&w| w == v).expect("body var");
            cols[vi].value_at(idx[vi])
        };
        let mut missing: Vec<u32> = Vec::new();
        let mut is_answer = true;
        let mut witness: Vec<(qbdp_catalog::RelId, Tuple)> = Vec::with_capacity(q.atoms().len());
        for atom in q.atoms() {
            let t = Tuple::new(atom.terms.iter().map(|term| match term {
                Term::Const(c) => c.clone(),
                Term::Var(v) => value_of(*v).clone(),
            }));
            if !d.relation(atom.rel).contains(t.values()) {
                is_answer = false;
                missing.extend(covering(atom.rel, &t));
            }
            witness.push((atom.rel, t));
        }
        if is_answer {
            // (a): every witness tuple individually covered.
            for (rel, t) in witness {
                if critical_seen.insert((rel, t.clone())) {
                    let c = covering(rel, &t);
                    if c.is_empty() {
                        infeasible = true;
                    } else {
                        constraints.insert(c);
                    }
                }
            }
        } else {
            // (b): some missing tuple covered.
            missing.sort_unstable();
            missing.dedup();
            if missing.is_empty() {
                infeasible = true;
            } else {
                constraints.insert(missing);
            }
        }
        // Odometer.
        let mut pos = k;
        loop {
            if pos == 0 {
                let mut constraints: Vec<Vec<u32>> = constraints.into_iter().collect();
                remove_supersets(&mut constraints, budget);
                return Ok(CertificateSystem {
                    elements,
                    weights,
                    constraints,
                    infeasible,
                    complete: true,
                });
            }
            pos -= 1;
            idx[pos] += 1;
            if (idx[pos] as usize) < cols[pos].len() {
                break;
            }
            idx[pos] = 0;
        }
    }
}

/// Drop constraints that are supersets of another (hitting the subset
/// implies hitting the superset). Quadratic, so it is metered: each probe
/// charges for the comparisons it makes, and once the budget dies the
/// remaining constraints are kept unpruned — supersets never change the
/// hitting-set optimum, so pruning is an optimization, never a soundness
/// step.
fn remove_supersets(constraints: &mut Vec<Vec<u32>>, budget: &Budget) {
    constraints.sort_by_key(Vec::len);
    let mut kept: Vec<Vec<u32>> = Vec::with_capacity(constraints.len());
    let mut metered = true;
    'outer: for c in constraints.drain(..) {
        if metered && !budget.charge(1 + kept.len() as u64) {
            metered = false;
        }
        if metered {
            // audit: bounded(scan of kept is pre-charged by this round's charge(1 + kept.len()))
            for k in &kept {
                if k.iter().all(|e| c.binary_search(e).is_ok()) {
                    continue 'outer;
                }
            }
        }
        kept.push(c);
    }
    *constraints = kept;
}

/// Certificates for a **bundle** of full CQs: by Lemma 2.6(b), `V`
/// determines a bundle iff it determines every member, so the certificate
/// system is the union of the members' systems over a shared element space.
/// Pricing the bundle is then one hitting set — this is how bundle
/// subadditivity (Proposition 2.8) materializes: shared views are paid once.
pub fn build_certificates_bundle(
    catalog: &Catalog,
    d: &Instance,
    prices: &PriceList,
    queries: &[&ConjunctiveQuery],
    config: CertificateConfig,
) -> Result<CertificateSystem, PricingError> {
    build_certificates_bundle_within(catalog, d, prices, queries, config, &Budget::unlimited())
}

/// [`build_certificates_bundle`] under a [`Budget`]. The system is
/// `complete` only when every member's system is; enumeration stops at the
/// first member cut off by the budget (or proved infeasible).
pub fn build_certificates_bundle_within(
    catalog: &Catalog,
    d: &Instance,
    prices: &PriceList,
    queries: &[&ConjunctiveQuery],
    config: CertificateConfig,
    budget: &Budget,
) -> Result<CertificateSystem, PricingError> {
    let mut elements: Vec<SelectionView> = Vec::new();
    let mut weights: Vec<Price> = Vec::new();
    let mut ids: FxHashMap<(AttrRef, Value), u32> = FxHashMap::default();
    let mut constraints: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut infeasible = false;
    let mut complete = true;
    for q in queries {
        let sys = build_certificates_within(catalog, d, prices, q, config, budget)?;
        infeasible |= sys.infeasible;
        complete &= sys.complete;
        // Remap this query's element ids into the shared space.
        let remap: Vec<u32> = sys
            .elements
            .iter()
            .zip(&sys.weights)
            .map(|(view, &w)| {
                *ids.entry((view.attr, view.value.clone()))
                    .or_insert_with(|| {
                        elements.push(view.clone());
                        weights.push(w);
                        (elements.len() - 1) as u32
                    })
            })
            .collect();
        for c in sys.constraints {
            let mut mapped: Vec<u32> = c.iter().map(|&e| remap[e as usize]).collect();
            mapped.sort_unstable();
            constraints.insert(mapped);
        }
        if infeasible || !complete {
            // Infeasibility is already conclusive; an exhausted budget
            // will refuse the remaining members anyway.
            break;
        }
    }
    let mut constraints: Vec<Vec<u32>> = constraints.into_iter().collect();
    remove_supersets(&mut constraints, budget);
    Ok(CertificateSystem {
        elements,
        weights,
        constraints,
        infeasible,
        complete,
    })
}

/// Price a certificate system: hitting set under the budget, with the
/// soundness case analysis. `rels` feeds the structural fallback when the
/// system itself is partial.
fn price_system_within(
    catalog: &Catalog,
    prices: &PriceList,
    sys: &CertificateSystem,
    rels: impl IntoIterator<Item = qbdp_catalog::RelId>,
    budget: &Budget,
) -> ExactResult {
    if sys.infeasible {
        // Conclusive even from a partial system: the unhittable constraint
        // is genuine, so no purchasable view set determines the query.
        return ExactResult::exact(Price::INFINITE, Vec::new());
    }
    let hs =
        crate::exact::hitting_set::solve_hitting_set_within(&sys.weights, &sys.constraints, budget);
    let chosen_views = |chosen: &[u32]| -> Vec<SelectionView> {
        chosen
            .iter()
            .map(|&i| sys.elements[i as usize].clone())
            .collect()
    };
    if sys.complete && hs.complete {
        ExactResult::exact(hs.weight, chosen_views(&hs.chosen))
    } else if sys.complete {
        // Complete system, interrupted search: `chosen` genuinely hits
        // every certificate, hence determines the query — a sound upper
        // bound realized by real views. The structural relation cover is
        // equally sound; sell whichever is cheaper (in particular the
        // cover, when the interrupt left no hitting set in hand at all).
        let (cover, cover_views) = structural_cover(catalog, prices, rels);
        if hs.weight <= cover {
            ExactResult::degraded(hs.weight, chosen_views(&hs.chosen), hs.lower_bound)
        } else {
            ExactResult::degraded(cover, cover_views, hs.lower_bound)
        }
    } else {
        // Partial system: its optimum only lower-bounds the price (missing
        // constraints can only push it up), so the sellable upper bound
        // comes from the structural relation cover.
        let (ub, ub_views) = structural_cover(catalog, prices, rels);
        ExactResult::degraded(ub, ub_views, hs.lower_bound)
    }
}

/// Convenience: bundle certificates + hitting set in one call.
pub fn certificate_price_bundle(
    catalog: &Catalog,
    d: &Instance,
    prices: &PriceList,
    queries: &[&ConjunctiveQuery],
    config: CertificateConfig,
) -> Result<ExactResult, PricingError> {
    certificate_price_bundle_within(catalog, d, prices, queries, config, &Budget::unlimited())
}

/// [`certificate_price_bundle`] under a [`Budget`].
pub fn certificate_price_bundle_within(
    catalog: &Catalog,
    d: &Instance,
    prices: &PriceList,
    queries: &[&ConjunctiveQuery],
    config: CertificateConfig,
    budget: &Budget,
) -> Result<ExactResult, PricingError> {
    let sys = build_certificates_bundle_within(catalog, d, prices, queries, config, budget)?;
    let rels: FxHashSet<qbdp_catalog::RelId> = queries
        .iter()
        .flat_map(|q| q.atoms().iter().map(|a| a.rel))
        .collect();
    Ok(price_system_within(catalog, prices, &sys, rels, budget))
}

/// Convenience: certificates + hitting set in one call.
pub fn certificate_price(
    catalog: &Catalog,
    d: &Instance,
    prices: &PriceList,
    q: &ConjunctiveQuery,
    config: CertificateConfig,
) -> Result<ExactResult, PricingError> {
    certificate_price_within(catalog, d, prices, q, config, &Budget::unlimited())
}

/// [`certificate_price`] under a [`Budget`].
pub fn certificate_price_within(
    catalog: &Catalog,
    d: &Instance,
    prices: &PriceList,
    q: &ConjunctiveQuery,
    config: CertificateConfig,
    budget: &Budget,
) -> Result<ExactResult, PricingError> {
    let sys = build_certificates_within(catalog, d, prices, q, config, budget)?;
    Ok(price_system_within(
        catalog,
        prices,
        &sys,
        relevant_rels_cq(q),
        budget,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{tuple, CatalogBuilder, Column};
    use qbdp_query::parser::parse_rule;

    fn figure1() -> (Catalog, Instance) {
        let ax = Column::texts(["a1", "a2", "a3", "a4"]);
        let by = Column::texts(["b1", "b2", "b3"]);
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", ax.clone())])
            .relation("S", &[("X", ax), ("Y", by.clone())])
            .relation("T", &[("Y", by)])
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        let r = cat.schema().rel_id("R").unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        let t = cat.schema().rel_id("T").unwrap();
        d.insert_all(r, [tuple!["a1"], tuple!["a2"]]).unwrap();
        d.insert_all(
            s,
            [
                tuple!["a1", "b1"],
                tuple!["a1", "b2"],
                tuple!["a2", "b2"],
                tuple!["a4", "b1"],
            ],
        )
        .unwrap();
        d.insert_all(t, [tuple!["b1"], tuple!["b3"]]).unwrap();
        (cat, d)
    }

    #[test]
    fn figure1_certificate_price_is_six() {
        let (cat, d) = figure1();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let res = certificate_price(&cat, &d, &prices, &q, CertificateConfig::default()).unwrap();
        assert_eq!(res.price, Price::dollars(6));
    }

    #[test]
    fn infeasible_when_critical_tuple_unpriced() {
        let (cat, d) = figure1();
        // Remove every view that could cover R(a1) — R is unary so that is
        // just σ_{R.X=a1}. The answer (a1, b1) then cannot be secured.
        let mut prices = PriceList::uniform(&cat, Price::dollars(1));
        prices.remove(&SelectionView::new(
            cat.schema().resolve_attr("R.X").unwrap(),
            Value::text("a1"),
        ));
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let res = certificate_price(&cat, &d, &prices, &q, CertificateConfig::default()).unwrap();
        assert!(res.price.is_infinite());
    }

    #[test]
    fn predicates_shrink_assignment_space() {
        let col = Column::int_range(0, 10);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("R").unwrap(), tuple![7])
            .unwrap();
        d.insert(cat.schema().rel_id("S").unwrap(), tuple![7, 8])
            .unwrap();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y), x > 5, y > 5").unwrap();
        let sys = build_certificates(
            &cat,
            &d,
            &PriceList::uniform(&cat, Price::dollars(1)),
            &q,
            CertificateConfig::default(),
        )
        .unwrap();
        // Assignment space is 4 × 4, not 10 × 10; with both relations
        // sparse the system stays small.
        assert!(!sys.infeasible);
        assert!(!sys.constraints.is_empty());
    }

    #[test]
    fn empty_variable_column_prices_to_zero() {
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", Column::int_range(0, 3))])
            .relation(
                "S",
                &[
                    ("X", Column::int_range(5, 8)),
                    ("Y", Column::int_range(0, 3)),
                ],
            )
            .build()
            .unwrap();
        // Col_{R.X} ∩ Col_{S.X} = ∅: no join value exists in any world.
        let d = cat.empty_instance();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y)").unwrap();
        let res = certificate_price(
            &cat,
            &d,
            &PriceList::uniform(&cat, Price::dollars(1)),
            &q,
            CertificateConfig::default(),
        )
        .unwrap();
        assert_eq!(res.price, Price::ZERO);
    }

    #[test]
    fn assignment_cap_enforced() {
        let col = Column::int_range(0, 100);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("T", &["X", "Y"], &col)
            .build()
            .unwrap();
        let d = cat.empty_instance();
        let q = parse_rule(cat.schema(), "Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u)").unwrap();
        let err = build_certificates(
            &cat,
            &d,
            &PriceList::uniform(&cat, Price::dollars(1)),
            &q,
            CertificateConfig {
                max_assignments: 1000,
            },
        );
        assert!(matches!(err, Err(PricingError::LimitExceeded(_))));
    }
}
