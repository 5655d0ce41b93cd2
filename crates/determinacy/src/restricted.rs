//! The restricted determinacy relation `։*` (Proposition 2.24).
//!
//! `D ⊢ V ։* Q` iff for **every** `D₀` with `V(D₀) ⊆ V(D)`:
//! `D₀ ⊢ V ։ Q`. The restriction is itself a determinacy relation, is
//! monotone for monotone views (so consistency survives insertions and
//! prices never drop — it repairs Example 2.18), and its prices never exceed
//! the `։`-prices.
//!
//! For selection views the check simplifies: `D₀ ⊢ V ։ Q` depends only on
//! the covered part of `D₀` (its min/max worlds are determined by it), and
//! `V(D₀) ⊆ V(D)` says exactly that this covered part is a subset of the
//! covered part of `D`. So
//!
//! ```text
//! D ⊢ V ։* Q   ⟺   ∀ C ⊆ covered(D):  Q(C) = Q(C ∪ U)
//! ```
//!
//! where `U` is the set of all column-product tuples covered by no view.
//! The quantifier is exponential in `|covered(D)|` (the relation is co-NP,
//! Prop 2.24(d)), so a limit guards the enumeration.

use crate::bruteforce::WorldLimitExceeded;
use crate::selection::ViewSet;
use qbdp_catalog::{Catalog, Instance, RelId, Tuple};
use qbdp_query::ast::Ucq;
use qbdp_query::error::QueryError;
use qbdp_query::eval::eval_ucq;
use std::fmt;

/// Errors from restricted determinacy.
#[derive(Debug)]
pub enum RestrictedError {
    /// The covered part of `D` is too large to enumerate.
    TooLarge(WorldLimitExceeded),
    /// Query evaluation failed.
    Query(QueryError),
}

impl fmt::Display for RestrictedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestrictedError::TooLarge(e) => write!(f, "{e}"),
            RestrictedError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RestrictedError {}

impl From<QueryError> for RestrictedError {
    fn from(e: QueryError) -> Self {
        RestrictedError::Query(e)
    }
}

/// Decide `D ⊢ V ։* Q` for selection views and a monotone UCQ.
///
/// `limit` bounds `|covered(D)|`; the check costs `O(2^covered · eval)`.
pub fn determines_restricted(
    catalog: &Catalog,
    d: &Instance,
    views: &ViewSet,
    q: &Ucq,
    limit: usize,
) -> Result<bool, RestrictedError> {
    let schema = d.schema().clone();
    // Covered tuples of D.
    let mut covered: Vec<(RelId, Tuple)> = Vec::new();
    for (rid, _) in schema.iter() {
        for t in d.relation(rid).iter() {
            if views.covers_tuple(&schema, rid, t) {
                covered.push((rid, Tuple::new(t.to_vec())));
            }
        }
    }
    let n = covered.len();
    if n > limit {
        return Err(RestrictedError::TooLarge(WorldLimitExceeded {
            candidate_tuples: n,
            limit,
        }));
    }
    // U = all uncovered column-product tuples (shared by every D₀).
    let mut uncovered: Vec<(RelId, Tuple)> = Vec::new();
    for rid in schema.rel_ids() {
        catalog.for_each_product_tuple(rid, |vals| {
            if !views.covers_tuple(&schema, rid, vals) {
                uncovered.push((rid, Tuple::new(vals.to_vec())));
            }
            true
        });
    }
    for mask in 0u64..(1u64 << n) {
        let mut lo = Instance::empty(schema.clone());
        for (i, (rel, t)) in covered.iter().enumerate() {
            if mask & (1 << i) != 0 {
                #[expect(
                    clippy::expect_used,
                    reason = "covered tuples come from d under the same schema"
                )]
                lo.insert(*rel, t.clone()).expect("arity");
            }
        }
        let mut hi = lo.clone();
        for (rel, t) in &uncovered {
            #[expect(
                clippy::expect_used,
                reason = "uncovered tuples come from d under the same schema"
            )]
            hi.insert(*rel, t.clone()).expect("arity");
        }
        if eval_ucq(q, &lo)? != eval_ucq(q, &hi)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Decide `D ⊢ V ։* Q` for **arbitrary bundle views** by brute force:
/// enumerate every world `D₀` over the columns with `V(D₀) ⊆ V(D)`
/// (componentwise answer-set inclusion), and require `D₀ ⊢ V ։ Q` for each
/// — checked by a second world enumeration. `O(4^N)`; tiny instances only,
/// exactly like [`crate::bruteforce`]. Used to replay Example 2.18 with
/// the repaired relation and to property-test Proposition 2.24.
pub fn determines_restricted_bundle(
    catalog: &Catalog,
    d: &Instance,
    views: &qbdp_query::bundle::Bundle,
    q: &qbdp_query::bundle::Bundle,
    limit: usize,
) -> Result<bool, crate::bruteforce::BruteforceError> {
    use crate::bruteforce::{candidate_universe, determines_bruteforce, BruteforceError};
    use qbdp_query::eval::eval_bundle;

    let universe = candidate_universe(catalog);
    let n = universe.len();
    if n > limit {
        return Err(BruteforceError::TooLarge(WorldLimitExceeded {
            candidate_tuples: n,
            limit,
        }));
    }
    let v_on_d = eval_bundle(views, d).map_err(BruteforceError::Query)?;
    for mask in 0u64..(1u64 << n) {
        let mut d0 = catalog.empty_instance();
        for (i, (rel, t)) in universe.iter().enumerate() {
            if mask & (1 << i) != 0 {
                #[expect(
                    clippy::expect_used,
                    reason = "universe tuples come from this catalog's columns"
                )]
                d0.insert(*rel, t.clone()).expect("arity");
            }
        }
        let v_on_d0 = eval_bundle(views, &d0).map_err(BruteforceError::Query)?;
        let subset = v_on_d0.iter().zip(&v_on_d).all(|(a, b)| a.is_subset(b));
        if subset && !determines_bruteforce(catalog, &d0, views, q, limit)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{determines_monotone_ucq, SelectionView};
    use qbdp_catalog::{tuple, CatalogBuilder, Column};
    use qbdp_query::parser::parse_rule;

    fn cat2() -> Catalog {
        let col = Column::int_range(0, 2);
        CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .build()
            .unwrap()
    }

    #[test]
    fn restricted_implies_plain() {
        // ։* is stronger than ։ on the same D (take D₀ = D).
        let cat = cat2();
        let q = Ucq::single(parse_rule(cat.schema(), "Q(x) :- R(x)").unwrap());
        let views: ViewSet = (0..2)
            .map(|i| {
                SelectionView::new(
                    cat.schema().resolve_attr("R.X").unwrap(),
                    qbdp_catalog::Value::Int(i),
                )
            })
            .collect();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("R").unwrap(), tuple![0])
            .unwrap();
        assert!(determines_restricted(&cat, &d, &views, &q, 16).unwrap());
        assert!(determines_monotone_ucq(&cat, &d, &views, &q).unwrap());
    }

    #[test]
    fn example_2_18_repaired() {
        // With projections, plain ։ flips from false (D1 = ∅) to true
        // (D2 ⊇ D1) as tuples arrive — the anomaly of Example 2.18. The
        // restriction ։* stays false in *both* states, which is what makes
        // pricing monotone. Emulate V = R(x), S(x,y) with selection views
        // as closely as §3 allows: cover S fully on X, nothing on R. Then
        // V determines "S" but never R; Q() = ∃x R(x) is never ։*-determined
        // yet ։-determined on no database either (R totally unknown). To
        // surface the ։ vs ։* gap we need the *query* to become known only
        // through emptiness: Q(x,y) = R(x), S(x,y) with S fully covered.
        let cat = cat2();
        let sx = cat.schema().resolve_attr("S.X").unwrap();
        let views: ViewSet = (0..2)
            .map(|i| SelectionView::new(sx, qbdp_catalog::Value::Int(i)))
            .collect();
        let q = Ucq::single(parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y)").unwrap());
        // D1: S empty ⇒ Q(D') = ∅ for all consistent D' ⇒ ։ holds.
        let d1 = cat.empty_instance();
        assert!(determines_monotone_ucq(&cat, &d1, &views, &q).unwrap());
        // But ։* quantifies over D₀ with V(D₀) ⊆ V(D) — covered(D₀) ⊆ ∅ —
        // same thing here, so ։* also holds for D1. Now D2 adds S(0,1):
        // ։ fails (R(0) unknown) and ։* fails as well: both relations agree.
        let mut d2 = cat.empty_instance();
        d2.insert(cat.schema().rel_id("S").unwrap(), tuple![0, 1])
            .unwrap();
        assert!(!determines_monotone_ucq(&cat, &d2, &views, &q).unwrap());
        assert!(!determines_restricted(&cat, &d2, &views, &q, 16).unwrap());
        // The monotonicity repair: ։* at D1 already anticipates D2's
        // content? No — covered(D1) = ∅ ⊆ covered(D2), and ։* at D2
        // quantifies over *more* worlds than at D1, so ։*(D2) ⇒ ։*(D1)
        // would need monotone views... here it demonstrates the subset
        // quantification concretely:
        assert!(determines_restricted(&cat, &d1, &views, &q, 16).unwrap());
    }

    #[test]
    fn restricted_is_antimonotone_in_covered_part() {
        // Adding covered tuples can only break ։*, never create it
        // (suppS_{D1} ⊇ suppS_{D2} in Prop 2.22's proof).
        let cat = cat2();
        let sx = cat.schema().resolve_attr("S.X").unwrap();
        let sy = cat.schema().resolve_attr("S.Y").unwrap();
        let rx = cat.schema().resolve_attr("R.X").unwrap();
        let mut views = ViewSet::new();
        for i in 0..2 {
            views.insert(SelectionView::new(sx, qbdp_catalog::Value::Int(i)));
            views.insert(SelectionView::new(sy, qbdp_catalog::Value::Int(i)));
            views.insert(SelectionView::new(rx, qbdp_catalog::Value::Int(i)));
        }
        // Σ covers everything: ։* holds everywhere, insertions included.
        let q = Ucq::single(parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y)").unwrap());
        let mut d = cat.empty_instance();
        assert!(determines_restricted(&cat, &d, &views, &q, 16).unwrap());
        d.insert(cat.schema().rel_id("R").unwrap(), tuple![1])
            .unwrap();
        d.insert(cat.schema().rel_id("S").unwrap(), tuple![1, 1])
            .unwrap();
        assert!(determines_restricted(&cat, &d, &views, &q, 16).unwrap());
    }
}
