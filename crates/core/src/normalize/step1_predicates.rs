//! Step 1: remove interpreted predicates (and constants in atoms).
//!
//! For a predicate `C(x)`, shrink the column of every attribute position
//! that `x` occupies to the values satisfying `C`, filter the database
//! accordingly, drop the price points on removed values, and erase the
//! predicate from the query. The paper proves `p_{S'}^{D'}(Q') = p_S^D(Q)`.
//!
//! Constants are handled first by rewriting `R(…, c, …)` into `R(…, x_c, …)`
//! with a fresh variable `x_c` added to the **head** (keeping the query
//! full) and the predicate `x_c = c`; the singleton column then carries the
//! constant's effect. The extra head column is information-free (it is the
//! constant `c` on every answer), so the price is unchanged.

use super::Problem;
use crate::error::PricingError;
use crate::price_points::PriceList;
use qbdp_catalog::{AttrId, AttrRef, Catalog, Column, Instance, RelId, Schema};
use qbdp_query::analysis;
use qbdp_query::ast::{Atom, ConjunctiveQuery, Pred, PredAtom, Term, Var};
use std::borrow::Cow;

/// Apply Step 1 until the query has neither constants nor predicates.
pub fn apply(problem: Problem) -> Result<Problem, PricingError> {
    let Problem {
        catalog,
        instance,
        prices,
        query,
        provenance,
    } = problem;
    let problem = apply_to(catalog, instance, prices, Cow::Owned(query))?;
    // Shrinking does not rename views.
    Ok(Problem {
        provenance,
        ..problem
    })
}

/// [`apply`] to the problem of pricing `query` over the given inputs,
/// with identity provenance. A borrowed query is copied only when Step 1
/// leaves it as it is.
pub fn apply_to(
    catalog: Catalog,
    instance: Instance,
    prices: PriceList,
    query: Cow<'_, ConjunctiveQuery>,
) -> Result<Problem, PricingError> {
    let query = match constants_to_predicates(&query, catalog.schema())? {
        Some(rewritten) => Cow::Owned(rewritten),
        None => query,
    };
    if query.preds().is_empty() {
        return Ok(Problem::new(catalog, instance, prices, query.into_owned()));
    }
    shrink_by_predicates(catalog, instance, prices, &query)
}

/// Rewrite constants inside atoms into fresh head variables constrained by
/// `=` predicates; `None` when the query has no constant.
fn constants_to_predicates(
    q: &ConjunctiveQuery,
    schema: &Schema,
) -> Result<Option<ConjunctiveQuery>, PricingError> {
    if !analysis::has_constants(q) {
        return Ok(None);
    }
    let mut var_names = q.var_names().to_vec();
    let mut head = q.head().to_vec();
    let mut preds = q.preds().to_vec();
    let mut atoms: Vec<Atom> = Vec::with_capacity(q.atoms().len());
    let mut fresh = 0usize;
    for atom in q.atoms() {
        let mut terms = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            match term {
                Term::Var(v) => terms.push(Term::Var(*v)),
                Term::Const(c) => {
                    let v = Var(var_names.len() as u32);
                    var_names.push(format!("_c{fresh}"));
                    fresh += 1;
                    head.push(v);
                    preds.push(PredAtom {
                        var: v,
                        pred: Pred::Eq(c.clone()),
                    });
                    terms.push(Term::Var(v));
                }
            }
        }
        atoms.push(Atom {
            rel: atom.rel,
            terms,
        });
    }
    let query = ConjunctiveQuery::new(q.name(), head, atoms, preds, var_names, schema)?;
    Ok(Some(query))
}

/// Shrink columns / data / prices by each predicate of `q`, then drop the
/// predicates.
fn shrink_by_predicates(
    mut catalog: Catalog,
    mut instance: Instance,
    mut prices: PriceList,
    q: &ConjunctiveQuery,
) -> Result<Problem, PricingError> {
    // Collect, per attribute position, the conjunction of predicates that
    // apply to it (through the variable occupying it).
    let occ = analysis::var_occurrences(q);
    let mut shrink: Vec<(AttrRef, Vec<&Pred>)> = Vec::new();
    for p in q.preds() {
        let Some(positions) = occ.get(&p.var) else {
            continue; // validated at construction; defensive
        };
        for &(ai, pos) in positions {
            let attr = AttrRef::new(q.atoms()[ai].rel, pos as u32);
            match shrink.iter_mut().find(|(a, _)| *a == attr) {
                Some((_, preds)) => preds.push(&p.pred),
                None => shrink.push((attr, vec![&p.pred])),
            }
        }
    }

    // Shrink each predicated attribute's column, and drop its prices on
    // the removed values. Every other column and price map is shared.
    for (attr, preds) in &shrink {
        let mut err: Option<PricingError> = None;
        let column = catalog.column(*attr).filter(|v| {
            preds.iter().all(|p| match p.eval(v) {
                Ok(b) => b,
                Err(e) => {
                    err = Some(e.into());
                    false
                }
            })
        });
        if let Some(e) = err {
            return Err(e);
        }
        prices.retain_on(*attr, &column);
        catalog = catalog.with_column(*attr, column);
    }

    // Filter the shrunk relations on their shrunk positions: the other
    // positions already lie in their columns, and every other relation is
    // shared. Each relation reads only the rows its narrowest shrunk
    // attribute's index selects.
    let mut rels: Vec<RelId> = shrink.iter().map(|(a, _)| a.rel).collect();
    rels.sort();
    rels.dedup();
    for rel in rels {
        let shrunk: Vec<(AttrId, &Column)> = shrink
            .iter()
            .filter(|(a, _)| a.rel == rel)
            .map(|(a, _)| (a.attr, catalog.column(*a)))
            .collect();
        instance.retain_in(rel, &shrunk);
    }

    // The query with predicates erased.
    let query = q.with_body(q.atoms().to_vec(), Vec::new(), catalog.schema())?;
    Ok(Problem::new(catalog, instance, prices, query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Price;
    use crate::price_points::PriceList;
    use qbdp_catalog::Value;
    use qbdp_catalog::{tuple, CatalogBuilder, Column};
    use qbdp_query::parser::parse_rule;

    fn setup(query: &str) -> Problem {
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", Column::int_range(0, 5))])
            .relation(
                "S",
                &[
                    ("X", Column::int_range(0, 5)),
                    ("Y", Column::int_range(0, 5)),
                ],
            )
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        let r = cat.schema().rel_id("R").unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        d.insert_all(r, (0..5).map(|i| tuple![i])).unwrap();
        d.insert_all(s, [tuple![0, 1], tuple![3, 4], tuple![4, 4]])
            .unwrap();
        let q = parse_rule(cat.schema(), query).unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        Problem::new(cat, d, prices, q)
    }

    #[test]
    fn predicate_shrinks_column_data_and_prices() {
        let p = setup("Q(x, y) :- R(x), S(x, y), x > 2");
        let out = apply(p).unwrap();
        assert!(out.query.preds().is_empty());
        let rx = out.catalog.schema().resolve_attr("R.X").unwrap();
        let sx = out.catalog.schema().resolve_attr("S.X").unwrap();
        let sy = out.catalog.schema().resolve_attr("S.Y").unwrap();
        assert_eq!(out.catalog.column(rx).len(), 2); // {3, 4}
        assert_eq!(out.catalog.column(sx).len(), 2); // x occupies S.X too
        assert_eq!(out.catalog.column(sy).len(), 5); // y untouched
                                                     // R filtered to {3, 4}; S keeps (3,4), (4,4).
        assert_eq!(out.instance.relation(rx.rel).len(), 2);
        assert_eq!(out.instance.relation(sx.rel).len(), 2);
        // Prices on removed values are gone.
        assert!(out.prices.get_at(rx, &Value::Int(0)).is_infinite());
        assert_eq!(out.prices.get_at(rx, &Value::Int(3)), Price::dollars(1));
    }

    #[test]
    fn constants_become_singleton_columns() {
        let p = setup("Q(y) :- S(3, y)");
        let out = apply(p).unwrap();
        assert!(out.query.preds().is_empty());
        assert!(!analysis::has_constants(&out.query));
        // Query became full: head has the fresh variable.
        assert!(analysis::is_full(&out.query));
        let sx = out.catalog.schema().resolve_attr("S.X").unwrap();
        assert_eq!(out.catalog.column(sx).len(), 1);
        assert!(out.catalog.column(sx).contains(&Value::Int(3)));
        // Only the (3, 4) tuple survives.
        assert_eq!(out.instance.relation(sx.rel).len(), 1);
    }

    #[test]
    fn no_op_when_clean() {
        let p = setup("Q(x, y) :- R(x), S(x, y)");
        let before = p.catalog.sigma_size();
        let out = apply(p).unwrap();
        assert_eq!(out.catalog.sigma_size(), before);
    }
}
