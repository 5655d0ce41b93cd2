//! Step 2: remove multiple occurrences of a variable within one atom.
//!
//! For an atom `R(x, x, z)` over `R(X, Y, Z)`, introduce the reduced
//! relation `R'(X, Z)` with `Col_{R'.X} = Col_{R.X} ∩ Col_{R.Y}`, price
//! `p(σ_{R'.X=a}) = min(p(σ_{R.X=a}), p(σ_{R.Y=a}))`, and data
//! `R' = π_{X,Z}(σ_{X=Y}(R))`. The paper proves the price of the rewritten
//! query equals the original. Provenance records which original view the
//! min came from, so quotes resolve to real views.

use super::{drop_attribute, Problem};
use crate::error::PricingError;
use qbdp_catalog::{AttrRef, Column, FxHashMap};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::ast::{Atom, Term};

/// Apply Step 2 until no atom repeats a variable.
pub fn apply(mut problem: Problem) -> Result<Problem, PricingError> {
    loop {
        let Some((atom_idx, pos_a, pos_b)) = find_repeat(&problem) else {
            return Ok(problem);
        };
        problem = collapse(problem, atom_idx, pos_a, pos_b)?;
    }
}

/// First `(atom, earlier position, later position)` with a repeated var.
fn find_repeat(problem: &Problem) -> Option<(usize, usize, usize)> {
    for (ai, atom) in problem.query.atoms().iter().enumerate() {
        for i in 0..atom.terms.len() {
            let Term::Var(v) = atom.terms[i] else {
                continue;
            };
            for j in i + 1..atom.terms.len() {
                if matches!(atom.terms[j], Term::Var(w) if w == v) {
                    return Some((ai, i, j));
                }
            }
        }
    }
    None
}

/// Collapse positions `pos_a` and `pos_b` (same variable) of one atom:
/// restrict the relation to tuples with equal values at both positions,
/// intersect the columns into position `pos_a`, take per-value price
/// minima, then drop position `pos_b`.
fn collapse(
    problem: Problem,
    atom_idx: usize,
    pos_a: usize,
    pos_b: usize,
) -> Result<Problem, PricingError> {
    let rel = problem.query.atoms()[atom_idx].rel;
    let attr_a = AttrRef::new(rel, pos_a as u32);
    let attr_b = AttrRef::new(rel, pos_b as u32);

    // 1. New column for position a: the intersection.
    let col_ab: Column = problem
        .catalog
        .column(attr_a)
        .intersect(problem.catalog.column(attr_b));

    let catalog = problem.catalog.with_column(attr_a, col_ab.clone());

    // 2. Restrict the relation to the diagonal (t[a] == t[b], within the
    //    intersected column); every other relation is shared.
    let mut instance = problem.instance.clone();
    instance.retain(rel, |t| t[pos_a] == t[pos_b] && col_ab.contains(&t[pos_a]));

    // 3. Price minima on the merged position, with provenance to whichever
    //    original view is cheaper.
    let mut minima = FxHashMap::default();
    let mut provenance = problem.provenance.clone();
    for v in col_ab.iter() {
        let pa = problem.prices.get_at(attr_a, v);
        let pb = problem.prices.get_at(attr_b, v);
        let (min, chosen_attr) = if pa <= pb { (pa, attr_a) } else { (pb, attr_b) };
        if min.is_finite() {
            minima.insert(v.clone(), min);
            // Resolve through any existing provenance of the chosen view.
            let orig = problem
                .provenance
                .resolve(&SelectionView::new(chosen_attr, v.clone()));
            provenance.record(attr_a, v.clone(), orig);
        }
    }
    let mut prices = problem.prices.clone();
    prices.replace_attr(attr_a, minima);
    prices.remove_attr(attr_b);

    // 4. Rewrite the query: drop position b from the atom. (Other atoms on
    //    the same relation would break this — Step 2 is only used on
    //    self-join-free queries, enforced here.)
    if problem
        .query
        .atoms()
        .iter()
        .enumerate()
        .any(|(i, a)| i != atom_idx && a.rel == rel)
    {
        return Err(PricingError::NotApplicable(
            "Step 2 requires a self-join-free query".into(),
        ));
    }
    let interim = Problem {
        catalog,
        instance,
        prices,
        query: problem.query.clone(),
        provenance,
    };

    // 5. Physically drop position b (shifts later positions down).
    let (catalog, instance, prices, provenance) = drop_attribute(
        &interim.catalog,
        &interim.instance,
        &interim.prices,
        &interim.provenance,
        rel,
        pos_b,
    )?;

    // Rewrite the atom's terms without position b; keep other atoms.
    let mut atoms: Vec<Atom> = Vec::with_capacity(problem.query.atoms().len());
    for (i, a) in problem.query.atoms().iter().enumerate() {
        if i == atom_idx {
            let terms = a
                .terms
                .iter()
                .enumerate()
                .filter(|&(p, _)| p != pos_b)
                .map(|(_, t)| t.clone())
                .collect();
            atoms.push(Atom { rel, terms });
        } else {
            atoms.push(a.clone());
        }
    }
    let query = qbdp_query::ast::ConjunctiveQuery::new(
        problem.query.name().to_string(),
        problem.query.head().to_vec(),
        atoms,
        problem.query.preds().to_vec(),
        problem.query.var_names().to_vec(),
        catalog.schema(),
    )?;

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
    use crate::money::Price;
    use crate::price_points::PriceList;
    use qbdp_catalog::{tuple, CatalogBuilder, Value};
    use qbdp_query::analysis;
    use qbdp_query::parser::parse_rule;

    #[test]
    fn collapse_repeated_positions() {
        let cat = CatalogBuilder::new()
            .relation(
                "R",
                &[
                    ("X", Column::int_range(0, 4)),
                    ("Y", Column::int_range(2, 6)),
                    ("Z", Column::int_range(0, 2)),
                ],
            )
            .build()
            .unwrap();
        let r = cat.schema().rel_id("R").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(
            r,
            [
                tuple![2, 2, 0],
                tuple![3, 3, 1],
                tuple![2, 5, 1],
                tuple![3, 2, 0],
            ],
        )
        .unwrap();
        let mut prices = PriceList::uniform(&cat, Price::dollars(10));
        // Make Y views cheaper so the min picks them.
        prices.set(
            SelectionView::new(AttrRef::new(r, 1), Value::Int(2)),
            Price::dollars(1),
        );
        let q = parse_rule(cat.schema(), "Q(x, z) :- R(x, x, z)").unwrap();
        let out = apply(Problem::new(cat, d, prices, q)).unwrap();
        // Schema: R(X, Z); column of X = {2, 3} (intersection of 0..4, 2..6).
        assert_eq!(out.catalog.schema().relation(r).arity(), 2);
        let new_x = AttrRef::new(r, 0);
        assert_eq!(out.catalog.column(new_x).len(), 2);
        // Data: diagonal tuples only, projected: (2,0), (3,1).
        assert_eq!(out.instance.relation(r).len(), 2);
        assert!(out.instance.relation(r).contains(tuple![2, 0].values()));
        assert!(out.instance.relation(r).contains(tuple![3, 1].values()));
        // Price of σ_{R'.X=2} = min($10 X, $1 Y) = $1, provenance → R.Y=2.
        assert_eq!(out.prices.get_at(new_x, &Value::Int(2)), Price::dollars(1));
        let resolved = out
            .provenance
            .resolve(&SelectionView::new(new_x, Value::Int(2)));
        assert_eq!(
            resolved,
            vec![SelectionView::new(AttrRef::new(r, 1), Value::Int(2))]
        );
        // σ_{R'.X=3} = $10 via X.
        assert_eq!(out.prices.get_at(new_x, &Value::Int(3)), Price::dollars(10));
        // The query atom is now binary.
        assert_eq!(out.query.atoms()[0].terms.len(), 2);
        assert!(!analysis::has_repeated_var_in_atom(&out.query));
    }

    #[test]
    fn triple_occurrence_collapses_fully() {
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y", "Z"], &Column::int_range(0, 3))
            .build()
            .unwrap();
        let r = cat.schema().rel_id("R").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(r, [tuple![1, 1, 1], tuple![1, 2, 1], tuple![2, 2, 2]])
            .unwrap();
        let q = parse_rule(cat.schema(), "Q(x) :- R(x, x, x)").unwrap();
        let out = apply(Problem::new(
            cat.clone(),
            d,
            PriceList::uniform(&cat, Price::dollars(1)),
            q,
        ))
        .unwrap();
        assert_eq!(out.catalog.schema().relation(r).arity(), 1);
        assert_eq!(out.instance.relation(r).len(), 2); // (1), (2)
        assert_eq!(out.query.atoms()[0].terms.len(), 1);
    }

    #[test]
    fn no_op_without_repeats() {
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &Column::int_range(0, 3))
            .build()
            .unwrap();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x, y)").unwrap();
        let d = cat.empty_instance();
        let out = apply(Problem::new(
            cat.clone(),
            d,
            PriceList::uniform(&cat, Price::dollars(1)),
            q,
        ))
        .unwrap();
        assert_eq!(
            out.catalog
                .schema()
                .relation(qbdp_catalog::RelId(0))
                .arity(),
            2
        );
    }
}
