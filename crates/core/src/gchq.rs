//! Generalized chain queries (Definition 3.6): recognition and atom
//! reordering for the main PTIME algorithm.

use qbdp_query::analysis;
use qbdp_query::ast::ConjunctiveQuery;

/// Reorder the query's atoms into a generalized-chain order, if one exists.
/// Interpreted predicates and constants are ignored by the order search
/// (they are handled by Steps 1–2 and do not affect variable sharing).
pub fn reorder_to_gchq(q: &ConjunctiveQuery) -> Option<ConjunctiveQuery> {
    let order = analysis::find_gchq_order(q)?;
    let atoms = order.iter().map(|&i| q.atoms()[i].clone()).collect();
    // Rebuilding with permuted atoms cannot fail validation: the schema
    // constraints are order-independent. `with_body` needs a schema, which
    // queries do not carry — so rebuild through the public constructor via
    // the crate-internal pieces.
    ConjunctiveQuery::new(
        q.name().to_string(),
        q.head().to_vec(),
        atoms,
        q.preds().to_vec(),
        q.var_names().to_vec(),
        // Validation needs arities; reuse a permissive check by building a
        // throwaway schema is impossible here — instead rely on the fact
        // that `ConjunctiveQuery::new` only consults the schema for atom
        // arities, which the caller has already validated. We therefore
        // validate against a schema reconstructed from the atoms.
        &schema_for(q),
    )
    .ok()
}

/// A minimal schema consistent with the query's atoms (names `R#i`,
/// arities from the atom terms). Used only to re-validate permutations of
/// an already-valid query.
pub(crate) fn schema_for(q: &ConjunctiveQuery) -> qbdp_catalog::Schema {
    let mut schema = qbdp_catalog::Schema::new();
    let max_rel = q.atoms().iter().map(|a| a.rel.0).max().unwrap_or(0);
    for rid in 0..=max_rel {
        let arity = q
            .atoms()
            .iter()
            .find(|a| a.rel.0 == rid)
            .map(|a| a.terms.len())
            .unwrap_or(1);
        let attrs: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
        #[expect(
            clippy::expect_used,
            reason = "A{i} attrs are fresh and nonempty; N{rid} relation names are fresh"
        )]
        schema
            .add_relation(
                qbdp_catalog::RelationSchema::new(format!("N{rid}"), attrs)
                    .expect("normalization attrs are fresh"),
            )
            .expect("normalization relation names are fresh");
    }
    schema
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{CatalogBuilder, Column};
    use qbdp_query::chain::ChainQuery;
    use qbdp_query::parser::parse_rule;

    #[test]
    fn reorders_scrambled_chain() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("A", &["X"], &col)
            .uniform_relation("B", &["X", "Y"], &col)
            .uniform_relation("C", &["Y"], &col)
            .build()
            .unwrap();
        // Atoms given out of chain order (binary atom first).
        let q = parse_rule(cat.schema(), "Q(x, y) :- B(x, y), A(x), C(y)").unwrap();
        assert!(ChainQuery::from_cq(&q).is_err());
        let reordered = reorder_to_gchq(&q).unwrap();
        assert!(ChainQuery::from_cq(&reordered).is_ok());
    }

    #[test]
    fn rejects_non_gchq() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("A", &["X"], &col)
            .uniform_relation("B", &["X", "Y"], &col)
            .uniform_relation("C", &["X", "Y"], &col)
            .build()
            .unwrap();
        // H2 shape: A(x), B(x,y), C(x,y) — every cut shares two variables.
        let q = parse_rule(cat.schema(), "Q(x, y) :- A(x), B(x, y), C(x, y)").unwrap();
        assert!(reorder_to_gchq(&q).is_none());
    }
}
