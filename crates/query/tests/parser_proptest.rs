//! Property tests for the query surface syntax: randomly generated CQs
//! render to text that re-parses to the identical query.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp_catalog::{Catalog, CatalogBuilder, Column, Value};
use qbdp_query::ast::{CqBuilder, Pred};
use qbdp_query::parser::parse_rule;
use qbdp_query::pretty::render;

fn catalog() -> Catalog {
    let col = Column::int_range(0, 5);
    CatalogBuilder::new()
        .uniform_relation("R0", &["X"], &col)
        .uniform_relation("R1", &["X", "Y"], &col)
        .uniform_relation("R2", &["X", "Y"], &col)
        .uniform_relation("R3", &["X", "Y", "Z"], &col)
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
struct RandomQuery {
    /// Per atom: (relation index 0..4, variable indices into a pool).
    atoms: Vec<(usize, Vec<usize>)>,
    /// Predicate choices: (variable pool index, predicate tag, constant).
    preds: Vec<(usize, usize, i64)>,
    /// Which pool variables go into the head.
    head: Vec<usize>,
}

fn query_strategy() -> impl Strategy<Value = RandomQuery> {
    let arities = [1usize, 2, 2, 3];
    let atom = (0usize..4).prop_flat_map(move |rel| {
        proptest::collection::vec(0usize..6, arities[rel]..=arities[rel])
            .prop_map(move |vars| (rel, vars))
    });
    (
        proptest::collection::vec(atom, 1..4),
        proptest::collection::vec((0usize..6, 0usize..5, 0i64..5), 0..3),
        proptest::collection::vec(0usize..6, 0..4),
    )
        .prop_map(|(atoms, preds, head)| RandomQuery { atoms, preds, head })
}

fn build(cat: &Catalog, rq: &RandomQuery) -> Option<qbdp_query::ast::ConjunctiveQuery> {
    let names = ["R0", "R1", "R2", "R3"];
    let pool = ["v0", "v1", "v2", "v3", "v4", "v5"];
    // Head vars must occur in the body (safety): filter.
    let body_vars: Vec<usize> = rq
        .atoms
        .iter()
        .flat_map(|(_, vs)| vs.iter().copied())
        .collect();
    let mut b = CqBuilder::new("Q");
    for &h in &rq.head {
        if body_vars.contains(&h) {
            b = b.head_var(pool[h]);
        }
    }
    for (rel, vs) in &rq.atoms {
        let args: Vec<&str> = vs.iter().map(|&v| pool[v]).collect();
        b = b.atom(names[*rel], &args);
    }
    for &(v, tag, c) in &rq.preds {
        if !body_vars.contains(&v) {
            continue;
        }
        let pred = match tag {
            0 => Pred::Gt(c),
            1 => Pred::Lt(c),
            2 => Pred::Ne(Value::Int(c)),
            3 => Pred::InSet(vec![Value::Int(c), Value::Int(c + 1)]),
            _ => Pred::Eq(Value::Int(c)),
        };
        b = b.pred(pool[v], pred);
    }
    b.build(cat.schema()).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_reparse_roundtrip(rq in query_strategy()) {
        let cat = catalog();
        let Some(q) = build(&cat, &rq) else { return Ok(()) };
        let text = render(&q, cat.schema());
        let reparsed = parse_rule(cat.schema(), &text)
            .unwrap_or_else(|e| panic!("rendered `{text}` failed to parse: {e}"));
        // Structural equality up to variable ids: compare by re-rendering.
        prop_assert_eq!(render(&reparsed, cat.schema()), text);
        // And semantics: same answers on a fixed instance.
        let mut d = cat.empty_instance();
        for (rid, rel) in cat.schema().iter() {
            let arity = rel.arity();
            for k in 0..3i64 {
                let t = qbdp_catalog::Tuple::new((0..arity).map(|i| Value::Int((k + i as i64) % 5)));
                let _ = d.insert(rid, t);
            }
        }
        let a1 = qbdp_query::eval::eval_cq(&q, &d).unwrap();
        let a2 = qbdp_query::eval::eval_cq(&reparsed, &d).unwrap();
        prop_assert_eq!(a1, a2);
    }
}
