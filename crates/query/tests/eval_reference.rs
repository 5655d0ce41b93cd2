//! Property test: the join-based evaluator agrees with a brute-force
//! reference evaluator (enumerate every assignment over the active domain ∪
//! columns) on randomized queries and databases.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp_catalog::{Catalog, CatalogBuilder, Column, FxHashSet, Instance, Tuple, Value};
use qbdp_query::ast::{ConjunctiveQuery, Term};
use qbdp_query::eval::eval_cq;
use qbdp_query::parser::parse_rule;

/// Brute-force evaluation: try every assignment of body variables to
/// column values.
fn eval_naive(catalog: &Catalog, q: &ConjunctiveQuery, d: &Instance) -> FxHashSet<Tuple> {
    let vars = q.body_vars();
    // Candidate values per variable: union of the columns at its positions
    // (a superset of the intersection — harmless for evaluation, since
    // atoms filter).
    let mut candidates: Vec<Vec<Value>> = Vec::new();
    for &v in &vars {
        let mut vals: Vec<Value> = Vec::new();
        for (ai, atom) in q.atoms().iter().enumerate() {
            for pos in atom.positions_of(v) {
                let attr = qbdp_catalog::AttrRef::new(q.atoms()[ai].rel, pos as u32);
                for value in catalog.column(attr).iter() {
                    if !vals.contains(value) {
                        vals.push(value.clone());
                    }
                }
            }
        }
        candidates.push(vals);
    }
    let mut out = FxHashSet::default();
    let mut idx = vec![0usize; vars.len()];
    'outer: loop {
        // Check the assignment.
        let value_of = |v| {
            let i = vars.iter().position(|&w| w == v).unwrap();
            candidates[i][idx[i]].clone()
        };
        let mut ok = true;
        for atom in q.atoms() {
            let t = Tuple::new(atom.terms.iter().map(|t| match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => value_of(*v),
            }));
            if !d.relation(atom.rel).contains(t.values()) {
                ok = false;
                break;
            }
        }
        if ok {
            for p in q.preds() {
                if !p.pred.eval(&value_of(p.var)).unwrap_or(false) {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            out.insert(Tuple::new(q.head().iter().map(|&v| value_of(v))));
        }
        // Odometer.
        let mut pos = vars.len();
        loop {
            if pos == 0 {
                break 'outer;
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < candidates[pos].len() {
                break;
            }
            idx[pos] = 0;
        }
        if vars.is_empty() {
            break;
        }
    }
    // No variables: single empty assignment handled by the loop body once.
    out
}

fn catalog3() -> Catalog {
    let col = Column::int_range(0, 3);
    CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["X", "Y"], &col)
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
struct Db {
    r: Vec<i64>,
    s: Vec<(i64, i64)>,
    t: Vec<(i64, i64)>,
}

fn db_strategy() -> impl Strategy<Value = Db> {
    (
        proptest::collection::vec(0..3i64, 0..4),
        proptest::collection::vec((0..3i64, 0..3i64), 0..7),
        proptest::collection::vec((0..3i64, 0..3i64), 0..7),
    )
        .prop_map(|(r, s, t)| Db { r, s, t })
}

fn build(cat: &Catalog, db: &Db) -> Instance {
    let mut d = cat.empty_instance();
    for &x in &db.r {
        let _ = d.insert(cat.schema().rel_id("R").unwrap(), qbdp_catalog::tuple![x]);
    }
    for &(x, y) in &db.s {
        let _ = d.insert(
            cat.schema().rel_id("S").unwrap(),
            qbdp_catalog::tuple![x, y],
        );
    }
    for &(x, y) in &db.t {
        let _ = d.insert(
            cat.schema().rel_id("T").unwrap(),
            qbdp_catalog::tuple![x, y],
        );
    }
    d
}

const QUERIES: &[&str] = &[
    "Q(x, y) :- R(x), S(x, y)",
    "Q(x, y, z) :- S(x, y), T(y, z)",
    "Q(x) :- S(x, y), T(y, x)",
    "Q(x, y) :- S(x, y), T(x, y)",
    "Q() :- S(x, y), R(y)",
    "Q(x) :- S(x, x)",
    "Q(y) :- S(1, y), R(y)",
    "Q(x, y) :- S(x, y), x > 0, y != 2",
    "Q(x, y, z, w) :- S(x, y), T(z, w)",
    "Q(x, y) :- S(x, y), S(y, x)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn evaluator_matches_naive_reference(db in db_strategy()) {
        let cat = catalog3();
        let d = build(&cat, &db);
        for src in QUERIES {
            let q = parse_rule(cat.schema(), src).unwrap();
            let fast = eval_cq(&q, &d).unwrap();
            let slow = eval_naive(&cat, &q, &d);
            prop_assert_eq!(&fast, &slow, "query `{}` on {:?}", src, db);
        }
    }

    #[test]
    fn satisfiable_iff_nonempty(db in db_strategy()) {
        let cat = catalog3();
        let d = build(&cat, &db);
        for src in QUERIES {
            let q = parse_rule(cat.schema(), src).unwrap();
            let nonempty = !eval_cq(&q, &d).unwrap().is_empty();
            prop_assert_eq!(qbdp_query::eval::is_satisfiable(&q, &d).unwrap(), nonempty);
        }
    }
}
