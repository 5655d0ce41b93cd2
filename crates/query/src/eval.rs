//! Join-based evaluation of conjunctive queries, UCQs, and bundles.
//!
//! The evaluator is a backtracking join with greedy atom ordering and
//! index-backed candidate generation: at every step it picks the atom with
//! the most bound terms and scans it through the per-attribute hash index
//! when possible. This gives PTIME data complexity for every fixed query,
//! which is all the pricing framework needs (Theorem 3.3 assumes queries
//! with PTIME data complexity).

use crate::ast::{Atom, ConjunctiveQuery, Term, Ucq, Var};
use crate::bundle::Bundle;
use crate::error::QueryError;
use qbdp_catalog::{AttrId, FxHashSet, Instance, RelId, Tuple, Value};

/// A set of answer tuples.
pub type AnswerSet = FxHashSet<Tuple>;

/// Evaluate `Q(D)` for a conjunctive query: the set of head projections of
/// all satisfying assignments.
pub fn eval_cq(q: &ConjunctiveQuery, d: &Instance) -> Result<AnswerSet, QueryError> {
    let mut out = AnswerSet::default();
    for_each_assignment(q, d, |binding| {
        #[expect(
            clippy::expect_used,
            reason = "the callback fires only on fully bound assignments"
        )]
        let tuple = Tuple::new(
            q.head()
                .iter()
                .map(|v| binding[v.0 as usize].clone().expect("head var bound")),
        );
        out.insert(tuple);
        true
    })?;
    Ok(out)
}

/// Evaluate a UCQ: the union of its disjuncts' answers.
pub fn eval_ucq(q: &Ucq, d: &Instance) -> Result<AnswerSet, QueryError> {
    let mut out = AnswerSet::default();
    for cq in q.disjuncts() {
        out.extend(eval_cq(cq, d)?);
    }
    Ok(out)
}

/// Evaluate a bundle: one answer set per member query, in bundle order.
pub fn eval_bundle(b: &Bundle, d: &Instance) -> Result<Vec<AnswerSet>, QueryError> {
    b.queries().iter().map(|q| eval_ucq(q, d)).collect()
}

/// Whether `Q(D)` is non-empty, short-circuiting on the first assignment.
pub fn is_satisfiable(q: &ConjunctiveQuery, d: &Instance) -> Result<bool, QueryError> {
    let mut found = false;
    for_each_assignment(q, d, |_| {
        found = true;
        false
    })?;
    Ok(found)
}

/// All distinct satisfying assignments, each as a tuple of values aligned
/// with `q.body_vars()` order. Used by the boolean-query pricer, which must
/// reason about *witnesses* rather than head projections.
pub fn satisfying_assignments(
    q: &ConjunctiveQuery,
    d: &Instance,
) -> Result<Vec<Tuple>, QueryError> {
    let vars = q.body_vars();
    let mut seen = AnswerSet::default();
    let mut out = Vec::new();
    for_each_assignment(q, d, |binding| {
        #[expect(
            clippy::expect_used,
            reason = "the callback fires only on fully bound assignments"
        )]
        let t = Tuple::new(
            vars.iter()
                .map(|v| binding[v.0 as usize].clone().expect("body var bound")),
        );
        if seen.insert(t.clone()) {
            out.push(t);
        }
        true
    })?;
    Ok(out)
}

/// For a **full** CQ, the witness of an answer tuple is unique: every body
/// variable appears in the head, so the answer pins down every atom's base
/// tuple. Returns the instantiated `(relation, tuple)` facts, one per atom.
///
/// Returns `None` if the query is not full, if the answer's arity is wrong,
/// or if a repeated head variable is assigned two different values.
pub fn witness_of(q: &ConjunctiveQuery, answer: &Tuple) -> Option<Vec<(RelId, Tuple)>> {
    if answer.arity() != q.head().len() {
        return None;
    }
    let mut binding: Vec<Option<&Value>> = vec![None; q.num_vars()];
    for (i, &v) in q.head().iter().enumerate() {
        let val = answer.get(i);
        match binding[v.0 as usize] {
            Some(prev) if prev != val => return None,
            _ => binding[v.0 as usize] = Some(val),
        }
    }
    let mut out = Vec::with_capacity(q.atoms().len());
    for atom in q.atoms() {
        let mut vals = Vec::with_capacity(atom.terms.len());
        for t in &atom.terms {
            match t {
                Term::Const(c) => vals.push(c.clone()),
                Term::Var(v) => vals.push(binding[v.0 as usize]?.clone()),
            }
        }
        out.push((atom.rel, Tuple::new(vals)));
    }
    Some(out)
}

/// Drive `f` over every satisfying assignment of `q` on `d` (with possible
/// duplicates if join paths repeat — callers dedup as needed). `f` returns
/// `false` to stop early.
fn for_each_assignment(
    q: &ConjunctiveQuery,
    d: &Instance,
    mut f: impl FnMut(&[Option<Value>]) -> bool,
) -> Result<(), QueryError> {
    // Predicates indexed by variable for eager filtering.
    let mut preds_by_var: Vec<Vec<usize>> = vec![Vec::new(); q.num_vars()];
    for (i, p) in q.preds().iter().enumerate() {
        preds_by_var[p.var.0 as usize].push(i);
    }
    let mut binding: Vec<Option<Value>> = vec![None; q.num_vars()];
    let mut remaining: Vec<usize> = (0..q.atoms().len()).collect();
    recurse(q, d, &mut binding, &mut remaining, &preds_by_var, &mut f)?;
    Ok(())
}

/// Returns `Ok(false)` when the driver asked to stop.
fn recurse(
    q: &ConjunctiveQuery,
    d: &Instance,
    binding: &mut Vec<Option<Value>>,
    remaining: &mut Vec<usize>,
    preds_by_var: &[Vec<usize>],
    f: &mut impl FnMut(&[Option<Value>]) -> bool,
) -> Result<bool, QueryError> {
    let Some(pick_pos) = pick_atom(q, d, binding, remaining) else {
        return Ok(f(binding));
    };
    let atom_idx = remaining.swap_remove(pick_pos);
    let atom = &q.atoms()[atom_idx];
    let rel = d.relation(atom.rel);

    // Candidate tuples: through the index if some term is bound.
    let probe = atom.terms.iter().enumerate().find_map(|(pos, t)| match t {
        Term::Const(c) => Some((pos, c.clone())),
        Term::Var(v) => binding[v.0 as usize].clone().map(|val| (pos, val)),
    });
    let candidates: Vec<&[Value]> = match &probe {
        Some((pos, val)) => rel.select(AttrId(*pos as u32), val).collect(),
        None => rel.iter().collect(),
    };

    'tuples: for t in candidates {
        // Unify, tracking which vars this frame binds.
        let mut newly_bound: Vec<Var> = Vec::new();
        let mut ok = true;
        for (pos, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    if &t[pos] != c {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => {
                    let slot = &mut binding[v.0 as usize];
                    match slot {
                        Some(existing) => {
                            if existing != &t[pos] {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            *slot = Some(t[pos].clone());
                            newly_bound.push(*v);
                        }
                    }
                }
            }
        }
        if ok {
            // Eagerly check predicates on newly bound variables.
            for &v in &newly_bound {
                for &pi in &preds_by_var[v.0 as usize] {
                    // A var is in newly_bound exactly when its slot was just
                    // filled; if that ever breaks, reject the assignment.
                    let Some(val) = binding[v.0 as usize].as_ref() else {
                        ok = false;
                        break;
                    };
                    match q.preds()[pi].pred.eval(val) {
                        Ok(true) => {}
                        Ok(false) => {
                            ok = false;
                            break;
                        }
                        Err(e) => {
                            for &v in &newly_bound {
                                binding[v.0 as usize] = None;
                            }
                            remaining.push(atom_idx);
                            let last = remaining.len() - 1;
                            remaining.swap(pick_pos.min(last), last);
                            return Err(e);
                        }
                    }
                }
                if !ok {
                    break;
                }
            }
        }
        if ok && !recurse(q, d, binding, remaining, preds_by_var, f)? {
            for &v in &newly_bound {
                binding[v.0 as usize] = None;
            }
            remaining.push(atom_idx);
            return Ok(false);
        }
        for &v in &newly_bound {
            binding[v.0 as usize] = None;
        }
        if !ok {
            continue 'tuples;
        }
    }
    remaining.push(atom_idx);
    Ok(true)
}

/// Greedy atom choice: most bound terms, then smallest relation.
fn pick_atom(
    q: &ConjunctiveQuery,
    d: &Instance,
    binding: &[Option<Value>],
    remaining: &[usize],
) -> Option<usize> {
    remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, &ai)| {
            let atom: &Atom = &q.atoms()[ai];
            let bound = atom
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => binding[v.0 as usize].is_some(),
                })
                .count();
            let size = d.relation(atom.rel).len();
            // Most bound terms first; among ties, smaller relations first.
            (bound, usize::MAX - size)
        })
        .map(|(pos, _)| pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CqBuilder, Pred};
    use qbdp_catalog::{tuple, Catalog, CatalogBuilder, Column};

    /// The Figure 1 / Example 3.8 database.
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
    fn figure1_answer() {
        let (cat, d) = figure1();
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", &["x"])
            .atom("S", &["x", "y"])
            .atom("T", &["y"])
            .build(cat.schema())
            .unwrap();
        let ans = eval_cq(&q, &d).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple!["a1", "b1"]));
        assert!(is_satisfiable(&q, &d).unwrap());
    }

    #[test]
    fn figure1_partial_queries() {
        let (cat, d) = figure1();
        // Q[0:1](x, y) = R(x), S(x, y) — paper Figure 1(b): three tuples.
        let q01 = CqBuilder::new("Q01")
            .head_vars(["x", "y"])
            .atom("R", &["x"])
            .atom("S", &["x", "y"])
            .build(cat.schema())
            .unwrap();
        let ans = eval_cq(&q01, &d).unwrap();
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&tuple!["a1", "b1"]));
        assert!(ans.contains(&tuple!["a1", "b2"]));
        assert!(ans.contains(&tuple!["a2", "b2"]));
        // Q[1:2](x, y) = S(x, y), T(y) — two tuples.
        let q12 = CqBuilder::new("Q12")
            .head_vars(["x", "y"])
            .atom("S", &["x", "y"])
            .atom("T", &["y"])
            .build(cat.schema())
            .unwrap();
        let ans = eval_cq(&q12, &d).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&tuple!["a1", "b1"]));
        assert!(ans.contains(&tuple!["a4", "b1"]));
    }

    #[test]
    fn projection_and_boolean() {
        let (cat, d) = figure1();
        let proj = CqBuilder::new("P")
            .head_var("x")
            .atom("S", &["x", "y"])
            .build(cat.schema())
            .unwrap();
        let ans = eval_cq(&proj, &d).unwrap();
        assert_eq!(ans.len(), 3); // a1, a2, a4
        let boolean = CqBuilder::new("B")
            .atom("S", &["x", "y"])
            .build(cat.schema())
            .unwrap();
        let ans = eval_cq(&boolean, &d).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Tuple::new([])));
    }

    #[test]
    fn constants_and_predicates() {
        let col = Column::int_range(0, 10);
        let cat = CatalogBuilder::new()
            .uniform_relation("E", &["X", "Y"], &col)
            .build()
            .unwrap();
        let e = cat.schema().rel_id("E").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(e, (0..10).map(|i| tuple![i, (i * 2) % 10]))
            .unwrap();
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("E", &["x", "y"])
            .pred("x", Pred::Ge(5))
            .pred("y", Pred::Lt(5))
            .build(cat.schema())
            .unwrap();
        let ans = eval_cq(&q, &d).unwrap();
        // x in 5..10 with y = 2x mod 10 < 5: x=5 (y=0), x=6 (y=2), x=7 (y=4).
        assert_eq!(ans.len(), 3);
        let qc = CqBuilder::new("Qc")
            .head_var("y")
            .atom_terms("E", [Err(Value::Int(3)), Ok("y".into())])
            .build(cat.schema())
            .unwrap();
        let ans = eval_cq(&qc, &d).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple![6]));
    }

    #[test]
    fn self_join_repeated_var() {
        let col = Column::int_range(0, 5);
        let cat = CatalogBuilder::new()
            .uniform_relation("E", &["X", "Y"], &col)
            .build()
            .unwrap();
        let e = cat.schema().rel_id("E").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(e, [tuple![1, 2], tuple![2, 1], tuple![3, 3]])
            .unwrap();
        // Triangle-ish: E(x,y), E(y,x).
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("E", &["x", "y"])
            .atom("E", &["y", "x"])
            .build(cat.schema())
            .unwrap();
        let ans = eval_cq(&q, &d).unwrap();
        assert_eq!(ans.len(), 3); // (1,2), (2,1), (3,3)
                                  // Repeated var within an atom: E(x, x).
        let q = CqBuilder::new("Q")
            .head_var("x")
            .atom("E", &["x", "x"])
            .build(cat.schema())
            .unwrap();
        let ans = eval_cq(&q, &d).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple![3]));
    }

    #[test]
    fn witness_of_full_query() {
        let (cat, _) = figure1();
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", &["x"])
            .atom("S", &["x", "y"])
            .atom("T", &["y"])
            .build(cat.schema())
            .unwrap();
        let w = witness_of(&q, &tuple!["a1", "b1"]).unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        assert_eq!(w.len(), 3);
        assert!(w.contains(&(s, tuple!["a1", "b1"])));
        // Wrong arity answer.
        assert!(witness_of(&q, &tuple!["a1"]).is_none());
    }

    #[test]
    fn witness_rejects_inconsistent_repeated_head() {
        let col = Column::int_range(0, 5);
        let cat = CatalogBuilder::new()
            .uniform_relation("E", &["X", "Y"], &col)
            .build()
            .unwrap();
        let q = CqBuilder::new("Q")
            .head_vars(["x", "x"])
            .atom("E", &["x", "y"])
            .build(cat.schema())
            .unwrap();
        // Not full (y missing from head): witness on y is unresolvable.
        assert!(witness_of(&q, &tuple![1, 1]).is_none());
        assert!(witness_of(&q, &tuple![1, 2]).is_none());
    }

    #[test]
    fn satisfying_assignments_dedup() {
        let (cat, d) = figure1();
        let q = CqBuilder::new("B")
            .atom("S", &["x", "y"])
            .build(cat.schema())
            .unwrap();
        let assignments = satisfying_assignments(&q, &d).unwrap();
        assert_eq!(assignments.len(), 4); // the four S tuples
    }

    #[test]
    fn ucq_union() {
        let (cat, d) = figure1();
        let q1 = CqBuilder::new("U")
            .head_var("x")
            .atom("R", &["x"])
            .build(cat.schema())
            .unwrap();
        let q2 = CqBuilder::new("U")
            .head_var("y")
            .atom("T", &["y"])
            .build(cat.schema())
            .unwrap();
        let u = Ucq::new(vec![q1, q2]).unwrap();
        let ans = eval_ucq(&u, &d).unwrap();
        assert_eq!(ans.len(), 4); // a1, a2, b1, b3
    }

    #[test]
    fn empty_relation_gives_empty_answer() {
        let (cat, _) = figure1();
        let d = cat.empty_instance();
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("S", &["x", "y"])
            .build(cat.schema())
            .unwrap();
        assert!(eval_cq(&q, &d).unwrap().is_empty());
        assert!(!is_satisfiable(&q, &d).unwrap());
    }
}
