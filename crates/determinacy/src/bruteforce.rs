//! Ground-truth instance-based determinacy by explicit enumeration of
//! possible worlds.
//!
//! `D ⊢ V ։ Q` iff every world `D'` over the declared columns with
//! `V(D') = V(D)` satisfies `Q(D') = Q(D)` (Definition 2.2). The data
//! complexity is co-NP-complete (Theorem 2.3), so this module is only
//! feasible on tiny catalogs — which is exactly its purpose: it is the
//! reference oracle against which the PTIME algorithms are property-tested.

use qbdp_catalog::{Catalog, Instance, RelId, Tuple};
use qbdp_query::bundle::Bundle;
use qbdp_query::error::QueryError;
use qbdp_query::eval::{eval_bundle, AnswerSet};
use std::fmt;

/// The candidate-tuple universe is too large to enumerate `2^N` worlds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldLimitExceeded {
    /// Number of candidate tuples (`N`).
    pub candidate_tuples: usize,
    /// The configured maximum.
    pub limit: usize,
}

impl fmt::Display for WorldLimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "brute-force determinacy needs 2^{} worlds (limit 2^{})",
            self.candidate_tuples, self.limit
        )
    }
}

impl std::error::Error for WorldLimitExceeded {}

/// Errors from brute-force determinacy.
#[derive(Debug)]
pub enum BruteforceError {
    /// Too many candidate tuples.
    TooLarge(WorldLimitExceeded),
    /// Query evaluation failed.
    Query(QueryError),
}

impl fmt::Display for BruteforceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BruteforceError::TooLarge(e) => write!(f, "{e}"),
            BruteforceError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BruteforceError {}

impl From<QueryError> for BruteforceError {
    fn from(e: QueryError) -> Self {
        BruteforceError::Query(e)
    }
}

/// Enumerate every instance over the catalog's column products (all `2^N`
/// subsets of the candidate-tuple universe). Errors out if `N > limit`.
pub fn enumerate_worlds(
    catalog: &Catalog,
    limit: usize,
) -> Result<Vec<Instance>, WorldLimitExceeded> {
    let universe = candidate_universe(catalog);
    let n = universe.len();
    if n > limit {
        return Err(WorldLimitExceeded {
            candidate_tuples: n,
            limit,
        });
    }
    let mut worlds = Vec::with_capacity(1usize << n);
    for mask in 0u64..(1u64 << n) {
        let mut w = catalog.empty_instance();
        for (i, (rel, t)) in universe.iter().enumerate() {
            if mask & (1 << i) != 0 {
                #[expect(
                    clippy::expect_used,
                    reason = "universe tuples come from this catalog's columns"
                )]
                w.insert(*rel, t.clone()).expect("arity");
            }
        }
        worlds.push(w);
    }
    Ok(worlds)
}

/// All candidate tuples `(R, t)` over the declared columns.
pub fn candidate_universe(catalog: &Catalog) -> Vec<(RelId, Tuple)> {
    let mut out = Vec::new();
    for rid in catalog.schema().rel_ids() {
        catalog.for_each_product_tuple(rid, |vals| {
            out.push((rid, Tuple::new(vals.to_vec())));
            true
        });
    }
    out
}

/// Brute-force instance-based determinacy for arbitrary UCQ-bundle views:
/// `D ⊢ V ։ Q` by Definition 2.2, enumerating all possible worlds.
///
/// `limit` bounds the candidate-tuple count `N` (the check costs
/// `O(2^N · eval)`); 20 is a practical ceiling.
pub fn determines_bruteforce(
    catalog: &Catalog,
    d: &Instance,
    views: &Bundle,
    q: &Bundle,
    limit: usize,
) -> Result<bool, BruteforceError> {
    let v_on_d: Vec<AnswerSet> = eval_bundle(views, d)?;
    let q_on_d: Vec<AnswerSet> = eval_bundle(q, d)?;
    let universe = candidate_universe(catalog);
    let n = universe.len();
    if n > limit {
        return Err(BruteforceError::TooLarge(WorldLimitExceeded {
            candidate_tuples: n,
            limit,
        }));
    }
    for mask in 0u64..(1u64 << n) {
        let mut w = catalog.empty_instance();
        for (i, (rel, t)) in universe.iter().enumerate() {
            if mask & (1 << i) != 0 {
                #[expect(
                    clippy::expect_used,
                    reason = "universe tuples come from this catalog's columns"
                )]
                w.insert(*rel, t.clone()).expect("arity");
            }
        }
        if eval_bundle(views, &w)? == v_on_d && eval_bundle(q, &w)? != q_on_d {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{determines_monotone_cq, SelectionView, ViewSet};
    use qbdp_catalog::{tuple, CatalogBuilder, Column};
    use qbdp_query::parser::parse_rule;

    fn tiny() -> Catalog {
        let col = Column::int_range(0, 2);
        CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .build()
            .unwrap()
    }

    #[test]
    fn world_enumeration_counts() {
        let cat = tiny();
        // Universe: R has 2 tuples, S has 4 → 2^6 = 64 worlds.
        let worlds = enumerate_worlds(&cat, 10).unwrap();
        assert_eq!(worlds.len(), 64);
        assert!(enumerate_worlds(&cat, 5).is_err());
    }

    #[test]
    fn example_2_18_both_claims() {
        // V(x,y) = R(x), S(x,y); Q() = ∃x R(x).
        // D1 = ∅:  V does NOT determine Q (add R(0) without changing V... wait
        // V changes if S nonempty only; with S empty V(D)=∅ stays ∅).
        // D2 = {R(0), S(0,1)}: V determines Q.
        let cat = tiny();
        let v = parse_rule(cat.schema(), "V(x, y) :- R(x), S(x, y)").unwrap();
        let q = parse_rule(cat.schema(), "Q() :- R(x)").unwrap();
        let vb = Bundle::single(qbdp_query::ast::Ucq::single(v));
        let qb = Bundle::single(qbdp_query::ast::Ucq::single(q));
        let d1 = cat.empty_instance();
        assert!(!determines_bruteforce(&cat, &d1, &vb, &qb, 10).unwrap());
        let mut d2 = cat.empty_instance();
        let r = cat.schema().rel_id("R").unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        d2.insert(r, tuple![0]).unwrap();
        d2.insert(s, tuple![0, 1]).unwrap();
        assert!(determines_bruteforce(&cat, &d2, &vb, &qb, 10).unwrap());
    }

    #[test]
    fn agrees_with_theorem_3_3_oracle_on_random_cases() {
        // Cross-validate the PTIME oracle against ground truth on a small
        // randomized family (deterministic xorshift).
        let cat = tiny();
        let r = cat.schema().rel_id("R").unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y)").unwrap();
        let qb = Bundle::single(qbdp_query::ast::Ucq::single(q.clone()));
        let sigma: Vec<SelectionView> = ViewSet::sigma(&cat).iter().collect();
        let mut state = 0xdeadbeefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            // Random database.
            let mut d = cat.empty_instance();
            for x in 0..2i64 {
                if next() % 2 == 0 {
                    d.insert(r, tuple![x]).unwrap();
                }
                for y in 0..2i64 {
                    if next() % 2 == 0 {
                        d.insert(s, tuple![x, y]).unwrap();
                    }
                }
            }
            // Random view subset.
            let views: ViewSet = sigma.iter().filter(|_| next() % 2 == 0).cloned().collect();
            let fast = determines_monotone_cq(&cat, &d, &views, &q).unwrap();
            let slow =
                determines_bruteforce(&cat, &d, &views.to_bundle(cat.schema()), &qb, 10).unwrap();
            assert_eq!(
                fast,
                slow,
                "views {views:?} on D with {} tuples",
                d.total_tuples()
            );
        }
    }
}
