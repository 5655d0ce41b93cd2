//! The dichotomy theorem (Theorem 3.16): every conjunctive query without
//! self-joins is priced either in PTIME or is NP-complete, decided purely
//! from the query's structure:
//!
//! 1. a disconnected query takes the worst complexity of its components;
//! 2. a connected query that is neither full nor boolean is NP-complete;
//! 3. a boolean query has the complexity of its fullification;
//! 4. a full query `Q` reduces structurally (hanging variables, constants,
//!    repeated in-atom occurrences removed) to `Q'`:
//!    GChQ ⇒ PTIME, cycle `C_k` ⇒ PTIME, anything else ⇒ NP-complete.
//!
//! Queries **with** self-joins sit outside the dichotomy (e.g. H3 is
//! NP-complete but the theorem does not classify the class); the library
//! prices them with the exact engines.

use qbdp_query::analysis;
use qbdp_query::ast::{Atom, ConjunctiveQuery, Term, Var};

/// The classification outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// PTIME via the GChQ pipeline (Theorem 3.7). The payload is the
    /// structurally reduced shape's atom count, for diagnostics.
    GeneralizedChain,
    /// PTIME via the cycle algorithm (Theorem 3.15); payload = cycle length.
    Cycle(usize),
    /// Disconnected: per-component classes, in component order.
    Disconnected(Vec<QueryClass>),
    /// NP-complete (Theorem 3.16), with the reason.
    NpComplete(NpReason),
    /// Self-join present: the dichotomy does not apply.
    OutsideDichotomy,
}

/// Why a query is NP-complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NpReason {
    /// Connected, neither full nor boolean (e.g. H4(x) = R(x, y)).
    NotFullNotBoolean,
    /// Full, but the reduced shape is neither a GChQ nor a cycle
    /// (e.g. H1, H2).
    HardShape,
}

impl QueryClass {
    /// Whether pricing is PTIME for this class.
    pub fn is_ptime(&self) -> bool {
        match self {
            QueryClass::GeneralizedChain | QueryClass::Cycle(_) => true,
            QueryClass::Disconnected(cs) => cs.iter().all(QueryClass::is_ptime),
            QueryClass::NpComplete(_) | QueryClass::OutsideDichotomy => false,
        }
    }
}

/// Classify a conjunctive query per Theorem 3.16.
pub fn classify(q: &ConjunctiveQuery) -> QueryClass {
    if analysis::has_self_join(q) {
        return QueryClass::OutsideDichotomy;
    }
    if q.atoms().is_empty() {
        return QueryClass::GeneralizedChain; // vacuous query, price 0
    }
    // 1. Components.
    let components = analysis::connected_components(q);
    if components.len() > 1 {
        let classes = components
            .iter()
            .map(|comp| classify(&component_query(q, comp)))
            .collect();
        return QueryClass::Disconnected(classes);
    }
    // 2./3. Fullness and boolean-ness.
    if !analysis::is_full(q) {
        if !q.is_boolean() {
            return QueryClass::NpComplete(NpReason::NotFullNotBoolean);
        }
        #[expect(
            clippy::expect_used,
            reason = "every body var is a safe head for its own query"
        )]
        let full = q
            .with_head(q.body_vars())
            .expect("body vars are safe heads");
        return classify(&full);
    }
    // 4. Structural reduction, then shape tests.
    if q.atoms().len() == 1 {
        // A single atom is trivially a GChQ (no nontrivial cut).
        return QueryClass::GeneralizedChain;
    }
    let reduced = structural_reduce(q);
    if gchq_order_exists(&reduced) {
        return QueryClass::GeneralizedChain;
    }
    if let Some(k) = cycle_shape(&reduced) {
        return QueryClass::Cycle(k);
    }
    QueryClass::NpComplete(NpReason::HardShape)
}

/// The sub-query induced by a set of atom indices (head restricted to the
/// component's variables).
#[expect(
    clippy::expect_used,
    reason = "a connected component of a valid query stays valid"
)]
pub fn component_query(q: &ConjunctiveQuery, atom_indices: &[usize]) -> ConjunctiveQuery {
    let atoms: Vec<Atom> = atom_indices.iter().map(|&i| q.atoms()[i].clone()).collect();
    let mut vars: Vec<Var> = Vec::new();
    for a in &atoms {
        for v in a.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    let head: Vec<Var> = q
        .head()
        .iter()
        .copied()
        .filter(|h| vars.contains(h))
        .collect();
    let preds = q
        .preds()
        .iter()
        .filter(|p| vars.contains(&p.var))
        .cloned()
        .collect();
    ConjunctiveQuery::new(
        format!("{}_comp", q.name()),
        head,
        atoms,
        preds,
        q.var_names().to_vec(),
        &crate::gchq::schema_for(q),
    )
    .expect("component of a valid query is valid")
}

/// Structurally reduce a full query's atoms: drop constant positions,
/// collapse repeated variables within an atom, and drop hanging-variable
/// positions (keeping unary atoms intact), to fixpoint. Returns the reduced
/// atoms as variable lists.
fn structural_reduce(q: &ConjunctiveQuery) -> Vec<Vec<Var>> {
    let mut atoms: Vec<Vec<Var>> = q
        .atoms()
        .iter()
        .map(|a| a.terms.iter().filter_map(Term::as_var).collect())
        .collect();
    // Collapse repeats within atoms.
    for vs in &mut atoms {
        let mut seen: Vec<Var> = Vec::new();
        vs.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(*v);
                true
            }
        });
    }
    // Drop hanging positions to fixpoint (dropping can make new vars hang
    // only via the unary guard, but iterate anyway for clarity).
    loop {
        let mut counts: std::collections::HashMap<Var, usize> = std::collections::HashMap::new();
        for vs in &atoms {
            for v in vs {
                *counts.entry(*v).or_insert(0) += 1;
            }
        }
        let mut changed = false;
        for vs in &mut atoms {
            if vs.len() >= 2 {
                let before = vs.len();
                // In a connected multi-atom query every atom keeps at least
                // one join variable, so this never empties an atom.
                vs.retain(|v| counts[v] >= 2);
                if vs.len() != before {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    atoms.retain(|vs| !vs.is_empty());
    atoms
}

/// Whether the reduced atoms admit a generalized-chain order
/// (Definition 3.6 on pure structure).
fn gchq_order_exists(atoms: &[Vec<Var>]) -> bool {
    let n = atoms.len();
    if n <= 1 {
        return true;
    }
    if n > 62 {
        return false;
    }
    let mask_of = |vs: &[Var]| {
        vs.iter()
            .fold(0u128, |m, v| m | (1u128 << (v.0 as usize % 128)))
    };
    let masks: Vec<u128> = atoms.iter().map(|vs| mask_of(vs)).collect();
    let mut dead: std::collections::HashSet<u64> = std::collections::HashSet::new();
    fn rec(
        n: usize,
        masks: &[u128],
        used: u64,
        prefix: u128,
        placed: usize,
        dead: &mut std::collections::HashSet<u64>,
    ) -> bool {
        if placed == n {
            return true;
        }
        if dead.contains(&used) {
            return false;
        }
        for next in 0..n {
            if used & (1 << next) != 0 {
                continue;
            }
            let new_used = used | (1 << next);
            let new_prefix = prefix | masks[next];
            let mut suffix = 0u128;
            for (j, m) in masks.iter().enumerate() {
                if new_used & (1 << j) == 0 {
                    suffix |= m;
                }
            }
            let ok = placed + 1 == n || (new_prefix & suffix).count_ones() == 1;
            if ok && rec(n, masks, new_used, new_prefix, placed + 1, dead) {
                return true;
            }
        }
        dead.insert(used);
        false
    }
    rec(n, &masks, 0, 0, 0, &mut dead)
}

/// Whether the reduced atoms form the cycle `C_k` (all binary, every
/// variable in exactly two atoms, single cycle). Returns `k`.
fn cycle_shape(atoms: &[Vec<Var>]) -> Option<usize> {
    let k = atoms.len();
    if k < 2 || atoms.iter().any(|vs| vs.len() != 2) {
        return None;
    }
    let mut counts: std::collections::HashMap<Var, usize> = std::collections::HashMap::new();
    for vs in atoms {
        for v in vs {
            *counts.entry(*v).or_insert(0) += 1;
        }
    }
    if counts.len() != k || counts.values().any(|&c| c != 2) {
        return None;
    }
    // Walk the cycle via shared variables.
    let mut visited = vec![false; k];
    visited[0] = true;
    let mut current = 0usize;
    let mut entry_var = atoms[0][0];
    for _ in 1..k {
        let out_var = if atoms[current][0] == entry_var {
            atoms[current][1]
        } else {
            atoms[current][0]
        };
        let next = (0..k).find(|&j| !visited[j] && atoms[j].contains(&out_var))?;
        visited[next] = true;
        entry_var = out_var;
        current = next;
    }
    // Close the cycle.
    let out_var = if atoms[current][0] == entry_var {
        atoms[current][1]
    } else {
        atoms[current][0]
    };
    (atoms[0].contains(&out_var)).then_some(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{Catalog, CatalogBuilder, Column};
    use qbdp_query::parser::parse_rule;

    fn cat() -> Catalog {
        let col = Column::int_range(0, 3);
        CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y", "Z"], &col)
            .uniform_relation("S", &["X"], &col)
            .uniform_relation("T", &["X"], &col)
            .uniform_relation("U", &["X"], &col)
            .uniform_relation("A", &["X", "Y"], &col)
            .uniform_relation("B", &["X", "Y"], &col)
            .uniform_relation("C", &["X", "Y"], &col)
            .build()
            .unwrap()
    }

    #[test]
    fn h1_is_np_complete() {
        let c = cat();
        let h1 = parse_rule(c.schema(), "H1(x, y, z) :- R(x, y, z), S(x), T(y), U(z)").unwrap();
        assert_eq!(classify(&h1), QueryClass::NpComplete(NpReason::HardShape));
        assert!(!classify(&h1).is_ptime());
    }

    #[test]
    fn h2_is_np_complete() {
        let c = cat();
        let h2 = parse_rule(c.schema(), "H2(x, y) :- S(x), A(x, y), B(x, y)").unwrap();
        assert_eq!(classify(&h2), QueryClass::NpComplete(NpReason::HardShape));
    }

    #[test]
    fn h3_outside_dichotomy() {
        let c = cat();
        let h3 = parse_rule(c.schema(), "H3(x, y) :- S(x), A(x, y), S(y)").unwrap();
        assert_eq!(classify(&h3), QueryClass::OutsideDichotomy);
    }

    #[test]
    fn h4_is_np_complete() {
        let c = cat();
        let h4 = parse_rule(c.schema(), "H4(x) :- A(x, y)").unwrap();
        assert_eq!(
            classify(&h4),
            QueryClass::NpComplete(NpReason::NotFullNotBoolean)
        );
    }

    #[test]
    fn chains_and_stars_are_ptime() {
        let c = cat();
        let path = parse_rule(c.schema(), "Q(x, y, z) :- A(x, y), B(y, z)").unwrap();
        assert_eq!(classify(&path), QueryClass::GeneralizedChain);
        let star = parse_rule(c.schema(), "Q(x, y, z, u) :- A(x, y), B(x, z), R(x, u, u)").unwrap();
        assert_eq!(classify(&star), QueryClass::GeneralizedChain);
        let single = parse_rule(c.schema(), "Q(x, y, z) :- R(x, y, z)").unwrap();
        assert_eq!(classify(&single), QueryClass::GeneralizedChain);
    }

    #[test]
    fn cycles_are_ptime_but_brittle() {
        let c = cat();
        let c2 = parse_rule(c.schema(), "C2(x, y) :- A(x, y), B(y, x)").unwrap();
        assert_eq!(classify(&c2), QueryClass::Cycle(2));
        let c3 = parse_rule(c.schema(), "C3(x, y, z) :- A(x, y), B(y, z), C(z, x)").unwrap();
        assert_eq!(classify(&c3), QueryClass::Cycle(3));
        assert!(classify(&c3).is_ptime());
        // C2 + one unary predicate atom = H2-like ⇒ NP-complete ("brittle").
        let broken = parse_rule(c.schema(), "H(x, y) :- A(x, y), B(y, x), S(x)").unwrap();
        assert_eq!(
            classify(&broken),
            QueryClass::NpComplete(NpReason::HardShape)
        );
    }

    #[test]
    fn boolean_queries_classify_via_fullification() {
        let c = cat();
        let b = parse_rule(c.schema(), "B() :- A(x, y), B(y, z)").unwrap();
        assert_eq!(classify(&b), QueryClass::GeneralizedChain);
        let b_hard = parse_rule(c.schema(), "B() :- R(x, y, z), S(x), T(y), U(z)").unwrap();
        assert_eq!(
            classify(&b_hard),
            QueryClass::NpComplete(NpReason::HardShape)
        );
    }

    #[test]
    fn disconnected_takes_worst() {
        let c = cat();
        let q = parse_rule(c.schema(), "Q(x, u, v) :- S(x), A(u, v), B(u, v), T(u)").unwrap();
        match classify(&q) {
            QueryClass::Disconnected(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(parts.contains(&QueryClass::GeneralizedChain));
                assert!(parts.iter().any(|p| matches!(p, QueryClass::NpComplete(_))));
            }
            other => panic!("expected disconnected, got {other:?}"),
        }
        let easy = parse_rule(c.schema(), "Q(x, u) :- S(x), T(u)").unwrap();
        assert!(classify(&easy).is_ptime());
    }

    #[test]
    fn constants_are_removed_structurally() {
        let c = cat();
        // A(x, 3), B(x, y): dropping the constant position makes A unary —
        // a chain A'(x), B(x, y)... after dropping hanging y: chain ⇒ PTIME.
        let q = parse_rule(c.schema(), "Q(x, y) :- A(x, 3), B(x, y)").unwrap();
        assert_eq!(classify(&q), QueryClass::GeneralizedChain);
    }
}
