//! Step 3: remove hanging variables (Lemmas 3.10 / 3.11).
//!
//! A hanging variable occurs in exactly one atom (at one position, after
//! Step 2). By Lemma 3.10 an optimal determining view set either **fully
//! covers** that attribute or **never touches it**, so each hanging
//! attribute branches the problem in two:
//!
//! * **cover**: pay `p(Σ_{R.X})` up front; the whole relation is then known,
//!   so in the reduced problem (attribute projected away) the relation is
//!   given out for free — all views of one surviving attribute get price 0;
//! * **skip**: project the attribute away and delete its price points.
//!
//! The final price is the minimum over the `2^h` reduced problems. Each
//! remaining problem has hanging variables only in unary atoms
//! (single-atom queries), which the chain reduction prices directly.
//!
//! Both branches of a node start from the same projection, so a node
//! projects once: the skip branch takes the projected problem, and the
//! cover branch a clone of it (sharing every relation, column and price
//! map) whose free attribute it then zeroes. A cover branch records what
//! it bought as a [`Cover`] — the attribute, its column and the node's
//! provenance, all shared — rather than the original views of every
//! covered value. Only the branch that wins the minimum needs those
//! views, so [`crate::gchq`] resolves the winner's covers alone (and a
//! plan build, which re-sums every branch's base cost on warm reprices,
//! resolves every branch it keeps).

use super::{drop_attribute, Problem, Provenance};
use crate::budget::Budget;
use crate::error::PricingError;
use crate::money::Price;
use qbdp_catalog::{AttrRef, Column};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::analysis;
use qbdp_query::ast::{ConjunctiveQuery, Term, Var};
use std::sync::Arc;

/// A fully reduced problem plus the cost and covers already committed by
/// the cover branches taken on the way.
#[derive(Clone, Debug)]
pub struct ReducedBranch {
    /// The reduced problem (no hanging variables in non-unary atoms).
    pub problem: Problem,
    /// Price already paid for full covers.
    pub base_cost: Price,
    /// The full covers bought on the way, outermost first; the prices of
    /// their views sum to `base_cost`.
    pub covers: Vec<Cover>,
}

impl ReducedBranch {
    /// The original views the branch's full covers bought.
    pub fn base_views(&self) -> Vec<SelectionView> {
        cover_views(&self.covers)
    }
}

/// A full cover `Σ_{R.X}` bought at one Step 3 node: the attribute, its
/// column and the node's provenance, each shared with the node. It is
/// recorded, not resolved: however long its column, a cover costs one
/// allocation to record and two reference counts to clone until someone
/// asks for its original views.
#[derive(Clone, Debug)]
pub struct Cover {
    attr: AttrRef,
    column: Column,
    provenance: Arc<Provenance>,
}

impl Cover {
    /// The original views this cover bought, appended to `out`.
    fn resolve_into(&self, out: &mut Vec<SelectionView>) {
        for value in self.column.iter() {
            self.provenance.resolve_into(self.attr, value, out);
        }
    }
}

/// The original views bought by `covers`, cover by cover in column order.
pub(crate) fn cover_views(covers: &[Cover]) -> Vec<SelectionView> {
    let mut views = Vec::with_capacity(covers.iter().map(|c| c.column.len()).sum());
    for cover in covers {
        cover.resolve_into(&mut views);
    }
    views
}

/// Cap on the number of hanging attributes (the expansion is `2^h`, as the
/// paper notes).
pub const MAX_HANGING: usize = 12;

/// Expand a problem into its Step 3 branches.
pub fn branches(problem: Problem) -> Result<Vec<ReducedBranch>, PricingError> {
    let (out, complete) = branches_within(problem, &Budget::unlimited())?;
    debug_assert!(complete, "unlimited budgets never exhaust");
    Ok(out)
}

/// [`branches`] under a [`Budget`]. Returns the branches produced before
/// the budget ran out plus a completeness flag. Every returned branch is a
/// genuine purchase strategy, so the minimum over a *partial* branch list
/// still upper-bounds the true price; only the `complete = true` minimum
/// is exact. A limited budget also lifts the `2^h` cap error: too many
/// hanging attributes simply yield `(empty, false)` and the caller falls
/// back structurally.
pub fn branches_within(
    problem: Problem,
    budget: &Budget,
) -> Result<(Vec<ReducedBranch>, bool), PricingError> {
    let h = count_hanging(&problem.query);
    if h > MAX_HANGING {
        if budget.is_limited() {
            return Ok((Vec::new(), false));
        }
        return Err(PricingError::LimitExceeded(format!(
            "{h} hanging attributes exceed the 2^h branch cap (max {MAX_HANGING})"
        )));
    }
    let mut out = Vec::new();
    let complete = expand(problem, Price::ZERO, Vec::new(), &mut out, budget)?;
    Ok((out, complete))
}

fn count_hanging(q: &ConjunctiveQuery) -> usize {
    hang_sites(q).len()
}

/// The (atom, position) of each hanging variable eligible for removal, in
/// variable order. A hanging variable's atom must keep at least one other
/// position: unary atoms are left alone, since they are whole single-atom
/// queries, priced directly by the chain reduction as a full cover.
fn hang_sites(q: &ConjunctiveQuery) -> Vec<(Var, (usize, usize))> {
    let mut sites: Vec<(Var, (usize, usize))> = analysis::var_occurrences(q)
        .into_iter()
        .filter_map(|(v, occ)| {
            let (atom, pos) = *occ.first()?;
            let hangs = occ.iter().all(|&(a, _)| a == atom);
            (hangs && q.atoms()[atom].terms.len() >= 2).then_some((v, (atom, pos)))
        })
        .collect();
    sites.sort_unstable_by_key(|&(v, _)| v);
    sites
}

fn expand(
    problem: Problem,
    base_cost: Price,
    covers: Vec<Cover>,
    out: &mut Vec<ReducedBranch>,
    budget: &Budget,
) -> Result<bool, PricingError> {
    // Each expansion node is charged about one instance scan, the cost of
    // the projection below in the worst case.
    if !budget.charge(16 + problem.instance.total_tuples() as u64) {
        return Ok(false);
    }
    // Find the next removable hanging variable.
    let next = hang_sites(&problem.query).first().copied();
    let Some((var, (atom_idx, pos))) = next else {
        out.push(ReducedBranch {
            problem,
            base_cost,
            covers,
        });
        return Ok(true);
    };
    let rel = problem.query.atoms()[atom_idx].rel;
    let attr = AttrRef::new(rel, pos as u32);
    // Both branches project R.X away: project once, and let branch A
    // share the projected relation with branch B.
    let reduced = project_out(&problem, rel, atom_idx, pos, var)?;

    // ---- Branch A: buy the full cover Σ_{R.X}. ----
    let cover_price = problem.prices.full_cover_price(&problem.catalog, attr);
    if cover_price.is_finite() {
        let mut covered = reduced.clone();
        // Give the relation out for free on one *surviving* attribute —
        // prefer a join position so later hanging-removals of this relation
        // don't erase the freebie.
        let free_pos = choose_free_position(&covered.query, atom_idx);
        let free_attr = AttrRef::new(rel, free_pos as u32);
        covered
            .prices
            .set_attr_uniform(&covered.catalog, free_attr, Price::ZERO);
        for v in covered.catalog.column(free_attr).iter() {
            covered.provenance.record(free_attr, v.clone(), Vec::new());
        }
        let mut with_cover = covers.clone();
        with_cover.push(Cover {
            attr,
            column: problem.catalog.column(attr).clone(),
            provenance: Arc::new(problem.provenance),
        });
        if !expand(
            covered,
            base_cost.saturating_add(cover_price),
            with_cover,
            out,
            budget,
        )? {
            return Ok(false);
        }
    }

    // ---- Branch B: never touch R.X. ----
    expand(reduced, base_cost, covers, out, budget)
}

/// Position of the reduced atom whose variable is not hanging (a join
/// variable), falling back to 0.
fn choose_free_position(q: &ConjunctiveQuery, atom_idx: usize) -> usize {
    let hanging = analysis::hanging_vars(q);
    let atom = &q.atoms()[atom_idx];
    atom.terms
        .iter()
        .position(|t| matches!(t, Term::Var(v) if !hanging.contains(v)))
        .unwrap_or(0)
}

/// Project attribute `pos` of `rel` out of catalog/instance/prices and
/// rewrite the query: the atom loses the position; the head loses `var`.
/// The query keeps its name and variable table, shared.
fn project_out(
    problem: &Problem,
    rel: qbdp_catalog::RelId,
    atom_idx: usize,
    pos: usize,
    var: Var,
) -> Result<Problem, PricingError> {
    let (catalog, instance, prices, provenance) = drop_attribute(
        &problem.catalog,
        &problem.instance,
        &problem.prices,
        &problem.provenance,
        rel,
        pos,
    )?;
    let mut atoms = problem.query.atoms().to_vec();
    atoms[atom_idx].terms.remove(pos);
    let head: Vec<Var> = problem
        .query
        .head()
        .iter()
        .copied()
        .filter(|&h| h != var)
        .collect();
    let query = problem.query.with_head_and_body(
        head,
        atoms,
        problem.query.preds().to_vec(),
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
    use crate::price_points::PriceList;
    use qbdp_catalog::{tuple, CatalogBuilder, Column, Value};
    use qbdp_query::parser::parse_rule;

    /// Q(x, y, z) = R(x, y), S(y, z), T(z): x hangs on R.X.
    fn setup() -> Problem {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .uniform_relation("S", &["Y", "Z"], &col)
            .uniform_relation("T", &["Z"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("R").unwrap(), tuple![0, 1])
            .unwrap();
        d.insert(cat.schema().rel_id("S").unwrap(), tuple![1, 2])
            .unwrap();
        d.insert(cat.schema().rel_id("T").unwrap(), tuple![2])
            .unwrap();
        let q = parse_rule(cat.schema(), "Q(x, y, z) :- R(x, y), S(y, z), T(z)").unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        Problem::new(cat, d, prices, q)
    }

    #[test]
    fn one_hanging_var_gives_two_branches() {
        let p = setup();
        let bs = branches(p).unwrap();
        assert_eq!(bs.len(), 2);
        // Branch A: paid the $3 full cover of R.X, bought its 3 views, and
        // some attribute of R' is free.
        let a = bs
            .iter()
            .find(|b| b.base_cost == Price::dollars(3))
            .unwrap();
        assert_eq!(a.base_views().len(), 3);
        let r = a.problem.catalog.schema().rel_id("R").unwrap();
        assert_eq!(a.problem.catalog.schema().relation(r).arity(), 1);
        let free = AttrRef::new(r, 0);
        assert_eq!(a.problem.prices.get_at(free, &Value::Int(0)), Price::ZERO);
        // Free views resolve to nothing (already paid).
        assert!(a
            .problem
            .provenance
            .resolve(&SelectionView::new(free, Value::Int(0)))
            .is_empty());
        // Branch B: nothing paid; R' has no prices on the erased attr but
        // keeps Y's (now position 0) original prices.
        let b = bs.iter().find(|b| b.base_cost == Price::ZERO).unwrap();
        assert!(b.covers.is_empty());
        let rb = b.problem.catalog.schema().rel_id("R").unwrap();
        assert_eq!(
            b.problem.prices.get_at(AttrRef::new(rb, 0), &Value::Int(1)),
            Price::dollars(1)
        );
        // Both branches: query is now R'(y), S(y, z), T(z) — a chain.
        for br in &bs {
            assert_eq!(br.problem.query.atoms()[0].terms.len(), 1);
            assert!(qbdp_query::chain::ChainQuery::from_cq(&br.problem.query).is_ok());
        }
    }

    #[test]
    fn star_query_reduces_to_unary_chain() {
        // Star: R(x,y), S(x,z), T(x): y and z hang.
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .uniform_relation("S", &["X", "Z"], &col)
            .uniform_relation("T", &["X"], &col)
            .build()
            .unwrap();
        let d = cat.empty_instance();
        let q = parse_rule(cat.schema(), "Q(x, y, z) :- R(x, y), S(x, z), T(x)").unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let bs = branches(Problem::new(cat, d, prices, q)).unwrap();
        assert_eq!(bs.len(), 4); // 2 hanging attrs ⇒ 4 branches
        for b in &bs {
            // All atoms unary: R'(x), S'(x), T(x) — a chain of unaries.
            assert!(b.problem.query.atoms().iter().all(|a| a.terms.len() == 1));
            assert!(qbdp_query::chain::ChainQuery::from_cq(&b.problem.query).is_ok());
        }
    }

    #[test]
    fn unpriced_cover_skips_branch_a() {
        let mut p = setup();
        // Unprice one R.X value: the full cover is impossible.
        let rx = p.catalog.schema().resolve_attr("R.X").unwrap();
        p.prices.remove(&SelectionView::new(rx, Value::Int(0)));
        let bs = branches(p).unwrap();
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].base_cost, Price::ZERO);
    }

    #[test]
    fn single_binary_atom_fully_branches() {
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .build()
            .unwrap();
        let d = cat.empty_instance();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x, y)").unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let bs = branches(Problem::new(cat, d, prices, q)).unwrap();
        // x removed (2 branches); the result R'(y) is unary so y stays.
        assert_eq!(bs.len(), 2);
        for b in &bs {
            assert_eq!(b.problem.query.atoms()[0].terms.len(), 1);
        }
    }
}
