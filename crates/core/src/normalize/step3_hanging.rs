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
//! # By reference
//!
//! Every branch projects the same attributes away in the same order, so
//! all `2^h` branches end on one catalog, instance and query, and differ
//! only in prices and provenance. [`expand`] therefore projects the `h`
//! hanging attributes once, as one chain, and keeps the result as the
//! [`Expansion`]'s shared problem. A branch is a choice of covers: its
//! base cost and covers are known from the chain alone, and its problem
//! is the shared one with each free attribute recorded as one rule in
//! the price list and the provenance ([`PriceList`]'s free attributes),
//! whatever the column's length. An [`Expansion`] builds a branch
//! only when asked, so a branch and bound builds the branches it solves
//! and no others.
//!
//! A cover branch records what it bought as a [`Cover`] — the attribute,
//! its column and the chain's provenance at that attribute, all shared —
//! rather than the original views of every covered value. Only the branch
//! that wins the minimum needs those views, so [`crate::gchq`] resolves
//! the winner's covers alone (and a plan build, which re-sums every
//! branch's base cost on warm reprices, resolves every branch it keeps).
//!
//! [`PriceList`]: crate::price_points::PriceList

use super::{drop_attribute, Problem, Provenance};
use crate::budget::Budget;
use crate::error::PricingError;
use crate::money::Price;
use crate::price_points::PriceList;
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

/// A full cover `Σ_{R.X}` bought at one Step 3 site: the attribute, its
/// column and the chain's provenance there, each shared by every branch
/// that covers the site. It is recorded, not resolved: however long its
/// column, a cover costs two reference counts to clone until someone asks
/// for its original views.
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

/// One hanging attribute of the projection chain.
#[derive(Debug)]
struct Site {
    /// What covering the attribute buys; its `attr` is in the coordinates
    /// of the chain stage it is projected out of.
    cover: Cover,
    /// The cover's price when no earlier cover left the attribute free
    /// (`INFINITE`: not for sale, so only such a branch may cover it).
    cover_price: Price,
    /// The attribute a cover gives out free, in the coordinates of the
    /// stage after the projection.
    free: AttrRef,
}

/// A branch of an [`Expansion`] as pricing needs it: the shared problem's
/// prices and provenance with the branch's free attributes, and what its
/// covers bought.
#[derive(Debug)]
pub(crate) struct Branch {
    /// The branch's prices over the shared problem.
    pub(crate) prices: PriceList,
    /// Reduced-view → original-view mapping of the branch.
    pub(crate) provenance: Provenance,
    /// Price already paid for full covers.
    pub(crate) base_cost: Price,
    /// The full covers bought, outermost first.
    pub(crate) covers: Vec<Cover>,
}

/// Step 3 of one problem, by reference: the projection chain every branch
/// shares, and the `2^h` branches as cover choices with their base costs,
/// in Step 3 order (the cover branch of each site before its skip
/// branch, outermost site first). A cover that is not for sale has no
/// branch.
#[derive(Debug)]
pub struct Expansion {
    /// Every hanging attribute projected away and no cover bought: the
    /// last branch's problem, and every branch's catalog, instance and
    /// query.
    shared: Problem,
    sites: Vec<Site>,
    /// Each branch's covered sites (bit `h − 1 − i` for site `i`) and
    /// base cost.
    branches: Vec<(u32, Price)>,
    complete: bool,
}

impl Expansion {
    /// The catalog, instance and query every branch shares (with the
    /// prices and provenance of the branch that covers nothing).
    pub fn problem(&self) -> &Problem {
        &self.shared
    }

    /// Number of branches.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Whether there is no branch.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Whether every branch is listed: the projection chain finished
    /// within the budget.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The price branch `index`'s covers cost.
    pub fn base_cost(&self, index: usize) -> Price {
        self.branches[index].1
    }

    /// Build branch `index` under `budget`, which is charged for it;
    /// `None` when the budget is spent.
    pub(crate) fn build(&self, index: usize, budget: &Budget) -> Option<Branch> {
        if !budget.charge(16) {
            return None;
        }
        let (covered, base_cost) = self.branches[index];
        let mut covers = Vec::new();
        let mut free = Vec::new();
        self.replay(covered, &mut free, |site| covers.push(site.cover.clone()));
        let mut prices = self.shared.prices.clone();
        let mut provenance = self.shared.provenance.clone();
        for attr in free {
            prices.set_free(attr, self.shared.catalog.column(attr).clone());
            provenance.set_free(attr);
        }
        Some(Branch {
            prices,
            provenance,
            base_cost,
            covers,
        })
    }

    /// Walk the chain covering the sites in `covered`: returns the covers'
    /// price (`None` when one is not for sale) and leaves the branch's
    /// free attributes, in the shared problem's coordinates, in `free`.
    /// `bought` sees each cover that costs something; a cover of an
    /// attribute an earlier cover left free costs 0 and buys nothing.
    fn replay(
        &self,
        covered: u32,
        free: &mut Vec<AttrRef>,
        mut bought: impl FnMut(&Site),
    ) -> Option<Price> {
        free.clear();
        let h = self.sites.len();
        let mut cost = Price::ZERO;
        for (i, site) in self.sites.iter().enumerate() {
            let attr = site.cover.attr;
            let was_free = free.contains(&attr);
            free.retain(|&a| a != attr);
            for a in free.iter_mut() {
                if a.rel == attr.rel && a.attr > attr.attr {
                    *a = AttrRef::new(a.rel, a.attr.0 - 1);
                }
            }
            if covered >> (h - 1 - i) & 1 == 0 {
                continue;
            }
            if !was_free {
                if !site.cover_price.is_finite() {
                    return None;
                }
                cost = cost.saturating_add(site.cover_price);
                bought(site);
            }
            if !free.contains(&site.free) {
                free.push(site.free);
            }
        }
        Some(cost)
    }
}

/// Expand a problem into its Step 3 branches, every one built.
pub fn branches(problem: Problem) -> Result<Vec<ReducedBranch>, PricingError> {
    let unlimited = Budget::unlimited();
    let expansion = expand(problem, &unlimited)?;
    let shared = expansion.problem();
    let mut out = Vec::with_capacity(expansion.len());
    for index in 0..expansion.len() {
        let Some(branch) = expansion.build(index, &unlimited) else {
            unreachable!("unlimited budgets never exhaust");
        };
        out.push(ReducedBranch {
            problem: Problem {
                catalog: shared.catalog.clone(),
                instance: shared.instance.clone(),
                prices: branch.prices,
                query: shared.query.clone(),
                provenance: branch.provenance,
            },
            base_cost: branch.base_cost,
            covers: branch.covers,
        });
    }
    Ok(out)
}

/// Run a problem's projection chain under a [`Budget`] and list its
/// branches. Each projection is charged about one instance scan, its cost
/// in the worst case. When the budget runs out inside the chain, the
/// expansion is incomplete and lists no branch; so it is when there are
/// more than [`MAX_HANGING`] hanging attributes under a limited budget,
/// and the caller falls back structurally. Under an unlimited budget that
/// many is an error.
pub fn expand(problem: Problem, budget: &Budget) -> Result<Expansion, PricingError> {
    let h = hang_sites(&problem.query).len();
    let incomplete = |shared| Expansion {
        shared,
        sites: Vec::new(),
        branches: Vec::new(),
        complete: false,
    };
    if h > MAX_HANGING {
        if budget.is_limited() {
            return Ok(incomplete(problem));
        }
        return Err(PricingError::LimitExceeded(format!(
            "{h} hanging attributes exceed the 2^h branch cap (max {MAX_HANGING})"
        )));
    }
    let mut stage = problem;
    let mut sites = Vec::with_capacity(h);
    while let Some(&(var, (atom_idx, pos))) = hang_sites(&stage.query).first() {
        if !budget.charge(16 + stage.instance.total_tuples() as u64) {
            return Ok(incomplete(stage));
        }
        let rel = stage.query.atoms()[atom_idx].rel;
        let attr = AttrRef::new(rel, pos as u32);
        let cover_price = stage.prices.full_cover_price(&stage.catalog, attr);
        let next = project_out(&stage, rel, atom_idx, pos, var)?;
        // A cover gives the relation out for free on one *surviving*
        // attribute — a join position where there is one, so that later
        // projections of this relation do not erase the freebie.
        let free = AttrRef::new(rel, choose_free_position(&next.query, atom_idx) as u32);
        sites.push(Site {
            cover: Cover {
                attr,
                column: stage.catalog.column(attr).clone(),
                provenance: Arc::new(stage.provenance),
            },
            cover_price,
            free,
        });
        stage = next;
    }
    // A site's projection can leave another hanging attribute's atom
    // unary, so the chain may have fewer sites than `h`.
    let h = sites.len();
    let mut expansion = Expansion {
        shared: stage,
        sites,
        branches: Vec::with_capacity(1 << h),
        complete: true,
    };
    // Counting up through the skip masks walks the branches in Step 3
    // order: site 0, the outermost, is the highest bit.
    let all = (1u32 << h) - 1;
    let mut free = Vec::with_capacity(h);
    for skipped in 0..=all {
        let covered = !skipped & all;
        if let Some(cost) = expansion.replay(covered, &mut free, |_| {}) {
            expansion.branches.push((covered, cost));
        }
    }
    Ok(expansion)
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
