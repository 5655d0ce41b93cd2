//! Generalized chain queries (Definition 3.6): atom reordering and the
//! one pipeline that prices them (Theorem 3.7). Cold pricing runs it under
//! the caller's budget; a [`crate::plan_cache`] build runs it under an
//! unlimited budget and keeps each branch's network and flow, which warm
//! reprices patch and hand to the same branch-minimum rule.

use crate::budget::{Budget, Metered, QuoteQuality};
use crate::chain::graph::{with_dinic_arena, ChainGraph};
use crate::chain::price::solve_chain;
use crate::dichotomy::QueryClass;
use crate::error::PricingError;
use crate::money::Price;
use crate::normalize::{step1_predicates, step2_repeated, step3_hanging, Problem, Provenance};
use crate::pricer::{Pricer, PricingMethod, Quote};
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::MaxFlowResult;
use qbdp_query::analysis;
use qbdp_query::ast::ConjunctiveQuery;
use std::sync::Arc;

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
    // audit: bounded(one slot per relation id up to the query's largest)
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

/// A Step 3 branch with its Min-Cut network solved.
pub(crate) struct SolvedBranch {
    /// Original views bought by the branch's full covers; their prices
    /// sum to the branch's base cost. Shared with the branch minimum, which
    /// copies them only if it outlives the branch.
    pub(crate) base_views: Arc<Vec<SelectionView>>,
    /// Reduced-view → original-view mapping of the branch problem.
    pub(crate) provenance: Provenance,
    /// The branch's Step 4 network (warm starts patch its capacities).
    pub(crate) network: ChainGraph,
    /// A maximum flow of `network`.
    pub(crate) flow: MaxFlowResult,
}

/// Theorem 3.7's last step: the minimum over the Step 3 branches of cover
/// cost plus cut price, and the purchase that realizes it.
pub(crate) struct BranchMinimum {
    /// The cheapest branch total so far (`INFINITE` before any finite one).
    pub(crate) price: Price,
    /// That branch's cover views.
    base_views: Arc<Vec<SelectionView>>,
    /// That branch's cut, resolved to original views.
    cut_views: Vec<SelectionView>,
}

impl Default for BranchMinimum {
    fn default() -> Self {
        BranchMinimum {
            price: Price::INFINITE,
            base_views: Arc::default(),
            cut_views: Vec::new(),
        }
    }
}

impl BranchMinimum {
    /// Offer a solved branch whose covers cost `base_cost`; returns its
    /// total. It replaces the best so far only when strictly cheaper (ties
    /// go to the earlier branch), and only then is its cut mapped through
    /// provenance to original views.
    pub(crate) fn offer(&mut self, base_cost: Price, branch: &SolvedBranch) -> Price {
        let total = base_cost.saturating_add(Price::from_cut_value(branch.flow.value));
        if total < self.price {
            self.price = total;
            self.base_views = Arc::clone(&branch.base_views);
            let cut = branch.network.cut(&branch.flow);
            self.cut_views = branch.provenance.resolve_all(&cut.views);
        }
        total
    }

    /// The cheapest branch's purchase: its cover views, then its cut's.
    pub(crate) fn views(self) -> Vec<SelectionView> {
        let mut views = Arc::unwrap_or_clone(self.base_views);
        views.extend(self.cut_views);
        views
    }

    /// The exact `ChainFlow` quote of a query of class `class`.
    pub(crate) fn quote(self, class: QueryClass) -> Quote {
        let price = self.price;
        let mut views = self.views();
        views.sort();
        views.dedup();
        Quote {
            price,
            views,
            method: PricingMethod::ChainFlow,
            class,
            quality: QuoteQuality::Exact,
            lower_bound: price,
        }
    }
}

/// A GChQ run through `price_branches`.
pub(crate) struct Branches {
    /// The cheapest branch whose flow finished.
    pub(crate) minimum: BranchMinimum,
    /// Whether Step 3 produced every branch (always, under an unlimited
    /// budget).
    pub(crate) complete: bool,
    /// Whether every produced branch's flow finished.
    pub(crate) finished: bool,
    /// The minimum over produced branches of their totals, or of lower
    /// bounds on them where the budget interrupted a flow.
    pub(crate) floor: Price,
    /// The finished branches, in Step 3 order, when the caller keeps them.
    pub(crate) kept: Vec<SolvedBranch>,
}

/// Price a non-boolean GChQ by Theorem 3.7 under `budget`: reorder, run
/// Steps 1–3, solve one Min-Cut per Step 3 branch, and take the minimum
/// over branches. With `keep` every finished branch comes back with its
/// network and flow; otherwise each flow returns to this thread's Dinic
/// arena as soon as its branch is offered.
pub(crate) fn price_branches(
    pricer: &Pricer,
    q: &ConjunctiveQuery,
    budget: &Budget,
    keep: bool,
) -> Result<Branches, PricingError> {
    let ordered = reorder_to_gchq(q).ok_or_else(|| {
        PricingError::NotApplicable(format!(
            "query {} classified GChQ but no chain order found",
            q.name()
        ))
    })?;
    let problem = Problem::new(
        pricer.catalog().clone(),
        pricer.instance().clone(),
        pricer.prices().clone(),
        ordered,
    );
    let mut norm_span = qbdp_obs::trace::span("normalize");
    let problem = step1_predicates::apply(problem)?;
    let problem = step2_repeated::apply(problem)?;
    let (branches, complete) = step3_hanging::branches_within(problem, budget)?;
    norm_span.detail(if complete {
        "steps_1_3"
    } else {
        "step3_exhausted"
    });
    norm_span.n(branches.len() as u64);
    drop(norm_span);
    let mut run = Branches {
        minimum: BranchMinimum::default(),
        complete,
        finished: true,
        floor: Price::INFINITE,
        kept: Vec::new(),
    };
    for branch in branches {
        let mut span = qbdp_obs::trace::span("flow_solve");
        let fuel_before = budget.consumed_fuel();
        let metered = solve_chain(&branch.problem, budget)?;
        span.fuel(budget.consumed_fuel().saturating_sub(fuel_before));
        let (network, flow) = match metered {
            Metered::Done(solved) => solved,
            Metered::Exhausted { lower_bound } => {
                span.detail("exhausted");
                run.finished = false;
                run.floor = run.floor.min(branch.base_cost.saturating_add(lower_bound));
                continue;
            }
        };
        span.detail("done");
        let solved = SolvedBranch {
            base_views: Arc::new(branch.base_views),
            provenance: branch.problem.provenance,
            network,
            flow,
        };
        run.floor = run.floor.min(run.minimum.offer(branch.base_cost, &solved));
        if !keep {
            with_dinic_arena(|a| a.recycle(solved.flow));
            continue;
        }
        // Warm reprices re-sum the base cost from the cover views.
        debug_assert_eq!(
            branch.base_cost,
            solved.base_views.iter().fold(Price::ZERO, |acc, v| acc
                .saturating_add(pricer.prices().get(v))),
            "cover views must re-sum to the branch base cost"
        );
        run.kept.push(solved);
    }
    Ok(run)
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
