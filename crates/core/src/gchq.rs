//! Generalized chain queries (Definition 3.6): atom reordering and the
//! one pipeline that prices them (Theorem 3.7). Cold pricing runs it under
//! the caller's budget as a branch and bound: the Step 3 branches are
//! solved cheapest cover first, and a branch whose cover cost alone
//! cannot beat the best finished total is skipped before it is built. A
//! [`crate::plan_cache`] build runs it under an unlimited budget, solves
//! every branch and keeps each one's network and flow, which warm
//! reprices patch and hand to the same branch-minimum rule.

use crate::budget::{Budget, Metered, QuoteQuality};
use crate::chain::graph::{with_dinic_arena, ChainGraph};
use crate::chain::price::solve_branch;
use crate::dichotomy::QueryClass;
use crate::error::PricingError;
use crate::money::Price;
use crate::normalize::step3_hanging::{cover_views, Branch, Cover};
use crate::normalize::{step1_predicates, step2_repeated, step3_hanging, Provenance};
use crate::pricer::{Pricer, PricingMethod, Quote};
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::MaxFlowResult;
use qbdp_query::analysis;
use qbdp_query::ast::ConjunctiveQuery;
use std::borrow::Cow;

/// Reorder the query's atoms into a generalized-chain order, if one exists.
/// Interpreted predicates and constants are ignored by the order search
/// (they are handled by Steps 1–2 and do not affect variable sharing). A
/// query already in chain order comes back borrowed, not copied.
pub fn reorder_to_gchq(q: &ConjunctiveQuery) -> Option<Cow<'_, ConjunctiveQuery>> {
    let order = analysis::find_gchq_order(q)?;
    if order.iter().enumerate().all(|(i, &atom)| i == atom) {
        return Some(Cow::Borrowed(q));
    }
    let atoms = order.iter().map(|&i| q.atoms()[i].clone()).collect();
    // Every check of `ConjunctiveQuery::new` is order-independent, so a
    // permutation of a valid query passes against its atoms' own schema.
    q.with_body(atoms, q.preds().to_vec(), &schema_for(q))
        .ok()
        .map(Cow::Owned)
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

/// A Step 3 branch with its Min-Cut network solved, as a plan build keeps
/// it for warm reprices.
pub(crate) struct SolvedBranch {
    /// Original views bought by the branch's full covers, resolved once
    /// when the plan is built: warm reprices re-sum the base cost from
    /// them.
    pub(crate) base_views: Vec<SelectionView>,
    /// Reduced-view → original-view mapping of the branch problem.
    pub(crate) provenance: Provenance,
    /// The branch's Step 4 network (warm starts patch its capacities).
    pub(crate) network: ChainGraph,
    /// A maximum flow of `network`.
    pub(crate) flow: MaxFlowResult,
}

impl SolvedBranch {
    /// The branch's purchase: its cover views, then its cut's.
    pub(crate) fn views(&self) -> Vec<SelectionView> {
        let mut views = self.base_views.clone();
        let cut = self.network.cut(&self.flow);
        views.extend(self.provenance.resolve_all(&cut.views));
        views
    }
}

/// What a branch buys, before provenance maps it to original views: its
/// full covers, and its min cut in the branch's reduced coordinates.
pub(crate) struct Purchase {
    covers: Vec<Cover>,
    cut: Vec<SelectionView>,
    provenance: Provenance,
}

impl Purchase {
    /// The purchase as original views: the covers', then the cut's.
    pub(crate) fn views(self) -> Vec<SelectionView> {
        let mut views = cover_views(&self.covers);
        views.extend(self.provenance.resolve_all(&self.cut));
        views
    }
}

/// Theorem 3.7's last step: the minimum over the Step 3 branches of cover
/// cost plus cut price. `W` is what the caller keeps of the cheapest
/// branch, to map to original views once every branch has been offered.
/// The winner is the earliest branch, by Step 3 index, with the minimum
/// total, whatever order the branches are offered in.
pub(crate) struct BranchMinimum<W> {
    /// The cheapest branch total so far (`INFINITE` before any finite one).
    pub(crate) price: Price,
    /// That branch's Step 3 index, and the branch as the caller keeps it.
    winner: Option<(usize, W)>,
}

impl<W> Default for BranchMinimum<W> {
    fn default() -> Self {
        BranchMinimum {
            price: Price::INFINITE,
            winner: None,
        }
    }
}

impl<W> BranchMinimum<W> {
    /// Whether branch `index` with total `total` would replace the best so
    /// far: it is strictly cheaper, or as cheap and earlier in Step 3
    /// order. Only a finite total can win.
    fn beats(&self, index: usize, total: Price) -> bool {
        total < self.price
            || (total == self.price && self.winner.as_ref().is_some_and(|(best, _)| index < *best))
    }

    /// Whether branch `index` cannot win, whatever its cut costs: a
    /// branch has already finished, and `base_cost` — a lower bound on
    /// the branch's total — does not beat it.
    pub(crate) fn prunes(&self, index: usize, base_cost: Price) -> bool {
        self.winner.is_some() && !self.beats(index, base_cost)
    }

    /// Offer solved branch `index` (its Step 3 position), whose covers
    /// cost `base_cost`; returns its total. It replaces the best so far
    /// only when it beats it (see [`BranchMinimum::prunes`]), and only
    /// then is `winner` called.
    pub(crate) fn offer(
        &mut self,
        index: usize,
        base_cost: Price,
        flow: &MaxFlowResult,
        winner: impl FnOnce() -> W,
    ) -> Price {
        let total = base_cost.saturating_add(Price::from_cut_value(flow.value));
        if self.beats(index, total) {
            self.price = total;
            self.winner = Some((index, winner()));
        }
        total
    }

    /// The exact `ChainFlow` quote of a query of class `class`: the
    /// minimum's price, and its winner's purchase mapped to original views
    /// by `views` (no views before any finite branch).
    pub(crate) fn quote(
        self,
        class: QueryClass,
        views: impl FnOnce(W) -> Vec<SelectionView>,
    ) -> Quote {
        let price = self.price;
        let mut views = self.winner.map(|(_, w)| views(w)).unwrap_or_default();
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

impl BranchMinimum<Purchase> {
    /// The cheapest branch's purchase as original views.
    pub(crate) fn views(self) -> Vec<SelectionView> {
        self.winner
            .map(|(_, purchase)| purchase.views())
            .unwrap_or_default()
    }
}

/// A GChQ run through `price_branches`.
pub(crate) struct Branches {
    /// The cheapest branch whose flow finished.
    pub(crate) minimum: BranchMinimum<Purchase>,
    /// Whether Step 3 produced every branch (always, under an unlimited
    /// budget).
    pub(crate) complete: bool,
    /// Whether every produced branch's flow finished or was pruned.
    pub(crate) finished: bool,
    /// The minimum over produced branches of their totals, or of lower
    /// bounds on them where the budget interrupted a flow. A pruned
    /// branch's total is at least the minimum's, so it cannot lower it.
    pub(crate) floor: Price,
    /// The finished branches, in Step 3 order, when the caller keeps them.
    pub(crate) kept: Vec<SolvedBranch>,
}

/// Price a non-boolean GChQ by Theorem 3.7 under `budget`: reorder, run
/// Steps 1–3, solve one Min-Cut per Step 3 branch, and take the minimum
/// over branches. Only the cheapest branch's covers and cut are mapped to
/// original views.
///
/// Without `keep` the branches are a branch and bound: they are solved in
/// ascending `(base_cost, Step 3 index)` order, and a branch that
/// [`BranchMinimum::prunes`] — its cover cost alone does not beat the
/// best finished total — is skipped before Step 3 builds it. A cut
/// costs at least zero, so a pruned branch could not have won; it spends
/// no fuel, and an exhausted branch prunes nothing. Each flow returns to
/// this thread's Dinic arena as soon as its branch is offered.
///
/// With `keep` every branch is built and solved, in Step 3 order, and comes back
/// with its network, its flow and its cover views resolved: a warm
/// reprice changes prices, so a branch that lost today may win then.
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
    let mut norm_span = qbdp_obs::trace::span("normalize");
    let problem = step1_predicates::apply_to(
        pricer.catalog().clone(),
        pricer.instance().clone(),
        pricer.prices().clone(),
        ordered,
    )?;
    let problem = step2_repeated::apply(problem)?;
    let expansion = step3_hanging::expand(problem, budget)?;
    let complete = expansion.is_complete();
    norm_span.detail(if complete {
        "steps_1_3"
    } else {
        "step3_exhausted"
    });
    norm_span.n(expansion.len() as u64);
    drop(norm_span);
    let mut run = Branches {
        minimum: BranchMinimum::default(),
        complete,
        finished: true,
        floor: Price::INFINITE,
        kept: Vec::new(),
    };
    let mut order: Vec<(usize, Price)> = (0..expansion.len())
        .map(|index| (index, expansion.base_cost(index)))
        .collect();
    if !keep {
        // Stable: equal cover costs stay in Step 3 order.
        order.sort_by_key(|&(_, base_cost)| base_cost);
    }
    // Every branch shares the Step 4 member: its chain query and partial
    // answers, built for the first branch solved.
    let shared = expansion.problem();
    let mut member = None;
    for (index, base_cost) in order {
        if !keep && run.minimum.prunes(index, base_cost) {
            continue;
        }
        let mut span = qbdp_obs::trace::span("flow_solve");
        let fuel_before = budget.consumed_fuel();
        // A branch the budget cannot build costs at least its covers.
        let metered = match expansion.build(index, budget) {
            Some(branch) => match solve_branch(shared, &branch.prices, &mut member, budget)? {
                Metered::Done(solved) => Metered::Done((branch, solved)),
                Metered::Exhausted { lower_bound } => Metered::Exhausted { lower_bound },
            },
            None => Metered::Exhausted {
                lower_bound: Price::ZERO,
            },
        };
        span.fuel(budget.consumed_fuel().saturating_sub(fuel_before));
        let (branch, (network, flow)) = match metered {
            Metered::Done(solved) => solved,
            Metered::Exhausted { lower_bound } => {
                span.detail("exhausted");
                run.finished = false;
                run.floor = run.floor.min(base_cost.saturating_add(lower_bound));
                continue;
            }
        };
        span.detail("done");
        let Branch {
            provenance, covers, ..
        } = branch;
        if !keep {
            let total = run.minimum.offer(index, base_cost, &flow, || Purchase {
                cut: network.cut(&flow).views,
                covers,
                provenance,
            });
            run.floor = run.floor.min(total);
            with_dinic_arena(|a| a.recycle(flow));
            continue;
        }
        let solved = SolvedBranch {
            base_views: cover_views(&covers),
            provenance,
            network,
            flow,
        };
        // Warm reprices re-sum the base cost from the cover views.
        debug_assert_eq!(
            base_cost,
            solved.base_views.iter().fold(Price::ZERO, |acc, v| acc
                .saturating_add(pricer.prices().get(v))),
            "cover views must re-sum to the branch base cost"
        );
        let total = run
            .minimum
            .offer(index, base_cost, &solved.flow, || Purchase {
                cut: solved.network.cut(&solved.flow).views,
                covers,
                provenance: solved.provenance.clone(),
            });
        run.floor = run.floor.min(total);
        run.kept.push(solved);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::price_points::PriceList;
    use qbdp_catalog::{tuple, AttrRef, CatalogBuilder, Column};
    use qbdp_query::chain::ChainQuery;
    use qbdp_query::parser::parse_rule;

    /// `Q(x, y) :- R(x, y)` over equal-sized columns at a uniform price:
    /// covering `R.X` (Step 3's cover branch, offered first) and buying
    /// every `R.Y` view (its skip branch) cost the same.
    #[test]
    fn tied_branches_go_to_the_earlier_with_or_without_keeping() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .build()
            .unwrap();
        let r = cat.schema().rel_id("R").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(r, [tuple![0, 1], tuple![1, 2], tuple![2, 0]])
            .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x, y)").unwrap();
        let pricer = Pricer::new(cat, d, prices).unwrap();
        let unlimited = Budget::unlimited();

        let kept = price_branches(&pricer, &q, &unlimited, true).unwrap();
        assert_eq!(kept.kept.len(), 2);
        for branch in &kept.kept {
            let base_cost = branch.base_views.iter().fold(Price::ZERO, |acc, v| {
                acc.saturating_add(pricer.prices().get(v))
            });
            let total = base_cost.saturating_add(Price::from_cut_value(branch.flow.value));
            assert_eq!(total, Price::dollars(3));
        }
        let sorted = |mut views: Vec<SelectionView>| {
            views.sort();
            views
        };
        let earlier = sorted(kept.kept[0].views());
        let later = sorted(kept.kept[1].views());
        let covers_x: Vec<SelectionView> = (0..3)
            .map(|v| SelectionView::new(AttrRef::new(r, 0), v as i64))
            .collect();
        assert_eq!(earlier, covers_x);
        assert_ne!(earlier, later);

        let cold = price_branches(&pricer, &q, &unlimited, false).unwrap();
        assert!(cold.kept.is_empty());
        assert_eq!(cold.minimum.price, Price::dollars(3));
        assert_eq!(kept.minimum.price, Price::dollars(3));
        assert_eq!(sorted(cold.minimum.views()), earlier);
        assert_eq!(sorted(kept.minimum.views()), earlier);
    }

    /// `Q(x, y) :- R(x, y)` over `{0, 1, 2}` with `R.X` views at `x`
    /// dollars each and `R.Y` views at `y`: Step 3's branch 0 covers `R.X`
    /// (cover cost `3x`, cut 0), branch 1 skips it (cover cost 0, cut
    /// `3y`). The cold path solves branch 1 first, as its cover is the
    /// cheaper; branch 0 is solved only when its cover cost could still
    /// win, and at a tie it does, as the earlier branch.
    #[test]
    fn cold_branch_and_bound_matches_the_kept_minimum() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .build()
            .unwrap();
        let r = cat.schema().rel_id("R").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(r, [tuple![0, 1], tuple![1, 2], tuple![2, 0]])
            .unwrap();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x, y)").unwrap();
        let covers_x: Vec<SelectionView> = (0..3)
            .map(|v| SelectionView::new(AttrRef::new(r, 0), v as i64))
            .collect();
        let all_y: Vec<SelectionView> = (0..3)
            .map(|v| SelectionView::new(AttrRef::new(r, 1), v as i64))
            .collect();
        let sorted = |mut views: Vec<SelectionView>| {
            views.sort();
            views
        };
        // (R.X price, R.Y price, cold flow solves, winning views)
        let cases = [
            (1, 1, 2, &covers_x),
            (1, 2, 2, &covers_x),
            (2, 1, 1, &all_y),
        ];
        for (x, y, solves, winner) in cases {
            let mut prices = PriceList::uniform(&cat, Price::dollars(y));
            for view in &covers_x {
                prices.set(view.clone(), Price::dollars(x));
            }
            let pricer = Pricer::new(cat.clone(), d.clone(), prices).unwrap();
            let unlimited = Budget::unlimited();

            let kept = price_branches(&pricer, &q, &unlimited, true).unwrap();
            assert_eq!(kept.kept.len(), 2, "keep solves every branch");
            qbdp_obs::trace::begin();
            let cold = price_branches(&pricer, &q, &unlimited, false).unwrap();
            let spans = qbdp_obs::trace::finish();
            let flows = spans.iter().filter(|s| s.name == "flow_solve").count();
            assert_eq!(flows, solves, "flow solves at x = {x}, y = {y}");
            assert!(cold.complete && cold.finished);
            assert_eq!(cold.floor, cold.minimum.price);
            let price = Price::dollars(3 * x.min(y));
            assert_eq!(cold.minimum.price, price);
            assert_eq!(kept.minimum.price, price);
            assert_eq!(sorted(kept.minimum.views()), *winner);
            assert_eq!(sorted(cold.minimum.views()), *winner);
        }
    }

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
        assert_eq!(reordered.head(), q.head());
        // A query already in chain order comes back as it is, uncopied.
        assert!(matches!(
            reorder_to_gchq(&reordered),
            Some(Cow::Borrowed(same)) if std::ptr::eq(same, &*reordered)
        ));
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
