//! Chain-query pricing: partial answers → flow graph → min-cut (Thm 3.13).

use super::graph::{with_dinic_arena, ChainGraph};
use crate::budget::{Budget, Metered};
use crate::error::PricingError;
use crate::money::Price;
use crate::normalize::Problem;
use crate::price_points::PriceList;
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::{Interrupted, MaxFlowResult};
use qbdp_query::chain::{ChainQuery, PartialAnswers};

/// Result of pricing a chain query.
#[derive(Clone, Debug)]
pub struct ChainPriceResult {
    /// The price (min-cut value); `INFINITE` when no determining set is
    /// purchasable.
    pub price: Price,
    /// The purchased views **of the reduced problem** (the min cut).
    pub cut_views: Vec<SelectionView>,
    /// The purchased views resolved through provenance to the seller's
    /// original price list.
    pub original_views: Vec<SelectionView>,
    /// Graph size, for the experiment harness: (nodes, edges).
    pub graph_size: (usize, usize),
}

/// Price a normalized chain-query problem.
///
/// The problem's query must already be a chain (Steps 1–3 applied); the
/// atoms are used in their given order.
pub fn chain_price(problem: &Problem) -> Result<ChainPriceResult, PricingError> {
    match chain_price_within(problem, &Budget::unlimited())? {
        Metered::Done(r) => Ok(r),
        Metered::Exhausted { .. } => unreachable!("unlimited budgets never exhaust"),
    }
}

/// [`chain_price`] under a [`Budget`]: the flow computation is metered
/// (each Dinic phase charges its graph-scan cost). On exhaustion no cut
/// exists yet, so there is no partial `ChainPriceResult` — instead the
/// interrupted flow value is returned as a sound **lower bound** on the
/// price (any flow under-estimates the min cut).
pub fn chain_price_within(
    problem: &Problem,
    budget: &Budget,
) -> Result<Metered<ChainPriceResult>, PricingError> {
    let (network, flow) = match solve_chain(problem, budget)? {
        Metered::Done(solved) => solved,
        Metered::Exhausted { lower_bound } => return Ok(Metered::Exhausted { lower_bound }),
    };
    let cut = network.cut(&flow);
    with_dinic_arena(|a| a.recycle(flow));
    Ok(Metered::Done(ChainPriceResult {
        price: cut.price,
        original_views: problem.provenance.resolve_all(&cut.views),
        cut_views: cut.views,
        graph_size: (network.graph.num_nodes(), network.graph.num_edges()),
    }))
}

/// Build the Step 4 network of a normalized chain problem and solve it on
/// this thread's Dinic arena under `budget`. Building the partial answers
/// and the network scans the instance once and is charged as such.
pub(crate) fn solve_chain(
    problem: &Problem,
    budget: &Budget,
) -> Result<Metered<(ChainGraph, MaxFlowResult)>, PricingError> {
    solve_branch(problem, &problem.prices, &mut None, budget)
}

/// A chain problem's Step 4 member: its chain query and partial answers.
/// Both depend only on the catalog, instance and query, so every Step 3
/// branch of one problem shares them.
pub(crate) type ChainMember = [(ChainQuery, PartialAnswers); 1];

/// [`solve_chain`] for `shared`'s catalog, instance and query priced by
/// `prices` (a Step 3 branch's). The member is built on the first call
/// and kept in `member` for the next; each call is charged the instance
/// scan, as one branch's network.
pub(crate) fn solve_branch(
    shared: &Problem,
    prices: &PriceList,
    member: &mut Option<ChainMember>,
    budget: &Budget,
) -> Result<Metered<(ChainGraph, MaxFlowResult)>, PricingError> {
    if !budget.charge(64 + shared.instance.total_tuples() as u64) {
        return Ok(Metered::Exhausted {
            lower_bound: Price::ZERO,
        });
    }
    let member = match member {
        Some(member) => member,
        None => {
            let chain = ChainQuery::from_cq(&shared.query)
                .map_err(|e| PricingError::NotApplicable(e.to_string()))?;
            let span = qbdp_obs::trace::span("partial_answers");
            let pa = chain.partial_answers(&shared.catalog, &shared.instance);
            drop(span);
            member.insert([(chain, pa)])
        }
    };
    let span = qbdp_obs::trace::span("flow_build");
    let network = ChainGraph::build(&shared.catalog, prices, member, None);
    drop(span);
    Ok(match network.solve(budget) {
        Ok(flow) => Metered::Done((network, flow)),
        // Flow never exceeds the min cut, so the partial value is a sound
        // lower bound on the price.
        Err(Interrupted { partial_value }) => Metered::Exhausted {
            lower_bound: Price::from_cut_value(partial_value),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::multi_attr::{multi_attr_chain_price, PairPriceList};
    use crate::price_points::PriceList;
    use qbdp_catalog::{tuple, CatalogBuilder, Column};
    use qbdp_query::parser::parse_rule;

    #[test]
    fn figure1_end_to_end() {
        let ax = Column::texts(["a1", "a2", "a3", "a4"]);
        let by = Column::texts(["b1", "b2", "b3"]);
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", ax.clone())])
            .relation("S", &[("X", ax), ("Y", by.clone())])
            .relation("T", &[("Y", by)])
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(
            cat.schema().rel_id("R").unwrap(),
            [tuple!["a1"], tuple!["a2"]],
        )
        .unwrap();
        d.insert_all(
            cat.schema().rel_id("S").unwrap(),
            [
                tuple!["a1", "b1"],
                tuple!["a1", "b2"],
                tuple!["a2", "b2"],
                tuple!["a4", "b1"],
            ],
        )
        .unwrap();
        d.insert_all(
            cat.schema().rel_id("T").unwrap(),
            [tuple!["b1"], tuple!["b3"]],
        )
        .unwrap();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let problem = Problem::new(cat, d, prices, q);
        let r = chain_price(&problem).unwrap();
        assert_eq!(r.price, Price::dollars(6));
        assert_eq!(r.cut_views.len(), 6);
        assert_eq!(r.original_views.len(), 6); // identity provenance
                                               // The literal Θ(n²) construction agrees.
        let literal = multi_attr_chain_price(&problem, &PairPriceList::new()).unwrap();
        assert_eq!(literal.price, Price::dollars(6));
        assert_eq!(literal.views.len(), 6);
    }

    #[test]
    fn empty_database_prices_emptiness_certificate() {
        // With D = ∅ every assignment is a non-answer whose S-tuple is
        // missing; cutting, e.g., all of S.X blocks everything.
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("T", &["Y"], &col)
            .build()
            .unwrap();
        let d = cat.empty_instance();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let problem = Problem::new(cat, d, prices, q);
        let r = chain_price(&problem).unwrap();
        // The cheapest certificate of emptiness: any full column of one
        // relation… but partial covers can be cheaper. Here R(D) = ∅ and
        // Lt_1 = ∅, so paths only exist via s → v_{R.X=a} (Lt_0 = Col) and
        // must cross R's view edges: cutting all of R.X at $3 suffices —
        // and nothing cheaper does, since all three R.X paths are disjoint.
        assert_eq!(r.price, Price::dollars(3));
    }

    #[test]
    fn non_chain_is_rejected() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .uniform_relation("T", &["X"], &col)
            .build()
            .unwrap();
        let d = cat.empty_instance();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x, y), T(x)").unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let problem = Problem::new(cat, d, prices, q);
        assert!(matches!(
            chain_price(&problem),
            Err(PricingError::NotApplicable(_))
        ));
    }
}
