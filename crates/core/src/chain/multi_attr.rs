//! §4 extension: explicit prices on **multi-attribute selections**
//! `σ_{R.X=a, R.Y=b}` for chain queries.
//!
//! The paper notes that for chain queries this only requires re-weighting
//! the flow graph: the tuple edge `w_{R.X=a} → v_{R.Y=b}` gets capacity
//! `p(σ_{R.X=a,R.Y=b})` instead of ∞ (a pair view covers exactly the tuple
//! `(a, b)`). Those tuple edges are the §4 arm of [`ChainGraph::build`],
//! selected by passing a [`PairPriceList`]; with an empty list they are the
//! paper's literal all-pairs construction. For *generalized* chain queries
//! the extension is NP-hard even for `Q(x,y,z) = R(x,y,z)` — demonstrated
//! in experiment E10 with the exact engine.

use super::graph::ChainGraph;
use crate::error::PricingError;
use crate::money::Price;
use crate::normalize::Problem;
use qbdp_catalog::{FxHashMap, RelId, Value};
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::Unmetered;
use qbdp_query::chain::ChainQuery;

/// A pair selection view `σ_{R.X=a, R.Y=b}` on a binary relation (the two
/// attributes are the relation's chain-left and chain-right positions).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairView {
    /// The relation.
    pub rel: RelId,
    /// Value at the chain-left attribute.
    pub left: Value,
    /// Value at the chain-right attribute.
    pub right: Value,
}

/// Prices for pair views; unpriced pairs are not for sale (∞ tuple edges,
/// exactly the plain construction). Keyed by relation, then left value,
/// then right value, so a lookup borrows both values.
#[derive(Clone, Debug, Default)]
pub struct PairPriceList {
    prices: FxHashMap<RelId, FxHashMap<Value, FxHashMap<Value, Price>>>,
}

impl PairPriceList {
    /// An empty pair list.
    pub fn new() -> Self {
        PairPriceList::default()
    }

    /// Price a pair view.
    pub fn set(&mut self, rel: RelId, left: Value, right: Value, price: Price) -> &mut Self {
        self.prices
            .entry(rel)
            .or_default()
            .entry(left)
            .or_default()
            .insert(right, price);
        self
    }

    /// The price of a pair view (∞ when unpriced).
    pub fn get(&self, rel: RelId, left: &Value, right: &Value) -> Price {
        if self.prices.is_empty() {
            return Price::INFINITE;
        }
        self.prices
            .get(&rel)
            .and_then(|lefts| lefts.get(left))
            .and_then(|rights| rights.get(right))
            .copied()
            .unwrap_or(Price::INFINITE)
    }

    /// Number of priced pairs.
    pub fn len(&self) -> usize {
        self.prices
            .values()
            .flat_map(|lefts| lefts.values())
            .map(|rights| rights.len())
            .sum()
    }

    /// Whether no pair is priced.
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }
}

/// Result of pricing a chain query with mixed single+pair price points.
#[derive(Clone, Debug)]
pub struct MultiAttrResult {
    /// The price.
    pub price: Price,
    /// Purchased single-attribute views.
    pub views: Vec<SelectionView>,
    /// Purchased pair views.
    pub pair_views: Vec<PairView>,
    /// Graph size `(nodes, edges)`.
    pub graph_size: (usize, usize),
}

/// Price a chain query whose price points include both single selections
/// (in `problem.prices`) and pair selections (`pairs`), on the literal
/// construction with tuple-edge capacities set to the pair prices.
pub fn multi_attr_chain_price(
    problem: &Problem,
    pairs: &PairPriceList,
) -> Result<MultiAttrResult, PricingError> {
    let chain = ChainQuery::from_cq(&problem.query)
        .map_err(|e| PricingError::NotApplicable(e.to_string()))?;
    let pa = chain.partial_answers(&problem.catalog, &problem.instance);
    let cg = ChainGraph::build(
        &problem.catalog,
        &problem.prices,
        &[(chain, pa)],
        Some(pairs),
    );
    let flow = cg
        .solve(&Unmetered)
        .map_err(|_| PricingError::Internal("unmetered max flow interrupted".into()))?;
    let cut = cg.cut(&flow);
    Ok(MultiAttrResult {
        price: cut.price,
        views: cut.views,
        pair_views: cut.pair_views,
        graph_size: (cg.graph.num_nodes(), cg.graph.num_edges()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::price_points::PriceList;
    use qbdp_catalog::{tuple, CatalogBuilder, Column};
    use qbdp_query::parser::parse_rule;

    /// R(x), S(x,y), T(y) over tiny columns; a cheap pair view should beat
    /// single-attribute cuts where a single missing tuple must be excluded.
    #[test]
    fn pair_views_enable_cheaper_cuts() {
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("T", &["Y"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        // R and T full; S = {(0,0)}: answers {(0,0)}; non-answers need the
        // missing S tuples excluded or an R/T tuple excluded — but R/T are
        // full and (their tuples being present) can only be "secured", not
        // removed... pricing decides.
        d.insert_all(cat.schema().rel_id("R").unwrap(), [tuple![0], tuple![1]])
            .unwrap();
        d.insert_all(cat.schema().rel_id("T").unwrap(), [tuple![0], tuple![1]])
            .unwrap();
        d.insert(cat.schema().rel_id("S").unwrap(), tuple![0, 0])
            .unwrap();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let s_rel = cat.schema().rel_id("S").unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(10));
        let problem = Problem::new(cat, d, prices, q);

        // Without pairs.
        let base = multi_attr_chain_price(&problem, &PairPriceList::new()).unwrap();
        // With dirt-cheap pair views on every S cell.
        let mut pairs = PairPriceList::new();
        for a in 0..2 {
            for b in 0..2 {
                pairs.set(s_rel, Value::Int(a), Value::Int(b), Price::dollars(1));
            }
        }
        let with_pairs = multi_attr_chain_price(&problem, &pairs).unwrap();
        assert!(
            with_pairs.price < base.price,
            "{} !< {}",
            with_pairs.price,
            base.price
        );
        assert!(!with_pairs.pair_views.is_empty());
    }

    #[test]
    fn no_pairs_matches_plain_construction() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .uniform_relation("T", &["Y"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(cat.schema().rel_id("R").unwrap(), [tuple![0]])
            .unwrap();
        d.insert_all(
            cat.schema().rel_id("S").unwrap(),
            [tuple![0, 1], tuple![2, 2]],
        )
        .unwrap();
        d.insert_all(cat.schema().rel_id("T").unwrap(), [tuple![1]])
            .unwrap();
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let problem = Problem::new(cat, d, prices, q);
        let plain = crate::chain::price::chain_price(&problem).unwrap();
        let multi = multi_attr_chain_price(&problem, &PairPriceList::new()).unwrap();
        assert_eq!(plain.price, multi.price);
        assert!(multi.pair_views.is_empty());
    }

    use qbdp_catalog::Value;
}
