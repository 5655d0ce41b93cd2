//! The flow graph of the Step 4 reduction.
//!
//! For a chain query `Q = R_0, …, R_k` the paper builds a graph whose
//! finite-capacity edges correspond one-to-one to the selection views in
//! `S`, and whose s–t cuts correspond to determining view sets:
//!
//! * **view edges** `v_{R.X=a} → w_{R.X=a}` with capacity `p(σ_{R.X=a})`
//!   (∞ when unpriced);
//! * **tuple edges** `w_{R.X=a} → v_{R.Y=b}` with capacity ∞ for **every**
//!   pair `(a, b)` of column values of a binary atom;
//! * **skip edges** (∞) jumping over partial answers:
//!   `s → v_{R_i.X=a}` for `a ∈ Lt_i`,
//!   `w_{R_{i-1}.Y=b} → v_{R_{j+1}.X=a}` for `(b, a) ∈ Md[i:j]`, and
//!   `w_{R_j.Y=b} → t` for `b ∈ Rt_j`.
//!
//! The minimum cut equals the price (Theorem 3.13), and the cut's view
//! edges are the views the savvy buyer purchases.
//!
//! [`ChainGraph::build`] is the only code that builds this network. It
//! takes a list of chains: one for a query, several for a Definition 3.9
//! bundle, whose members share view edges (one per attribute value) and
//! tuple edges (once per binary relation) and add their own skip edges.
//!
//! ## Tuple edges
//!
//! The literal construction creates `Θ(n²)` tuple edges per binary atom.
//! Without pair prices the builder replaces them with a relay node
//! (`w_{R.X=a} → hub_R → v_{R.Y=b}`, `Θ(n)` edges): all-infinite capacities
//! make the two constructions cut-equivalent. With a
//! [`PairPriceList`] (§4) it builds the literal edges, each with its pair's
//! price as capacity; an empty list is therefore the paper's literal
//! construction, the oracle the hub construction is tested and measured
//! against (experiment E12).

use super::multi_attr::{PairPriceList, PairView};
use crate::money::Price;
use crate::price_points::PriceList;
use qbdp_catalog::{AttrRef, Catalog, Column, FxHashMap, FxHashSet, RelId, Value};
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::{DinicArena, EdgeId, FlowGraph, Interrupted, MaxFlowResult, NodeId, Ticker, INF};
use qbdp_query::chain::{ChainQuery, PartialAnswers};
use std::cell::RefCell;
use std::collections::hash_map::Entry;

thread_local! {
    /// One Dinic arena per thread: batch-pricing workers (and the serial
    /// path alike) reuse the solver's scratch allocations across every
    /// quote they price — cold or through the plan cache — instead of
    /// rebuilding them per flow run.
    static DINIC_ARENA: RefCell<DinicArena> = RefCell::new(DinicArena::new());
}

/// Run `f` on this thread's Dinic arena — the one [`ChainGraph::solve`]
/// uses, shared with the plan cache's warm starts.
pub(crate) fn with_dinic_arena<R>(f: impl FnOnce(&mut DinicArena) -> R) -> R {
    DINIC_ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// The constructed flow network plus the edge ↔ view correspondence.
pub struct ChainGraph {
    /// The network.
    pub graph: FlowGraph,
    /// Source node.
    pub s: NodeId,
    /// Sink node.
    pub t: NodeId,
    /// Forward edge id → the selection view it represents (finite-priced
    /// views only; unpriced views become ∞ edges and are not listed).
    pub view_edges: FxHashMap<EdgeId, SelectionView>,
    /// Forward edge id → the priced pair view its tuple edge represents
    /// (§4; empty unless built with pair prices).
    pub pair_edges: FxHashMap<EdgeId, PairView>,
}

/// A solved [`ChainGraph`]: the min-cut value and the views it cuts.
#[derive(Clone, Debug)]
pub struct ChainCut {
    /// The min-cut value; `INFINITE` when no determining set is
    /// purchasable.
    pub price: Price,
    /// The cut's selection views (empty when the price is infinite).
    pub views: Vec<SelectionView>,
    /// The cut's pair views (empty when the price is infinite).
    pub pair_views: Vec<PairView>,
}

/// One attribute block: node ids for `v_{attr=a}` / `w_{attr=a}` by the
/// dense index of `a` in the attribute's column.
struct AttrBlock<'a> {
    col: &'a Column,
    /// `v` node of value index `i` is `base + 2i`; `w` is `base + 2i + 1`.
    base: NodeId,
}

impl AttrBlock<'_> {
    fn v(&self, value: &Value) -> Option<NodeId> {
        self.col.index_of(value).map(|i| self.base + 2 * i as usize)
    }
    fn w(&self, value: &Value) -> Option<NodeId> {
        self.col
            .index_of(value)
            .map(|i| self.base + 2 * i as usize + 1)
    }
}

impl ChainGraph {
    /// Build the Step 4 graph for one chain query or a Definition 3.9
    /// bundle of them, each with its partial answers. `pairs` selects the
    /// tuple edges: `None` relays them through a hub per binary relation,
    /// `Some` builds one edge per column pair priced at its pair view.
    ///
    /// Blocks are allocated first, then tuple edges, then skip edges, so a
    /// single chain's node and edge numbering follows its atom order.
    pub fn build(
        catalog: &Catalog,
        prices: &PriceList,
        members: &[(ChainQuery, PartialAnswers)],
        pairs: Option<&PairPriceList>,
    ) -> ChainGraph {
        let mut g = FlowGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        let mut view_edges: FxHashMap<EdgeId, SelectionView> = FxHashMap::default();
        let mut pair_edges: FxHashMap<EdgeId, PairView> = FxHashMap::default();

        // One block per attribute, with its view edges. A unary atom's two
        // sides are one attribute; relations never repeat within a chain,
        // and bundle members share them only in a common prefix or suffix.
        let mut blocks: FxHashMap<AttrRef, AttrBlock> = FxHashMap::default();
        for (chain, _) in members {
            for i in 0..=chain.k() {
                for attr in [chain.left_attr(i), chain.right_attr(i)] {
                    let Entry::Vacant(slot) = blocks.entry(attr) else {
                        continue;
                    };
                    let col = catalog.column(attr);
                    let base = g.add_nodes(2 * col.len());
                    for (vi, value) in col.iter().enumerate() {
                        let price = prices.get_at(attr, value);
                        let e = g.add_edge(base + 2 * vi, base + 2 * vi + 1, price.as_capacity());
                        if price.is_finite() {
                            view_edges.insert(e, SelectionView::new(attr, value.clone()));
                        }
                    }
                    slot.insert(AttrBlock { col, base });
                }
            }
        }

        // Tuple edges, once per binary relation.
        let mut tupled: FxHashSet<RelId> = FxHashSet::default();
        for (chain, _) in members {
            for (i, atom) in chain.atoms().iter().enumerate() {
                if atom.unary || !tupled.insert(atom.rel) {
                    continue;
                }
                let lb = &blocks[&chain.left_attr(i)];
                let rb = &blocks[&chain.right_attr(i)];
                let Some(pairs) = pairs else {
                    let hub = g.add_node();
                    for ai in 0..lb.col.len() {
                        g.add_edge(lb.base + 2 * ai + 1, hub, INF);
                    }
                    for bi in 0..rb.col.len() {
                        g.add_edge(hub, rb.base + 2 * bi, INF);
                    }
                    continue;
                };
                for (ai, a) in lb.col.iter().enumerate() {
                    for (bi, b) in rb.col.iter().enumerate() {
                        let price = pairs.get(atom.rel, a, b);
                        let e =
                            g.add_edge(lb.base + 2 * ai + 1, rb.base + 2 * bi, price.as_capacity());
                        if price.is_finite() {
                            let (rel, left, right) = (atom.rel, a.clone(), b.clone());
                            pair_edges.insert(e, PairView { rel, left, right });
                        }
                    }
                }
            }
        }

        // Skip edges, per member (a bundle's shared prefix or suffix adds
        // parallel ∞ edges, which cannot affect the cut).
        for (chain, pa) in members {
            let k = chain.k();
            let left = |i: usize| &blocks[&chain.left_attr(i)];
            let right = |i: usize| &blocks[&chain.right_attr(i)];
            // s → v_{R_i.X=a} for a ∈ Lt_i.
            for i in 0..=k {
                let to = left(i);
                for v in pa.lt(i).iter().filter_map(|a| to.v(a)) {
                    g.add_edge(s, v, INF);
                }
            }
            // w_{R_j.Y=b} → t for b ∈ Rt_j.
            for j in 0..=k {
                let from = right(j);
                for w in pa.rt(j).iter().filter_map(|b| from.w(b)) {
                    g.add_edge(w, t, INF);
                }
            }
            // w_{R_{i-1}.Y=b} → v_{R_{j+1}.X=a} for (b, a) ∈ Md[i:j].
            for i in 1..=k {
                for j in (i - 1)..k {
                    let (from, to) = (right(i - 1), left(j + 1));
                    for (b, a) in pa.md(i, j) {
                        if let (Some(w), Some(v)) = (from.w(b), to.v(a)) {
                            g.add_edge(w, v, INF);
                        }
                    }
                }
            }
        }

        ChainGraph {
            graph: g,
            s,
            t,
            view_edges,
            pair_edges,
        }
    }

    /// Solve the network on this thread's Dinic arena under `ticker`. On
    /// interruption the partial flow value is a sound lower bound on the
    /// price.
    pub fn solve(&self, ticker: &impl Ticker) -> Result<MaxFlowResult, Interrupted> {
        with_dinic_arena(|a| a.max_flow(&self.graph, self.s, self.t, ticker))
    }

    /// Map the canonical min cut of `flow`, a maximum flow of this network,
    /// to the views it purchases. Panics in debug builds if the cut holds a
    /// finite edge that is neither a view nor a pair view (that would
    /// contradict Theorem 3.13).
    pub fn cut(&self, flow: &MaxFlowResult) -> ChainCut {
        let mut cut = ChainCut {
            price: Price::from_cut_value(flow.value),
            views: Vec::new(),
            pair_views: Vec::new(),
        };
        if cut.price.is_finite() {
            for e in flow.min_cut_edges(&self.graph, self.s) {
                if let Some(view) = self.view_edges.get(&e) {
                    cut.views.push(view.clone());
                } else if let Some(pair) = self.pair_edges.get(&e) {
                    cut.pair_views.push(pair.clone());
                } else {
                    debug_assert!(self.graph.edge(e).2 >= INF, "finite non-view edge in cut");
                }
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{tuple, CatalogBuilder, Instance};
    use qbdp_flow::Unmetered;
    use qbdp_query::parser::parse_rule;

    fn figure1() -> (Catalog, Instance, ChainQuery, PartialAnswers) {
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
        let q = parse_rule(cat.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let chain = ChainQuery::from_cq(&q).unwrap();
        let pa = chain.partial_answers(&cat, &d);
        (cat, d, chain, pa)
    }

    /// The hub network and the literal `Θ(n²)` one (an empty pair list).
    fn both(
        cat: &Catalog,
        prices: &PriceList,
        members: &[(ChainQuery, PartialAnswers)],
    ) -> [ChainGraph; 2] {
        [
            ChainGraph::build(cat, prices, members, None),
            ChainGraph::build(cat, prices, members, Some(&PairPriceList::new())),
        ]
    }

    #[test]
    fn figure1_min_cut_is_six() {
        let (cat, _d, chain, pa) = figure1();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        for (label, cg) in ["hub", "literal"]
            .into_iter()
            .zip(both(&cat, &prices, &[(chain, pa)]))
        {
            let cut = cg.cut(&cg.solve(&Unmetered).unwrap());
            assert_eq!(cut.price, Price::dollars(6), "{label}");
            assert_eq!(cut.views.len(), 6, "{label}");
            assert!(cut.pair_views.is_empty(), "{label}");
            let weight: Price = cut.views.iter().map(|v| prices.get(v)).sum();
            assert_eq!(weight, Price::dollars(6), "{label}");
            // The minimal set from Example 3.8.
            let names: std::collections::BTreeSet<String> =
                cut.views.iter().map(|v| v.display(cat.schema())).collect();
            let expected: std::collections::BTreeSet<String> = [
                "σ[R.X=a1]",
                "σ[R.X=a4]",
                "σ[S.Y=b1]",
                "σ[S.Y=b3]",
                "σ[T.Y=b1]",
                "σ[T.Y=b2]",
            ]
            .into_iter()
            .map(String::from)
            .collect();
            assert_eq!(names, expected, "{label}");
        }
    }

    #[test]
    fn node_and_edge_counts_scale_as_documented() {
        let (cat, _d, chain, pa) = figure1();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let [hub, literal] = both(&cat, &prices, &[(chain, pa)]);
        // Same node count ± hubs (1 binary atom).
        assert_eq!(hub.graph.num_nodes(), literal.graph.num_nodes() + 1);
        // Literal has 4·3 = 12 tuple edges; hub has 4 + 3 = 7.
        assert_eq!(literal.graph.num_edges() - hub.graph.num_edges(), 12 - 7);
        // View edges: 14 priced views (4 + 4 + 3 + 3).
        assert_eq!(literal.view_edges.len(), 14);
        assert_eq!(hub.view_edges.len(), 14);
        // No pair is priced, so no tuple edge is finite.
        assert!(literal.pair_edges.is_empty());
    }

    #[test]
    fn unpriced_views_are_uncuttable() {
        let (cat, _d, chain, pa) = figure1();
        // Price only S views: R and T unpriced ⇒ no finite cut.
        let mut prices = PriceList::new();
        let sx = cat.schema().resolve_attr("S.X").unwrap();
        let sy = cat.schema().resolve_attr("S.Y").unwrap();
        prices.set_attr_uniform(&cat, sx, Price::dollars(1));
        prices.set_attr_uniform(&cat, sy, Price::dollars(1));
        let cg = ChainGraph::build(&cat, &prices, &[(chain, pa)], None);
        assert!(cg.cut(&cg.solve(&Unmetered).unwrap()).price.is_infinite());
    }
}
