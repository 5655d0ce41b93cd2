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
//!
//! ## Layout
//!
//! Nothing here hashes or clones a value per priced view or per skip
//! edge. Each attribute is one block of nodes and view edges laid out by
//! the dense index of its column values, so a view edge's id decodes to
//! its view through the short block table, in edge order. The partial
//! answers arrive as dense indices of the position columns `Col_{x_i}`;
//! a position column that is a true intersection is translated into each
//! neighbouring attribute's block once, by one merge of two sorted
//! columns, and otherwise its indices are the block's. The one lookup per
//! view is its price.

use super::multi_attr::{PairPriceList, PairView};
use crate::money::Price;
use crate::price_points::PriceList;
use qbdp_catalog::{AttrRef, Catalog, Column, FxHashMap, FxHashSet, RelId, Value};
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::{DinicArena, EdgeId, FlowGraph, Interrupted, MaxFlowResult, NodeId, Ticker, INF};
use qbdp_query::chain::{ChainQuery, PartialAnswers};
use std::cell::RefCell;

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
    /// One block per attribute, in node and edge order; a view edge's
    /// block and value index decode its selection view.
    blocks: Vec<AttrBlock>,
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

/// One attribute block: for the value of dense index `i` in the
/// attribute's column, node `v_{attr=a}` is `base + 2i`, `w_{attr=a}` is
/// `base + 2i + 1`, and the view edge `v → w` is `first + 2i`.
struct AttrBlock {
    attr: AttrRef,
    col: Column,
    base: NodeId,
    first: EdgeId,
}

impl AttrBlock {
    fn v(&self, i: u32) -> NodeId {
        self.base + 2 * i as usize
    }
    fn w(&self, i: u32) -> NodeId {
        self.base + 2 * i as usize + 1
    }
}

/// For each `(pos, col)` — a position column of the chain and the column
/// of an attribute beside it, which holds every value of `pos` — the
/// dense index in `col` of each value of `pos`, or `None` when the two
/// hold the same values (equal sizes) and the index carries over. Empty
/// when every index carries over.
fn embeddings<'a>(
    sides: impl Iterator<Item = (&'a Column, &'a Column)> + Clone,
) -> Vec<Option<Vec<u32>>> {
    if sides.clone().all(|(pos, col)| pos.len() == col.len()) {
        return Vec::new();
    }
    sides
        .map(|(pos, col)| {
            if pos.len() == col.len() {
                return None;
            }
            let within = col.as_slice();
            let mut at = 0;
            let mut out = Vec::with_capacity(pos.len());
            for v in pos.iter() {
                while within[at] < *v {
                    at += 1;
                }
                debug_assert!(
                    within[at] == *v,
                    "a position column lies within its attribute's"
                );
                out.push(at as u32);
            }
            Some(out)
        })
        .collect()
}

/// Map index `i` of the `p`-th position column through its
/// [`embeddings`].
fn embed(maps: &[Option<Vec<u32>>], p: usize, i: u32) -> u32 {
    match maps.get(p) {
        Some(Some(m)) => m[i as usize],
        _ => i,
    }
}

/// The number of skip edges of one member: one per entry of its `Lt`,
/// `Rt` and `Md` tables.
fn skip_edges(pa: &PartialAnswers) -> usize {
    let k = pa.k();
    let ends: usize = (0..=k).map(|i| pa.lt(i).len() + pa.rt(i).len()).sum();
    let middles: usize = (1..=k)
        .flat_map(|i| (i - 1..k).map(move |j| pa.md(i, j).len()))
        .sum();
    ends + middles
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
        let mut pair_edges: FxHashMap<EdgeId, PairView> = FxHashMap::default();

        // One block per attribute. A unary atom's two sides are one
        // attribute; relations never repeat within a chain, and bundle
        // members share them only in a common prefix or suffix.
        let mut blocks: Vec<AttrBlock> = Vec::new();
        let mut views = 0;
        for (chain, _) in members {
            for i in 0..=chain.k() {
                for attr in [chain.left_attr(i), chain.right_attr(i)] {
                    if blocks.iter().any(|b| b.attr == attr) {
                        continue;
                    }
                    let col = catalog.column(attr).clone();
                    let (base, first) = (g.add_nodes(2 * col.len()), 2 * views);
                    views += col.len();
                    blocks.push(AttrBlock {
                        attr,
                        col,
                        base,
                        first,
                    });
                }
            }
        }
        // The view and skip edges are counted up front; tuple edges grow
        // the lists as they come.
        let skips: usize = members.iter().map(|(_, pa)| skip_edges(pa)).sum();
        g.reserve_edges(views + skips);

        // View edges, block by block.
        for b in &blocks {
            let price_of = prices.prices_on(b.attr);
            for (i, value) in (0..).zip(b.col.iter()) {
                g.add_edge(b.v(i), b.w(i), price_of(value).as_capacity());
            }
        }
        let block = |attr: AttrRef| match blocks.iter().find(|b| b.attr == attr) {
            Some(block) => block,
            None => unreachable!("every attribute of a member has a block"),
        };

        // Tuple edges, once per binary relation.
        let mut tupled: FxHashSet<RelId> = FxHashSet::default();
        for (chain, _) in members {
            for (i, atom) in chain.atoms().iter().enumerate() {
                if atom.unary || !tupled.insert(atom.rel) {
                    continue;
                }
                let lb = block(chain.left_attr(i));
                let rb = block(chain.right_attr(i));
                let Some(pairs) = pairs else {
                    let hub = g.add_node();
                    for ai in 0..lb.col.len() as u32 {
                        g.add_edge(lb.w(ai), hub, INF);
                    }
                    for bi in 0..rb.col.len() as u32 {
                        g.add_edge(hub, rb.v(bi), INF);
                    }
                    continue;
                };
                for (ai, a) in lb.col.iter().enumerate() {
                    for (bi, b) in rb.col.iter().enumerate() {
                        let price = pairs.get(atom.rel, a, b);
                        let e = g.add_edge(lb.w(ai as u32), rb.v(bi as u32), price.as_capacity());
                        if price.is_finite() {
                            let (rel, left, right) = (atom.rel, a.clone(), b.clone());
                            pair_edges.insert(e, PairView { rel, left, right });
                        }
                    }
                }
            }
        }

        // Skip edges, per member (a bundle's shared prefix or suffix adds
        // parallel ∞ edges, which cannot affect the cut). The partial
        // answers index the position columns `Col_{x_p}`; each is
        // embedded once into the blocks of the attributes on its two
        // sides.
        for (chain, pa) in members {
            let k = chain.k();
            let left = |p: usize| block(chain.left_attr(p));
            let right = |p: usize| block(chain.right_attr(p - 1));
            // `into_left[p]`: Col_{x_p} into R_p.X's block, 0 ≤ p ≤ k;
            // `into_right[p - 1]`: into R_{p-1}.Y's block, 1 ≤ p ≤ k+1.
            let into_left = embeddings((0..=k).map(|p| (pa.col(p), &left(p).col)));
            let into_right = embeddings((1..=k + 1).map(|p| (pa.col(p), &right(p).col)));
            // s → v_{R_i.X=a} for a ∈ Lt_i.
            for i in 0..=k {
                let to = left(i);
                for a in pa.lt(i).iter() {
                    g.add_edge(s, to.v(embed(&into_left, i, a)), INF);
                }
            }
            // w_{R_j.Y=b} → t for b ∈ Rt_j.
            for j in 0..=k {
                let from = right(j + 1);
                for b in pa.rt(j).iter() {
                    g.add_edge(from.w(embed(&into_right, j, b)), t, INF);
                }
            }
            // w_{R_{i-1}.Y=b} → v_{R_{j+1}.X=a} for (b, a) ∈ Md[i:j].
            for i in 1..=k {
                for j in (i - 1)..k {
                    let (from, to) = (right(i), left(j + 1));
                    for (b, a) in pa.md(i, j) {
                        let w = from.w(embed(&into_right, i - 1, b));
                        g.add_edge(w, to.v(embed(&into_left, j + 1, a)), INF);
                    }
                }
            }
        }

        ChainGraph {
            graph: g,
            s,
            t,
            blocks,
            pair_edges,
        }
    }

    /// Solve the network on this thread's Dinic arena under `ticker`. On
    /// interruption the partial flow value is a sound lower bound on the
    /// price.
    pub fn solve(&self, ticker: &impl Ticker) -> Result<MaxFlowResult, Interrupted> {
        with_dinic_arena(|a| a.max_flow(&self.graph, self.s, self.t, ticker))
    }

    /// The block and value index of view edge `e`, if `e` is one.
    fn view_at(&self, e: EdgeId) -> Option<(&AttrBlock, u32)> {
        let at = self
            .blocks
            .partition_point(|b| b.first <= e)
            .checked_sub(1)?;
        let block = &self.blocks[at];
        let i = (e - block.first) / 2;
        (i < block.col.len()).then_some((block, i as u32))
    }

    /// The view edges of finite capacity, in edge order, each with the
    /// attribute and value of the selection view it stands for.
    pub(crate) fn priced_views(&self) -> impl Iterator<Item = (EdgeId, AttrRef, &Value)> {
        self.blocks.iter().flat_map(move |b| {
            b.col
                .iter()
                .enumerate()
                .map(move |(i, value)| (b.first + 2 * i, b.attr, value))
                .filter(|&(e, _, _)| self.graph.edge(e).2 < INF)
        })
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
                if let Some((block, i)) = self.view_at(e) {
                    let value = block.col.value_at(i).clone();
                    cut.views.push(SelectionView::new(block.attr, value));
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
        assert_eq!(literal.priced_views().count(), 14);
        assert_eq!(hub.priced_views().count(), 14);
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
