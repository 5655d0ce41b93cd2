//! The flow network representation the solver runs on.

use std::sync::OnceLock;

/// Node handle (dense index).
pub type NodeId = usize;

/// Edge handle: index of the *forward* edge as returned by
/// [`FlowGraph::add_edge`]. Internally edge `e` and its residual twin `e^1`
/// are stored adjacently, so forward edges always have even indices.
pub type EdgeId = usize;

/// Effectively-infinite capacity. Chosen so that summing a graph's worth of
/// `INF` capacities cannot overflow `u64` (we also use saturating adds).
/// Edges with capacity ≥ `INF` are never part of a reported minimum cut.
pub const INF: u64 = u64::MAX / 16;

/// A directed flow network with `u64` capacities.
///
/// Built once, then solved by [`crate::dinic()`](fn@crate::dinic) or a
/// [`crate::DinicArena`]; solving does not mutate the graph (the solver owns its residual state in
/// a [`MaxFlowResult`]), so one graph can be solved repeatedly, e.g. with
/// different source/sink choices.
///
/// Edges are kept in one flat list; the solvers read each node's incident
/// edges from an adjacency index built from that list on first use and
/// dropped by the next structural change. Building a network therefore
/// allocates per edge list, not per node.
#[derive(Clone, Debug, Default)]
pub struct FlowGraph {
    /// `to[e]` — head of edge `e` (twin edges adjacent: `e ^ 1` reverses).
    pub(crate) to: Vec<u32>,
    /// `cap[e]` — capacity of edge `e` (twin starts at 0).
    pub(crate) cap: Vec<u64>,
    /// Number of nodes.
    nodes: usize,
    /// The incident edges of every node, built on first use.
    adj: OnceLock<Adjacency>,
}

/// The incident edge ids of every node (both directions), grouped by node
/// and in edge order within a node, in one buffer: `slots[v]` for
/// `v ≤ n` are offsets, node `v`'s edges are `slots[slots[v]..slots[v + 1]]`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Adjacency {
    slots: Vec<u32>,
}

impl Adjacency {
    /// Index the edge slots of `to` by their tail: slot `x` leaves
    /// `to[x ^ 1]`.
    fn build(nodes: usize, to: &[u32]) -> Adjacency {
        let head = nodes + 1;
        let mut slots = vec![0u32; head + to.len()];
        // audit: bounded(one pass over the edge slots, once per built network)
        for x in 0..to.len() {
            slots[to[x ^ 1] as usize] += 1;
        }
        // Running ends, then a backwards fill that leaves each offset at
        // its node's first edge.
        slots[0] += head as u32;
        // audit: bounded(one pass over the nodes, once per built network)
        for v in 1..=nodes {
            slots[v] += slots[v - 1];
        }
        // audit: bounded(one pass over the edge slots, once per built network)
        for x in (0..to.len()).rev() {
            let v = to[x ^ 1] as usize;
            slots[v] -= 1;
            let at = slots[v] as usize;
            slots[at] = x as u32;
        }
        Adjacency { slots }
    }

    /// The incident edge ids of node `v`.
    #[inline]
    pub(crate) fn of(&self, v: NodeId) -> &[u32] {
        &self.slots[self.slots[v] as usize..self.slots[v + 1] as usize]
    }
}

impl FlowGraph {
    /// An empty network.
    pub fn new() -> Self {
        FlowGraph::default()
    }

    /// An empty network with `n` pre-allocated nodes.
    pub fn with_nodes(n: usize) -> Self {
        FlowGraph {
            nodes: n,
            ..FlowGraph::default()
        }
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.add_nodes(1)
    }

    /// Add `n` nodes; returns the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        self.adj.take();
        self.nodes += n;
        self.nodes - n
    }

    /// Add a directed edge `from → to` with the given capacity; returns the
    /// edge id usable with [`MaxFlowResult::min_cut_edges`] and
    /// [`FlowGraph::edge`].
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, capacity: u64) -> EdgeId {
        assert!(from < self.nodes && to < self.nodes, "node out of range");
        self.adj.take();
        let e = self.to.len();
        self.to.push(to as u32);
        self.cap.push(capacity);
        self.to.push(from as u32);
        self.cap.push(0);
        e
    }

    /// Reserve room for `additional` more edges.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.to.reserve(2 * additional);
        self.cap.reserve(2 * additional);
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Number of (forward) edges.
    pub fn num_edges(&self) -> usize {
        self.to.len() / 2
    }

    /// The incident edges of every node.
    pub(crate) fn adjacency(&self) -> &Adjacency {
        self.adj
            .get_or_init(|| Adjacency::build(self.nodes, &self.to))
    }

    /// Endpoints and capacity of a forward edge: `(from, to, capacity)`.
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, u64) {
        debug_assert!(e.is_multiple_of(2), "edge ids are even (forward edges)");
        (self.to[e ^ 1] as usize, self.to[e] as usize, self.cap[e])
    }

    /// Replace the capacity of forward edge `e`, returning the old
    /// capacity. Any [`MaxFlowResult`] computed before the change no
    /// longer describes a maximum flow of this graph;
    /// [`crate::DinicArena::warm_start`] changes capacities and *repairs*
    /// the result instead.
    pub fn set_capacity(&mut self, e: EdgeId, capacity: u64) -> u64 {
        debug_assert!(e.is_multiple_of(2), "edge ids are even (forward edges)");
        std::mem::replace(&mut self.cap[e], capacity)
    }
}

/// The outcome of a max-flow computation: flow value plus the residual
/// capacities, from which minimum cuts are extracted. It is also the state
/// a warm start repairs: after capacity changes to its graph,
/// [`crate::DinicArena::warm_start`] turns it into a maximum flow of the
/// updated graph in place.
#[derive(Clone, Debug)]
pub struct MaxFlowResult {
    /// The max-flow value == min-cut capacity (possibly ≥ [`INF`] when no
    /// finite cut exists).
    pub value: u64,
    /// Residual capacity per internal edge slot.
    pub(crate) residual: Vec<u64>,
}

impl MaxFlowResult {
    /// Flow pushed through forward edge `e`.
    pub fn flow_on(&self, g: &FlowGraph, e: EdgeId) -> u64 {
        g.cap[e].saturating_sub(self.residual[e])
    }

    /// The edges of the canonical minimum cut: saturated forward edges from
    /// the source side to the sink side, in ascending edge-id order
    /// (deterministic). Their capacities sum to `value` whenever a finite
    /// cut exists.
    ///
    /// The source side is the set of nodes reachable from `s` along
    /// positive-residual edges. For **any** maximum flow this set is the
    /// same (it is the minimal source side), which is what makes
    /// warm-started and cold-started solves agree edge-for-edge on the cut.
    pub fn min_cut_edges(&self, g: &FlowGraph, s: NodeId) -> Vec<EdgeId> {
        let adj = g.adjacency();
        let mut side = vec![false; g.num_nodes()];
        let mut stack = vec![s];
        side[s] = true;
        // audit: bounded(residual DFS visits each node once; cut extraction runs once per priced flow)
        while let Some(v) = stack.pop() {
            // audit: bounded(adjacency scan within the single residual DFS)
            for &e in adj.of(v) {
                let e = e as usize;
                let w = g.to[e] as usize;
                if self.residual[e] > 0 && !side[w] {
                    side[w] = true;
                    stack.push(w);
                }
            }
        }
        let mut cut = Vec::new();
        // audit: bounded(one pass over the edge list, once per priced flow)
        for e in (0..g.to.len()).step_by(2) {
            let from = g.to[e ^ 1] as usize;
            let to = g.to[e] as usize;
            if side[from] && !side[to] {
                cut.push(e);
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut g = FlowGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e = g.add_edge(a, b, 7);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge(e), (a, b, 7));
        let first = g.add_nodes(3);
        assert_eq!(first, 2);
        assert_eq!(g.num_nodes(), 5);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn edge_to_missing_node_panics() {
        let mut g = FlowGraph::new();
        let a = g.add_node();
        g.add_edge(a, 5, 1);
    }
}
