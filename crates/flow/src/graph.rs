//! The flow network representation the solver runs on.

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
#[derive(Clone, Debug, Default)]
pub struct FlowGraph {
    /// `to[e]` — head of edge `e` (twin edges adjacent: `e ^ 1` reverses).
    pub(crate) to: Vec<u32>,
    /// `cap[e]` — capacity of edge `e` (twin starts at 0).
    pub(crate) cap: Vec<u64>,
    /// `adj[v]` — incident edge ids (both directions).
    pub(crate) adj: Vec<Vec<u32>>,
}

impl FlowGraph {
    /// An empty network.
    pub fn new() -> Self {
        FlowGraph::default()
    }

    /// An empty network with `n` pre-allocated nodes.
    pub fn with_nodes(n: usize) -> Self {
        FlowGraph {
            to: Vec::new(),
            cap: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Add `n` nodes; returns the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = self.adj.len();
        self.adj.resize(self.adj.len() + n, Vec::new());
        first
    }

    /// Add a directed edge `from → to` with the given capacity; returns the
    /// edge id usable with [`MaxFlowResult::min_cut_edges`] and
    /// [`FlowGraph::edge`].
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, capacity: u64) -> EdgeId {
        assert!(
            from < self.adj.len() && to < self.adj.len(),
            "node out of range"
        );
        let e = self.to.len();
        self.to.push(to as u32);
        self.cap.push(capacity);
        self.to.push(from as u32);
        self.cap.push(0);
        self.adj[from].push(e as u32);
        self.adj[to].push((e + 1) as u32);
        e
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of (forward) edges.
    pub fn num_edges(&self) -> usize {
        self.to.len() / 2
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
        let mut side = vec![false; g.num_nodes()];
        let mut stack = vec![s];
        side[s] = true;
        // audit: bounded(residual DFS visits each node once; cut extraction runs once per priced flow)
        while let Some(v) = stack.pop() {
            // audit: bounded(adjacency scan within the single residual DFS)
            for &e in &g.adj[v] {
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
