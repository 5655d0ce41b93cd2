//! Property tests for the max-flow solver: Dinic agrees with an
//! independently implemented Edmonds–Karp oracle, cuts have the right
//! weight, and cuts disconnect.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp_flow::{dinic, FlowGraph, INF};
use std::collections::VecDeque;

/// The test oracle: Edmonds–Karp max flow (BFS shortest augmenting paths,
/// `O(V·E²)`), written against the graph's public edge list only, so it
/// shares no code with the library's Dinic solver.
fn edmonds_karp(g: &FlowGraph, s: usize, t: usize) -> u64 {
    // Residual arc `2i` is forward edge `i`; arc `2i + 1` is its twin.
    let mut head = Vec::new();
    let mut residual = Vec::new();
    let mut adj = vec![Vec::new(); g.num_nodes()];
    for i in 0..g.num_edges() {
        let (from, to, cap) = g.edge(2 * i);
        adj[from].push(head.len());
        head.push(to);
        residual.push(cap);
        adj[to].push(head.len());
        head.push(from);
        residual.push(0);
    }
    let mut value = 0u64;
    loop {
        let mut parent = vec![usize::MAX; g.num_nodes()];
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for &a in &adj[v] {
                let w = head[a];
                if residual[a] > 0 && parent[w] == usize::MAX && w != s {
                    parent[w] = a;
                    queue.push_back(w);
                }
            }
        }
        if parent[t] == usize::MAX {
            return value;
        }
        let mut path = Vec::new();
        let mut v = t;
        while v != s {
            path.push(parent[v]);
            v = head[parent[v] ^ 1];
        }
        let bottleneck = path.iter().map(|&a| residual[a]).min().unwrap();
        for &a in &path {
            residual[a] -= bottleneck;
            residual[a ^ 1] = residual[a ^ 1].saturating_add(bottleneck);
        }
        value = value.saturating_add(bottleneck);
    }
}

/// CLRS's textbook network: both algorithms find the known max flow.
#[test]
fn textbook_network_agrees_with_oracle() {
    let mut g = FlowGraph::with_nodes(6);
    let (s, a, b, c, d, t) = (0, 1, 2, 3, 4, 5);
    g.add_edge(s, a, 16);
    g.add_edge(s, b, 13);
    g.add_edge(a, b, 10);
    g.add_edge(b, a, 4);
    g.add_edge(a, c, 12);
    g.add_edge(b, d, 14);
    g.add_edge(c, b, 9);
    g.add_edge(d, c, 7);
    g.add_edge(c, t, 20);
    g.add_edge(d, t, 4);
    assert_eq!(edmonds_karp(&g, s, t), 23);
    assert_eq!(dinic(&g, s, t).value, 23);
}

#[derive(Debug, Clone)]
struct RandomGraph {
    nodes: usize,
    edges: Vec<(usize, usize, u64)>,
}

fn graph_strategy() -> impl Strategy<Value = RandomGraph> {
    (3usize..12).prop_flat_map(|nodes| {
        let edge = (0..nodes, 0..nodes, prop_oneof![1u64..100, Just(INF)]);
        proptest::collection::vec(edge, 0..40).prop_map(move |edges| RandomGraph { nodes, edges })
    })
}

fn build(rg: &RandomGraph) -> FlowGraph {
    let mut g = FlowGraph::with_nodes(rg.nodes);
    for &(u, v, c) in &rg.edges {
        if u != v {
            g.add_edge(u, v, c);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dinic_equals_edmonds_karp(rg in graph_strategy()) {
        let g = build(&rg);
        let (s, t) = (0, rg.nodes - 1);
        prop_assert_eq!(dinic(&g, s, t).value, edmonds_karp(&g, s, t));
    }

    #[test]
    fn cut_weight_equals_flow_and_disconnects(rg in graph_strategy()) {
        let g = build(&rg);
        let (s, t) = (0, rg.nodes - 1);
        let r = dinic(&g, s, t);
        if r.value < INF {
            let cut = r.min_cut_edges(&g, s);
            let weight: u64 = cut.iter().map(|&e| g.edge(e).2).sum();
            prop_assert_eq!(weight, r.value, "weak duality violated");
            // Removing the cut disconnects t from s: BFS over non-cut edges.
            let cut_set: std::collections::HashSet<usize> = cut.into_iter().collect();
            let mut seen = vec![false; g.num_nodes()];
            seen[s] = true;
            let mut stack = vec![s];
            while let Some(v) = stack.pop() {
                for e in (0..g.num_edges()).map(|i| 2 * i) {
                    let (from, to, _) = g.edge(e);
                    if from == v && !cut_set.contains(&e) && !seen[to] {
                        seen[to] = true;
                        stack.push(to);
                    }
                }
            }
            prop_assert!(!seen[t], "cut does not disconnect");
        }
    }

    #[test]
    fn flow_on_edges_bounded_by_capacity(rg in graph_strategy()) {
        let g = build(&rg);
        let (s, t) = (0, rg.nodes - 1);
        let r = dinic(&g, s, t);
        if r.value >= INF {
            return Ok(()); // saturated: flow bookkeeping is approximate
        }
        for e in (0..g.num_edges()).map(|i| 2 * i) {
            let (_, _, cap) = g.edge(e);
            prop_assert!(r.flow_on(&g, e) <= cap);
        }
    }

    #[test]
    fn flow_conservation(rg in graph_strategy()) {
        let g = build(&rg);
        let (s, t) = (0, rg.nodes - 1);
        let r = dinic(&g, s, t);
        if r.value >= INF {
            return Ok(()); // saturated: flow bookkeeping is approximate
        }
        // Net flow at every internal node is zero.
        let mut net = vec![0i128; g.num_nodes()];
        for e in (0..g.num_edges()).map(|i| 2 * i) {
            let (from, to, _) = g.edge(e);
            let f = r.flow_on(&g, e) as i128;
            net[from] -= f;
            net[to] += f;
        }
        for (v, &balance) in net.iter().enumerate() {
            if v != s && v != t {
                prop_assert_eq!(balance, 0, "conservation at {}", v);
            }
        }
        prop_assert_eq!(net[t], r.value as i128);
        prop_assert_eq!(net[s], -(r.value as i128));
    }
}
