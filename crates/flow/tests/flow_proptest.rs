//! Property tests for the max-flow solvers: the two independently
//! implemented algorithms agree, cuts have the right weight, and cuts
//! disconnect.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp_flow::{dinic, edmonds_karp, FlowGraph, INF};

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
        prop_assert_eq!(dinic(&g, s, t).value, edmonds_karp(&g, s, t).value);
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
