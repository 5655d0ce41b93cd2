//! Warm-started min-cut: persist the final flow of a solved instance and
//! *repair* it after a capacity change instead of recomputing from zero.
//!
//! The pricing engine's §2.7 dynamics change one price point at a time,
//! which perturbs exactly one view edge of the Step 4 network. A solve's
//! [`MaxFlowResult`] keeps the residual capacities of the flow it found;
//! [`DinicArena::warm_start`] then repairs it in place into a maximum flow
//! after a batch of single-edge capacity changes:
//!
//! * **increase** — the old flow stays feasible; the freed capacity is
//!   added to the residual and augmentation resumes;
//! * **decrease within flow** — the flow on the edge already fits; the
//!   old flow is still feasible *and maximal* (shrinking a capacity
//!   cannot raise the max flow), so resumption finds nothing to do;
//! * **decrease below flow** — the flow on `e = (u, v)` is clamped to the
//!   new capacity, leaving `x` units of excess at `u` and deficit at `v`.
//!   The excess is drained in two moves: reroute up to `x` units along
//!   residual `u → v` paths (value-neutral — this also cancels any flow
//!   cycles through `e`), then cancel the remainder `r` by pushing `r`
//!   units along residual `u → s` and `t → v` paths (flow decomposition
//!   guarantees both exist) and lowering the flow value by `r`.
//!
//! After the repair the flow is feasible, so resuming Dinic's phase loop
//! yields a maximum flow: a feasible flow with no augmenting path is
//! maximal. Crucially the *canonical* minimum cut — the residual-reachable
//! source side — is identical for every maximum flow, so a warm-started
//! solve reports bit-identical value **and** cut edges to a cold solve.
//!
//! The whole repair is metered against an internal fuel budget of
//! [`warm_fuel_phases`]`(n)` BFS-phase equivalents — a fraction of the
//! `O(n)`-phase cold worst case. If the repair (or the resumed
//! augmentation) exceeds it, the warm attempt is abandoned and a cold
//! solve runs instead; either way the caller ends with a valid
//! [`MaxFlowResult`] for the updated graph.

use crate::arena::DinicArena;
use crate::graph::{EdgeId, FlowGraph, MaxFlowResult, NodeId};
use crate::meter::{Interrupted, Ticker};
use std::cell::Cell;

/// What [`DinicArena::warm_start`] actually did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmOutcome {
    /// `true` when the repair exceeded its fuel fraction (or came up
    /// short on a drain path) and a cold solve ran instead. The resulting
    /// state is identical either way; this is for instrumentation.
    pub fell_back: bool,
}

/// Fuel granted to a warm repair, in BFS-phase equivalents (each worth
/// `n + m` ticks): a quarter of the `O(n)`-phase cold worst case, floored
/// at 4 phases so small graphs get a real attempt.
pub fn warm_fuel_phases(nodes: usize) -> u64 {
    4 + nodes as u64 / 4
}

/// An internal fuel tank chained in front of an outer ticker: a tick must
/// pass both. Exhausting the tank aborts the warm attempt (fallback to
/// cold); exhausting the outer ticker surfaces as [`Interrupted`] from the
/// cold fallback, exactly like a cold solve would.
struct Fueled<'a, T> {
    left: Cell<u64>,
    outer: &'a T,
}

impl<T: Ticker> Ticker for Fueled<'_, T> {
    fn tick(&self, n: u64) -> bool {
        if !self.outer.tick(n) {
            return false;
        }
        let left = self.left.get();
        if left < n {
            return false;
        }
        self.left.set(left - n);
        true
    }
}

impl DinicArena {
    /// Apply `changes` (`(forward edge, new capacity)`) to `g` and repair
    /// `state` into a maximum flow of the updated graph, falling back to a
    /// cold solve when the repair exceeds its fuel fraction. `state` must
    /// be the result of a solve (cold or warm) of `g` in its pre-change
    /// capacities; on return it is a maximum flow of the updated graph,
    /// with the same value and canonical cut a cold solve reports.
    pub fn warm_start(
        &mut self,
        g: &mut FlowGraph,
        s: NodeId,
        t: NodeId,
        state: &mut MaxFlowResult,
        changes: &[(EdgeId, u64)],
        ticker: &impl Ticker,
    ) -> Result<WarmOutcome, Interrupted> {
        assert_ne!(s, t, "source and sink must differ");
        debug_assert_eq!(
            state.residual.len(),
            g.cap.len(),
            "state does not belong to this graph"
        );
        let mut applied: Vec<(EdgeId, u64, u64)> = Vec::with_capacity(changes.len());
        // audit: bounded(one slot per requested change)
        for &(e, new_cap) in changes {
            let old = g.set_capacity(e, new_cap);
            applied.push((e, old, new_cap));
        }
        let phase_cost = (g.num_nodes() + g.num_edges()) as u64;
        let fueled = Fueled {
            left: Cell::new(phase_cost.saturating_mul(warm_fuel_phases(g.num_nodes()))),
            outer: ticker,
        };
        match self.try_warm(g, s, t, state, &applied, &fueled) {
            Ok(()) => {
                qbdp_obs::record(qbdp_obs::Ctr::FlowSolvesWarm, 1);
                Ok(WarmOutcome { fell_back: false })
            }
            Err(()) => {
                // The partially repaired residual is garbage now; a cold
                // solve rebuilds from the updated capacities under the
                // *outer* ticker only (the fuel fraction governed just
                // the warm attempt).
                qbdp_obs::record(qbdp_obs::Ctr::FlowWarmFallbacks, 1);
                *state = self.max_flow(g, s, t, ticker)?;
                Ok(WarmOutcome { fell_back: true })
            }
        }
    }

    /// The warm repair proper. `Err(())` = out of fuel or a drain path
    /// came up short (possible only for flows not produced by our own
    /// solvers); the caller falls back to a cold solve.
    fn try_warm(
        &mut self,
        g: &FlowGraph,
        s: NodeId,
        t: NodeId,
        state: &mut MaxFlowResult,
        applied: &[(EdgeId, u64, u64)],
        ticker: &impl Ticker,
    ) -> Result<(), ()> {
        // audit: bounded(one iteration per applied change; drains tick inside push_paths)
        for &(e, old, new) in applied {
            if new == old {
                continue;
            }
            let res = &mut state.residual;
            let flow = old.saturating_sub(res[e]);
            if new >= old {
                res[e] = res[e].saturating_add(new - old);
            } else if flow <= new {
                res[e] = new - flow;
            } else {
                // The flow violates the shrunk capacity: clamp it and
                // drain the excess (module docs).
                let x = flow - new;
                res[e] = 0;
                res[e ^ 1] = new;
                let u = g.to[e ^ 1] as usize;
                let v = g.to[e] as usize;
                if u == v {
                    continue; // self-loop: conservation unaffected
                }
                let rerouted = push_paths(g, res, u, v, x, ticker)?;
                let r = x - rerouted;
                if r > 0 {
                    if u != s && push_paths(g, res, u, s, r, ticker)? < r {
                        return Err(());
                    }
                    if v != t && push_paths(g, res, t, v, r, ticker)? < r {
                        return Err(());
                    }
                    state.value = state.value.saturating_sub(r);
                }
            }
        }
        // Feasible again: resume augmentation to restore maximality.
        self.phases(g, s, t, &mut state.residual, &mut state.value, ticker)
    }
}

/// Push up to `limit` units along residual paths `from → to`, returning
/// the amount pushed. Each path attempt charges one BFS-phase equivalent;
/// `Err(())` means the ticker refused mid-drain (residual is then
/// inconsistent — callers must discard it).
fn push_paths(
    g: &FlowGraph,
    residual: &mut [u64],
    from: NodeId,
    to: NodeId,
    limit: u64,
    ticker: &impl Ticker,
) -> Result<u64, ()> {
    let n = g.num_nodes();
    let phase_cost = (n + g.num_edges()) as u64;
    // `parent[w]` = edge id that entered `w` (u32::MAX = unvisited).
    let adj = g.adjacency();
    let mut parent: Vec<u32> = vec![u32::MAX; n];
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut total = 0u64;
    // audit: bounded(each iteration pushes ≥ 1 unit or breaks; every iteration ticks one phase_cost)
    while total < limit {
        if !ticker.tick(phase_cost) {
            return Err(());
        }
        parent.fill(u32::MAX);
        stack.clear();
        stack.push(from);
        let mut found = false;
        // audit: bounded(DFS visits each node once, pre-charged by tick(phase_cost) above)
        'dfs: while let Some(v) = stack.pop() {
            // audit: bounded(adjacency scan within the pre-charged DFS pass)
            for &e in adj.of(v) {
                let e = e as usize;
                if residual[e] == 0 {
                    continue;
                }
                let w = g.to[e] as usize;
                if w != from && parent[w] == u32::MAX {
                    parent[w] = e as u32;
                    if w == to {
                        found = true;
                        break 'dfs;
                    }
                    stack.push(w);
                }
            }
        }
        if !found {
            break;
        }
        // Bottleneck, then apply, walking parent edges back to `from`.
        let mut bottleneck = limit - total;
        let mut x = to;
        // audit: bounded(parent chain is a simple path, pre-charged by the phase tick)
        while x != from {
            let e = parent[x] as usize;
            bottleneck = bottleneck.min(residual[e]);
            x = g.to[e ^ 1] as usize;
        }
        let mut x = to;
        // audit: bounded(parent chain is a simple path, pre-charged by the phase tick)
        while x != from {
            let e = parent[x] as usize;
            residual[e] -= bottleneck;
            residual[e ^ 1] = residual[e ^ 1].saturating_add(bottleneck);
            x = g.to[e ^ 1] as usize;
        }
        total += bottleneck;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Unmetered;

    /// Deterministic xorshift64* so the randomized battery needs no deps.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn diamond() -> FlowGraph {
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
        g
    }

    fn assert_matches_cold(g: &FlowGraph, s: NodeId, t: NodeId, state: &MaxFlowResult) {
        let cold = crate::dinic(g, s, t);
        assert_eq!(state.value, cold.value, "warm value diverged");
        assert_eq!(
            state.min_cut_edges(g, s),
            cold.min_cut_edges(g, s),
            "warm canonical cut diverged"
        );
    }

    #[test]
    fn single_edge_changes_match_cold() {
        let mut arena = DinicArena::new();
        for e in (0..10 * 2).step_by(2) {
            for &new_cap in &[0u64, 1, 5, 30] {
                let mut g = diamond();
                let mut state = arena.max_flow(&g, 0, 5, &Unmetered).unwrap();
                arena
                    .warm_start(&mut g, 0, 5, &mut state, &[(e, new_cap)], &Unmetered)
                    .unwrap();
                assert_matches_cold(&g, 0, 5, &state);
            }
        }
    }

    #[test]
    fn randomized_update_streams_match_cold() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        let mut arena = DinicArena::new();
        for case in 0..60 {
            let n = 4 + rng.below(8) as usize;
            let mut g = FlowGraph::with_nodes(n);
            let m = n + rng.below(3 * n as u64) as usize;
            let mut edges = Vec::new();
            for _ in 0..m {
                let a = rng.below(n as u64) as usize;
                let b = rng.below(n as u64) as usize;
                if a == b {
                    continue;
                }
                edges.push(g.add_edge(a, b, rng.below(20)));
            }
            if edges.is_empty() {
                continue;
            }
            let (s, t) = (0, n - 1);
            let mut state = arena.max_flow(&g, s, t, &Unmetered).unwrap();
            for step in 0..20 {
                let e = edges[rng.below(edges.len() as u64) as usize];
                let new_cap = rng.below(25);
                arena
                    .warm_start(&mut g, s, t, &mut state, &[(e, new_cap)], &Unmetered)
                    .unwrap();
                let cold = crate::dinic(&g, s, t);
                assert_eq!(
                    state.value, cold.value,
                    "case {case} step {step}: value diverged"
                );
                assert_eq!(
                    state.min_cut_edges(&g, s),
                    cold.min_cut_edges(&g, s),
                    "case {case} step {step}: cut diverged"
                );
            }
        }
    }

    #[test]
    fn batched_changes_match_cold() {
        let mut rng = Rng(42);
        let mut arena = DinicArena::new();
        for _ in 0..40 {
            let mut g = diamond();
            let mut state = arena.max_flow(&g, 0, 5, &Unmetered).unwrap();
            let changes: Vec<(EdgeId, u64)> = (0..3)
                .map(|_| ((rng.below(10) * 2) as usize, rng.below(30)))
                .collect();
            arena
                .warm_start(&mut g, 0, 5, &mut state, &changes, &Unmetered)
                .unwrap();
            assert_matches_cold(&g, 0, 5, &state);
        }
    }

    #[test]
    fn small_repair_stays_warm() {
        let mut g = diamond();
        let mut arena = DinicArena::new();
        let mut state = arena.max_flow(&g, 0, 5, &Unmetered).unwrap();
        let out = arena
            .warm_start(&mut g, 0, 5, &mut state, &[(8 * 2 / 2, 21)], &Unmetered)
            .unwrap();
        assert!(!out.fell_back, "a one-unit slack change must repair warm");
        assert_matches_cold(&g, 0, 5, &state);
    }

    /// A decrease whose drain needs one path per parallel branch: with
    /// enough branches the repair exceeds its fuel fraction and must fall
    /// back to a cold solve — and still match it exactly.
    #[test]
    fn oversized_repair_falls_back_to_cold() {
        let k = 64usize;
        let mut g = FlowGraph::new();
        let s = g.add_node();
        let u = g.add_node();
        let v = g.add_node();
        let t = g.add_node();
        for _ in 0..k {
            let a = g.add_node();
            g.add_edge(s, a, 1);
            g.add_edge(a, u, 1);
        }
        let bottleneck = g.add_edge(u, v, k as u64);
        g.add_edge(v, t, k as u64);
        let mut arena = DinicArena::new();
        let mut state = arena.max_flow(&g, s, t, &Unmetered).unwrap();
        assert_eq!(state.value, k as u64);
        let out = arena
            .warm_start(&mut g, s, t, &mut state, &[(bottleneck, 0)], &Unmetered)
            .unwrap();
        assert!(
            out.fell_back,
            "draining {k} unit paths must exhaust the fuel fraction"
        );
        assert_matches_cold(&g, s, t, &state);
        assert_eq!(state.value, 0);
    }

    #[test]
    fn outer_interruption_propagates() {
        struct Never;
        impl Ticker for Never {
            fn tick(&self, _n: u64) -> bool {
                false
            }
        }
        let mut g = diamond();
        let mut arena = DinicArena::new();
        let mut state = arena.max_flow(&g, 0, 5, &Unmetered).unwrap();
        let r = arena.warm_start(&mut g, 0, 5, &mut state, &[(0, 1)], &Never);
        assert!(matches!(r, Err(Interrupted { .. })));
    }

    #[test]
    fn increase_reaugments() {
        // s → a → t with a tight middle edge: raising it raises the flow.
        let mut g = FlowGraph::with_nodes(3);
        g.add_edge(0, 1, 10);
        let mid = g.add_edge(1, 2, 2);
        let mut arena = DinicArena::new();
        let mut state = arena.max_flow(&g, 0, 2, &Unmetered).unwrap();
        assert_eq!(state.value, 2);
        let out = arena
            .warm_start(&mut g, 0, 2, &mut state, &[(mid, 7)], &Unmetered)
            .unwrap();
        assert!(!out.fell_back);
        assert_eq!(state.value, 7);
        assert_matches_cold(&g, 0, 2, &state);
    }
}
