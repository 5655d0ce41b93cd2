//! A reusable solver arena for Dinic's algorithm — the crate's one max-flow
//! solver; [`crate::dinic()`](fn@crate::dinic) and [`crate::dinic_metered`]
//! run it on a fresh arena.
//!
//! Every max-flow run needs four scratch buffers: the residual capacities,
//! the BFS level array, the DFS edge iterators, and the BFS queue. Pricing
//! workloads solve many graphs in sequence (one per quote, or one per
//! Step-3 branch), so rebuilding those buffers per run dominates small
//! instances. A [`DinicArena`] owns the buffers and reuses their
//! allocations across runs; batch-pricing workers keep one arena each and
//! amortize allocation across an entire job stream.
//!
//! The arena is [`Ticker`]-aware: runs are metered
//! exactly like [`crate::dinic_metered`], charging each BFS phase and each
//! augmenting path, and interruption reports the partial flow value.

use crate::graph::{FlowGraph, MaxFlowResult, NodeId};
use crate::meter::{Interrupted, Ticker};

/// Reusable scratch space for [`DinicArena::max_flow`].
///
/// The residual buffer is *moved into* each returned [`MaxFlowResult`]
/// (cut extraction needs it); hand the result back via
/// [`DinicArena::recycle`] once the cut is extracted to recover the
/// allocation for the next run.
#[derive(Debug, Default)]
pub struct DinicArena {
    /// Spare residual buffer, recovered by [`DinicArena::recycle`].
    spare: Vec<u64>,
    level: Vec<u32>,
    it: Vec<usize>,
    queue: Vec<usize>,
}

impl DinicArena {
    /// A fresh arena with empty buffers.
    pub fn new() -> Self {
        DinicArena::default()
    }

    /// Compute the maximum `s`–`t` flow with Dinic's algorithm, reusing
    /// this arena's buffers. Semantics are identical to
    /// [`crate::dinic_metered`].
    pub fn max_flow(
        &mut self,
        g: &FlowGraph,
        s: NodeId,
        t: NodeId,
        ticker: &impl Ticker,
    ) -> Result<MaxFlowResult, Interrupted> {
        assert_ne!(s, t, "source and sink must differ");
        qbdp_obs::record(qbdp_obs::Ctr::FlowSolvesCold, 1);
        if self.spare.capacity() > 0 {
            qbdp_obs::record(qbdp_obs::Ctr::FlowArenaReuses, 1);
        }
        // Recycle the spare residual buffer if one is available.
        let mut residual = std::mem::take(&mut self.spare);
        residual.clear();
        residual.extend_from_slice(&g.cap);
        let mut value: u64 = 0;
        match self.phases(g, s, t, &mut residual, &mut value, ticker) {
            Ok(()) => Ok(MaxFlowResult { value, residual }),
            Err(()) => {
                self.spare = residual;
                qbdp_obs::record(qbdp_obs::Ctr::BudgetExhaustedFlow, 1);
                Err(Interrupted {
                    partial_value: value,
                })
            }
        }
    }

    /// The Dinic phase loop over an **existing** feasible flow: BFS level
    /// graph + DFS blocking flow until no augmenting path remains. Starting
    /// from the all-zero flow this is a cold solve; starting from a
    /// repaired [`MaxFlowResult`] it resumes augmentation
    /// (a feasible flow with no augmenting path is a maximum flow, so
    /// resumption is exact). `Err(())` means the ticker refused; `value`
    /// then holds the partial (still feasible) flow value.
    pub(crate) fn phases(
        &mut self,
        g: &FlowGraph,
        s: NodeId,
        t: NodeId,
        residual: &mut [u64],
        value: &mut u64,
        ticker: &impl Ticker,
    ) -> Result<(), ()> {
        let n = g.num_nodes();
        let phase_cost = (n + g.num_edges()) as u64;
        let adj = g.adjacency();
        self.level.clear();
        self.level.resize(n, u32::MAX);
        self.it.clear();
        self.it.resize(n, 0);
        self.queue.clear();
        self.queue.reserve(n);
        // Fuel accounting is accumulated locally and recorded once at
        // exit: one atomic add per solve, not per phase.
        let mut spent: u64 = 0;
        let out = 'solve: loop {
            if !ticker.tick(phase_cost) {
                break 'solve Err(());
            }
            spent += phase_cost;
            // BFS: build level graph on residual edges.
            self.level.fill(u32::MAX);
            self.level[s] = 0;
            self.queue.clear();
            self.queue.push(s);
            let mut head = 0;
            // audit: bounded(one BFS pass, pre-charged by tick(phase_cost = n + m) above)
            while head < self.queue.len() {
                let v = self.queue[head];
                head += 1;
                // audit: bounded(adjacency scan within the pre-charged BFS pass)
                for &e in adj.of(v) {
                    let e = e as usize;
                    let w = g.to[e] as usize;
                    if residual[e] > 0 && self.level[w] == u32::MAX {
                        self.level[w] = self.level[v] + 1;
                        self.queue.push(w);
                    }
                }
            }
            if self.level[t] == u32::MAX {
                break 'solve Ok(());
            }
            // DFS blocking flow with edge iterators.
            self.it.fill(0);
            loop {
                let pushed = dfs(g, residual, &self.level, &mut self.it, s, t, u64::MAX);
                if pushed == 0 {
                    break;
                }
                *value = value.saturating_add(pushed);
                if !ticker.tick(8) {
                    break 'solve Err(());
                }
                spent += 8;
            }
        };
        qbdp_obs::record(qbdp_obs::Ctr::FlowFuelSpent, spent);
        out
    }

    /// Reclaim the residual allocation of a finished result so the next
    /// [`DinicArena::max_flow`] run can reuse it. Call after cut
    /// extraction; dropping the result instead merely forgoes the reuse.
    pub fn recycle(&mut self, result: MaxFlowResult) {
        if result.residual.capacity() > self.spare.capacity() {
            self.spare = result.residual;
        }
    }
}

fn dfs(
    g: &FlowGraph,
    residual: &mut [u64],
    level: &[u32],
    it: &mut [usize],
    v: NodeId,
    t: NodeId,
    limit: u64,
) -> u64 {
    if v == t {
        return limit;
    }
    // audit: bounded(edge iterators advance monotonically, amortized into the phase tick)
    let out = g.adjacency().of(v);
    while it[v] < out.len() {
        let e = out[it[v]] as usize;
        let w = g.to[e] as usize;
        if residual[e] > 0 && level[w] == level[v] + 1 {
            let pushed = dfs(g, residual, level, it, w, t, limit.min(residual[e]));
            if pushed > 0 {
                residual[e] -= pushed;
                residual[e ^ 1] = residual[e ^ 1].saturating_add(pushed);
                return pushed;
            }
        }
        it[v] += 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Unmetered;

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

    #[test]
    fn arena_matches_one_shot_dinic() {
        let g = diamond();
        let mut arena = DinicArena::new();
        for _ in 0..3 {
            let r = arena.max_flow(&g, 0, 5, &Unmetered).unwrap();
            assert_eq!(r.value, crate::dinic(&g, 0, 5).value);
            let cut = r.min_cut_edges(&g, 0);
            let weight: u64 = cut.iter().map(|&e| g.edge(e).2).sum();
            assert_eq!(weight, 23);
            arena.recycle(r);
        }
    }

    #[test]
    fn recycled_buffers_are_reused_across_sizes() {
        let mut arena = DinicArena::new();
        // Solve a big graph, recycle, then a small one: the residual
        // buffer from the big run must be reused (no shrink below need).
        let mut big = FlowGraph::with_nodes(100);
        for i in 1..99 {
            big.add_edge(0, i, 1);
            big.add_edge(i, 99, 1);
        }
        let r = arena.max_flow(&big, 0, 99, &Unmetered).unwrap();
        assert_eq!(r.value, 98);
        arena.recycle(r);
        let cap_before = arena.spare.capacity();
        assert!(cap_before >= 2 * 2 * 98);
        let small = diamond();
        let r = arena.max_flow(&small, 0, 5, &Unmetered).unwrap();
        assert_eq!(r.value, 23);
        arena.recycle(r);
        assert_eq!(arena.spare.capacity(), cap_before);
    }

    #[test]
    fn interruption_returns_buffer_to_arena() {
        struct Never;
        impl Ticker for Never {
            fn tick(&self, _n: u64) -> bool {
                false
            }
        }
        let g = diamond();
        let mut arena = DinicArena::new();
        let r = arena.max_flow(&g, 0, 5, &Never);
        assert!(matches!(r, Err(Interrupted { partial_value: 0 })));
        // The residual buffer came back despite the interruption.
        assert!(arena.spare.capacity() >= g.cap.len());
    }
}
