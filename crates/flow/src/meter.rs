//! Cooperative work metering for the flow algorithms.
//!
//! The pricing layer above this crate runs max-flow under wall-clock
//! deadlines and work budgets. Rather than depend on that layer, the flow
//! algorithms accept a [`Ticker`]: a callback charged with units of work at
//! loop boundaries. Returning `false` stops the computation; the metered
//! entry points then report the flow pushed so far, which is a sound
//! **lower bound** on the max flow (and hence, by duality, on the min cut).

/// A cooperative work meter. Implementations are charged `n` abstract work
/// units at algorithm checkpoints and answer whether to continue.
pub trait Ticker {
    /// Charge `n` work units; `false` aborts the computation.
    fn tick(&self, n: u64) -> bool;
}

/// A [`Ticker`] that never stops: runs the algorithm to completion.
#[derive(Clone, Copy, Debug, Default)]
pub struct Unmetered;

impl Ticker for Unmetered {
    #[inline]
    fn tick(&self, _n: u64) -> bool {
        true
    }
}

/// A flow computation stopped by its [`Ticker`] before completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted {
    /// Flow pushed before the interruption: a lower bound on the max flow,
    /// and therefore on the min-cut value.
    pub partial_value: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowGraph;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A ticker with a fixed fuel tank.
    struct Fuel(AtomicU64);

    impl Ticker for Fuel {
        fn tick(&self, n: u64) -> bool {
            let mut cur = self.0.load(Ordering::Relaxed);
            loop {
                if cur < n {
                    return false;
                }
                match self.0.compare_exchange_weak(
                    cur,
                    cur - n,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return true,
                    Err(c) => cur = c,
                }
            }
        }
    }

    fn wide_graph() -> FlowGraph {
        // 64 disjoint unit paths s -> m_i -> t: many augmenting rounds.
        let mut g = FlowGraph::with_nodes(66);
        for i in 0..64 {
            g.add_edge(0, 2 + i, 1);
            g.add_edge(2 + i, 1, 1);
        }
        g
    }

    #[test]
    fn interrupted_partial_value_is_a_lower_bound() {
        let g = wide_graph();
        let full = crate::dinic(&g, 0, 1).value;
        assert_eq!(full, 64);
        // Enough fuel for the first phase but not the whole run.
        let r = crate::dinic_metered(&g, 0, 1, &Fuel(AtomicU64::new(300)));
        if let Err(Interrupted { partial_value }) = r {
            assert!(partial_value <= full);
        }
        // Zero fuel interrupts immediately with value 0.
        let r = crate::dinic_metered(&g, 0, 1, &Fuel(AtomicU64::new(0)));
        assert!(matches!(r, Err(Interrupted { partial_value: 0 })));
    }

    #[test]
    fn ample_fuel_matches_unmetered() {
        let g = wide_graph();
        let m = crate::dinic_metered(&g, 0, 1, &Fuel(AtomicU64::new(u64::MAX))).unwrap();
        assert_eq!(m.value, crate::dinic(&g, 0, 1).value);
    }
}
