#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qbdp-flow — max-flow / min-cut, from scratch
//!
//! Step 4 of the paper's GChQ pricing algorithm reduces price computation to
//! **Min-Cut** in a weighted directed graph ("which is the dual of the
//! Max-Flow problem", §3.1). This crate provides:
//!
//! * [`graph::FlowGraph`] — a compact directed graph with `u64` capacities
//!   and an [`graph::INF`] sentinel for uncuttable edges,
//! * [`dinic()`](fn@crate::dinic) — Dinic's algorithm (BFS level graph + blocking flow),
//!   `O(V²E)` worst case and much faster on the unit-ish graphs produced by
//!   the pricing reduction; the crate's one solver (its property tests
//!   cross-check it against an independent Edmonds–Karp oracle),
//! * [`graph::MaxFlowResult::min_cut_edges`] — extraction of a minimum cut
//!   from the residual network (the cut is what the pricing algorithm
//!   actually returns: the set of views the savvy buyer purchases),
//! * [`meter::Ticker`] + the `*_metered` entry points — cooperative work
//!   metering so the pricing layer can run flows under deadlines and
//!   budgets, recovering the partial flow value (a sound lower bound on
//!   the cut) when interrupted,
//! * [`arena::DinicArena`] — a reusable, `Ticker`-aware solver arena that
//!   amortizes the scratch-buffer allocations across many runs; batch
//!   pricing keeps one arena per worker thread,
//! * [`arena::DinicArena::warm_start`] — incremental re-solving: keep a
//!   solve's [`graph::MaxFlowResult`] and repair it in place after
//!   edge-capacity changes instead of recomputing from zero, with a
//!   metered fallback to a cold solve when the repair exceeds its fuel
//!   fraction.

pub mod arena;
pub mod dinic;
pub mod graph;
pub mod meter;
pub mod residual;

pub use arena::DinicArena;
pub use dinic::{dinic, dinic_metered};
pub use graph::{EdgeId, FlowGraph, MaxFlowResult, NodeId, INF};
pub use meter::{Interrupted, Ticker, Unmetered};
pub use residual::{warm_fuel_phases, WarmOutcome};
