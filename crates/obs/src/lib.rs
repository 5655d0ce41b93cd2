//! Observability for the qbdp serving stack.
//!
//! Every layer of the market — the quote cache, the plan cache, the flow
//! engines, the WAL — needs to answer "what happened at runtime?" without
//! perturbing the thing being measured. This crate is the single shared
//! telemetry substrate:
//!
//! * [`metrics`] — a **static registry** of counters, gauges, and
//!   log₂-bucketed latency histograms. The record path never waits:
//!   per-thread shards of plain atomics, merged only on read. No lock is
//!   ever taken to record: `crates/obs/clippy.toml` disallows `Mutex`
//!   and `RwLock` in this crate, with the flight ring as the one
//!   `#[expect]`ed exception.
//! * [`trace`] — per-quote **span trees**: each pricing stage (cache
//!   lookup, plan-cache diff, normalization, flow solve, hitting set)
//!   records its wall time, outcome, and budget fuel into a thread-local
//!   buffer. `qbdp price --trace` emits them as JSONL.
//! * [`flight`] — a fixed-size **flight recorder**: the full span tree of
//!   every slow, degraded, contended, or panicking quote is retained in a
//!   small ring for post-hoc dumping (`qbdp stats --flight`). Capture
//!   happens only on those rare outcomes, so it may take a lock — it is
//!   deliberately *not* on the `record*` path, and a unit test holds the
//!   ring while every `record*` call returns.
//! * [`export`] — Prometheus text format and machine-readable JSON over
//!   any [`metrics::Registry`] (the CLI's `qbdp stats`, and
//!   `MarketOps::metrics_snapshot()` for a future `/metrics` endpoint).
//! * [`log`] — a leveled stderr sink so harness progress chatter can be
//!   silenced (`--quiet`) without sprinkling `if` guards at call sites.
//!
//! # Cost model
//!
//! Everything is gated on one relaxed [`metrics::enabled`] load
//! (`MarketPolicy::telemetry`). Disabled, a record call is a single
//! atomic load and a branch; enabled, it is one or two relaxed
//! `fetch_add`s on a thread-private cache line. The E18 experiment
//! (`qbdp-bench`'s `obs_overhead` binary) asserts, on the median of
//! repeated runs, that the enabled tax stays under 2% of median quote
//! latency and the disabled tax under 0.5%.
//!
//! This crate is **dependency-free** (std only) so that every other
//! crate — including `qbdp-flow` and `qbdp-store`, which otherwise
//! depend on nothing — can link it without widening the graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod log;
pub mod metrics;
pub mod trace;

pub use metrics::{
    enabled, global, record, record_gauge, record_hist, set_enabled, Ctr, Gauge, Hst, Registry,
    Stopwatch,
};

/// Serializes unit tests that toggle the process-global enabled flag or
/// the flight ring: the crate's test binary runs tests in parallel, and
/// those globals are shared.
#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only: serializes tests over process-global state, off the record path"
)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
