//! # qbench — the served-path benchmark
//!
//! Drives the qbdp quote server (`qbdp-serve` over a durable
//! `qbdp-market`) over real sockets with seeded open-loop traffic, checks
//! every answer against an independent cold pricer, and reports
//! end-to-end metrics plus a per-layer breakdown. See `README.md` in this
//! directory for the workloads, the metrics and how to run, trace and
//! compare.

// The one unsafe call, `sys::keep_freed_memory`, carries its own allow.
#![deny(unsafe_code)]

pub mod diff;
pub mod gen;
pub mod json;
pub mod layers;
pub mod reference;
pub mod report;
pub mod run;
pub mod sys;
pub mod workload;
