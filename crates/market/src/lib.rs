#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

//! # qbdp-market — a query-priced data marketplace
//!
//! The downstream-facing layer: a thread-safe [`Market`] wrapping the
//! pricing engine with the workflow a real marketplace needs —
//!
//! * sellers publish a catalog, data, and explicit selection-view prices,
//!   validated against Proposition 3.2 so no arbitrage is possible;
//! * buyers ask for **quotes** on arbitrary queries (datalog-syntax
//!   strings or ASTs) and **purchase** them, receiving the answer plus an
//!   itemized receipt of the views their payment stands for;
//! * the seller inserts new data at any time (§2.7); consistency is
//!   preserved automatically (Prop 3.2 is instance-independent) and
//!   full-query prices never drop (Prop 2.22);
//! * a [`ledger::Ledger`] records every transaction and the running
//!   revenue.
//!
//! Concurrency: quoting is read-only and proceeds under a shared lock;
//! insertions take the write lock. Exact quotes are cached in a sharded
//! cache (`cache`, 16 lock shards) that lives under the state lock: a
//! write invalidates it under the write lock, and a quote is filled
//! under the read guard it was priced under, so a quote raced by a
//! concurrent update is never served stale.
//! [`market::Market::quote_batch`] prices many queries at once on a
//! scoped worker pool ([`market::MarketPolicy::batch_workers`]). Every
//! lock carries a level from [`lock`], so taking locks out of order, or
//! pricing while the WAL, plan or a cache shard is held, fails to
//! compile on every path that passes its caller's lock token. The
//! `concurrent` test module hammers a market from multiple scoped `std`
//! threads to validate the locking.
//!
//! Resource governance: a [`market::MarketPolicy`] bounds each pricing
//! call with a fuel budget and/or wall-clock deadline, caps concurrent
//! in-flight requests, and decides whether budget-degraded (sound
//! upper-bound) quotes are sold or refused. Engine panics are contained
//! at the market boundary ([`MarketError::Internal`]); the market keeps
//! serving.

pub mod api;
mod cache;
pub mod chaos;
pub mod durable;
pub mod error;
pub mod ledger;
pub mod lock;
pub mod market;
mod receipt;

pub use api::MarketOps;
pub use chaos::{fingerprint, ChaosConfig, ChaosReport, FaultMix, Fingerprint};
pub use durable::{DurableMarket, DurableOptions, MarketHealth, RecoveryProfile, ReplayStep};
pub use error::MarketError;
pub use ledger::{Ledger, Transaction};
pub use market::{Market, MarketPolicy, MarketQuote, Purchase};
pub use qbdp_store::{FsyncPolicy, MarketEvent, StoreError};
