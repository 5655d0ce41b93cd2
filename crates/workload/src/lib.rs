#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qbdp-workload — generators and named scenarios
//!
//! Deterministic (seeded) generators for databases, query families, and
//! pricing schemes, plus two realistic scenarios modeled on the
//! marketplaces the paper cites:
//!
//! * [`scenarios::business`] — a CustomLists-style USA business directory
//!   (per-state and per-county selection prices, the paper's §1 example);
//! * [`scenarios::sports`] — an Infochimps-style MLB data market
//!   (Team/Game selection APIs).
//!
//! All randomness flows through [`rand`] with caller-provided seeds so
//! benches and property tests are reproducible.

pub mod dbgen;
pub mod error;
pub mod prices;
pub mod queries;
pub mod scenarios;
pub mod zipf;

pub use dbgen::{populate_random, populate_zipf};
pub use error::WorkloadError;
pub use queries::{
    chain_schema, cycle_schema, h1_schema, h2_schema, h4_schema, star_schema, QuerySet,
};
pub use zipf::Zipf;
