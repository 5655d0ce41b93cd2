#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qbdp-core — the query-based pricing framework (PODS 2012)
//!
//! This crate implements the primary contribution of *Koutris, Upadhyaya,
//! Balazinska, Howe, Suciu: "Query-Based Data Pricing"*: given a database
//! instance and a set of explicit price points on views, derive the unique
//! arbitrage-free, discount-free price of **any** query (the
//! *arbitrage-price*, Equation 2).
//!
//! Layout, mirroring the paper:
//!
//! * [`money`] — exact fixed-point prices;
//! * [`price_points`] — the seller's explicit price points: the general
//!   framework's bundles-of-views schedule (§2.4) and the practical
//!   per-selection-view price list (§3);
//! * [`support`] — the fundamental formula: supports (Eq. 1), the
//!   arbitrage-price (Eq. 2), and consistency (Theorem 2.15);
//! * [`consistency`] — the instance-independent consistency test for
//!   selection-view price lists (Proposition 3.2);
//! * [`exact`] — two independent exact pricing engines (subset
//!   branch-and-bound over Eq. 2; weighted hitting set over determinacy
//!   certificates) used for NP-hard queries and as ground truth;
//! * [`gchq`] + [`normalize`] + [`chain`] — the main PTIME algorithm
//!   (Theorem 3.7): GChQ recognition, Steps 1–3, and the Step 4 reduction
//!   to Min-Cut;
//! * [`cycle`] — cycle queries `C_k` (Theorem 3.15);
//! * [`boolean`] — boolean queries (dichotomy case 3);
//! * [`disconnected`] — price composition across connected components
//!   (Proposition 3.14);
//! * [`dichotomy`] — the PTIME / NP-complete classifier (Theorem 3.16);
//! * [`pricer`] — the façade that dispatches a query to the right engine
//!   and returns a [`pricer::Quote`];
//! * [`dynamic`] — updates, consistency preservation, and price
//!   monotonicity (§2.7);
//! * [`budget`] + [`degrade`] — resource governance: fuel/deadline budgets
//!   checked cooperatively inside every engine, and the sound degraded
//!   quotes (upper bound + lower bound) returned when a budget runs out;
//! * [`batch`] — parallel batch pricing: a scoped worker pool (shared
//!   injector, per-worker Dinic arenas, fuel split across jobs) that
//!   prices many jobs concurrently with per-job panic containment;
//! * [`plan_cache`] — the incremental pricing engine: a shape-keyed cache
//!   of normalized plans + solved flow networks, repriced by residual
//!   warm starts so repeated query shapes under changed price vectors pay
//!   only the min-cut delta (bit-identical to cold pricing).

pub mod batch;
pub mod boolean;
pub mod budget;
pub mod chain;
pub mod consistency;
pub mod cycle;
pub mod degrade;
pub mod dichotomy;
pub mod disconnected;
pub mod dynamic;
pub mod error;
pub mod exact;
pub mod fault;
pub mod gchq;
pub mod money;
pub mod normalize;
pub mod plan_cache;
pub mod price_points;
pub mod pricer;
pub mod support;

pub use budget::{Budget, QuoteQuality};
pub use error::PricingError;
pub use money::Price;
pub use plan_cache::{price_planned, query_footprint, shape_key, PlanCache, PlanStats};
pub use price_points::{PriceList, PricePoint, PriceSchedule, ViewDef};
pub use pricer::{Pricer, PricingMethod, Quote};
