//! # qbdp — query-based data pricing
//!
//! A complete Rust implementation of *Koutris, Upadhyaya, Balazinska, Howe,
//! Suciu: "Query-Based Data Pricing" (PODS 2012)*: given explicit prices on
//! a few selection views, derive the unique arbitrage-free, discount-free
//! price of **any** relational query.
//!
//! ```
//! use qbdp::prelude::*;
//!
//! // Figure 1 of the paper: three relations, $1 per selection view.
//! let ax = Column::texts(["a1", "a2", "a3", "a4"]);
//! let by = Column::texts(["b1", "b2", "b3"]);
//! let catalog = CatalogBuilder::new()
//!     .relation("R", &[("X", ax.clone())])
//!     .relation("S", &[("X", ax), ("Y", by.clone())])
//!     .relation("T", &[("Y", by)])
//!     .build()
//!     .unwrap();
//! let mut d = catalog.empty_instance();
//! let (r, s, t) = (
//!     catalog.schema().rel_id("R").unwrap(),
//!     catalog.schema().rel_id("S").unwrap(),
//!     catalog.schema().rel_id("T").unwrap(),
//! );
//! d.insert_all(r, [tuple!["a1"], tuple!["a2"]]).unwrap();
//! d.insert_all(s, [tuple!["a1", "b1"], tuple!["a1", "b2"],
//!                  tuple!["a2", "b2"], tuple!["a4", "b1"]]).unwrap();
//! d.insert_all(t, [tuple!["b1"], tuple!["b3"]]).unwrap();
//!
//! let prices = PriceList::uniform(&catalog, Price::dollars(1));
//! let pricer = Pricer::new(catalog.clone(), d, prices).unwrap();
//! let q = parse_rule(catalog.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
//! let quote = pricer.price_cq(&q).unwrap();
//! assert_eq!(quote.price, Price::dollars(6)); // Example 3.8
//! ```
//!
//! The workspace crates, each documented on its own:
//!
//! * [`catalog`] — schemas, finite columns, instances;
//! * [`query`] — CQ/UCQ ASTs, datalog parser, evaluator, chain analysis;
//! * [`flow`] — max-flow / min-cut (Dinic), from scratch;
//! * [`determinacy`] — instance-based determinacy `D ⊢ V ։ Q`;
//! * [`core`] — the pricing framework: arbitrage-price, consistency, the
//!   GChQ Min-Cut algorithm, cycle queries, the dichotomy classifier,
//!   exact engines, dynamic pricing;
//! * [`market`] — a thread-safe marketplace with quotes, purchases, a
//!   ledger, and live updates;
//! * [`store`] — durable market state: a write-ahead log, atomic
//!   snapshots, and crash recovery;
//! * [`workload`] — generators and realistic scenarios for benchmarks.

#![forbid(unsafe_code)]

pub mod cli;

pub use qbdp_catalog as catalog;
pub use qbdp_core as core;
pub use qbdp_determinacy as determinacy;
pub use qbdp_flow as flow;
pub use qbdp_market as market;
pub use qbdp_query as query;
pub use qbdp_store as store;
pub use qbdp_workload as workload;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use qbdp_catalog::{
        tuple, AttrRef, Catalog, CatalogBuilder, Column, Instance, QdpFile, RelId, Schema, Tuple,
        Value,
    };
    pub use qbdp_core::consistency::{find_list_arbitrage, list_is_consistent};
    pub use qbdp_core::dichotomy::{classify, QueryClass};
    pub use qbdp_core::price_points::{PriceList, PricePoint, PriceSchedule, ViewDef};
    pub use qbdp_core::{Budget, Price, Pricer, PricingError, PricingMethod, Quote, QuoteQuality};
    pub use qbdp_determinacy::selection::{SelectionView, ViewSet};
    pub use qbdp_market::{
        DurableMarket, DurableOptions, Market, MarketError, MarketOps, MarketPolicy, MarketQuote,
        Purchase,
    };
    pub use qbdp_query::ast::{ConjunctiveQuery, CqBuilder, Pred, Ucq};
    pub use qbdp_query::bundle::Bundle;
    pub use qbdp_query::parser::{parse_query, parse_rule};
    pub use qbdp_store::{FsyncPolicy, MarketEvent, StoreError};
}
