//! Step 4: pricing chain queries by reduction to Min-Cut (§3.1).

pub mod bundle;
pub mod graph;
pub mod multi_attr;
pub mod price;

pub use bundle::{chain_bundle_price, BundlePriceResult};
pub use graph::ChainGraph;
pub use price::{chain_price, ChainPriceResult};
