#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qbdp-catalog — relational substrate for query-based data pricing
//!
//! This crate implements the data model of *Koutris, Upadhyaya, Balazinska,
//! Howe, Suciu: "Query-Based Data Pricing", PODS 2012*:
//!
//! * a relational [`Schema`] of named relations with named attributes,
//! * typed [`Value`]s and [`Tuple`]s,
//! * finite, publicly-known [`Column`]s `Col_{R.X}` per attribute — the sets
//!   of values a selection view `σ_{R.X=a}` may select on, satisfying the
//!   inclusion constraint `R.X ⊆ Col_{R.X}` (paper §3, "The Views"),
//! * database [`Instance`]s storing each row once, with per-attribute hash
//!   indexes built on first use,
//! * a [`Catalog`] bundling a schema with its columns,
//! * a small line-oriented text format ([`qdp`]) for catalogs, instances and
//!   raw price directives.
//!
//! Everything downstream (queries, determinacy, pricing) is built on these
//! types. The crate has no third-party dependencies.

pub mod builder;
pub mod catalog;
pub mod column;
pub mod error;
pub mod fxhash;
pub mod instance;
pub mod qdp;
pub mod schema;
pub mod tuple;
pub mod value;

pub use builder::CatalogBuilder;
pub use catalog::{Catalog, CheckedInstance};
pub use column::Column;
pub use error::CatalogError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use instance::{Instance, Relation};
pub use qdp::QdpFile;
pub use schema::{AttrId, AttrRef, RelId, RelationSchema, Schema, ShowAttr};
pub use tuple::Tuple;
pub use value::Value;
