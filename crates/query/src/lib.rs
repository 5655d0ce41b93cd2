#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qbdp-query — conjunctive queries, UCQs, and bundles
//!
//! The query substrate for query-based data pricing (PODS 2012):
//!
//! * [`ast`]: conjunctive queries with interpreted unary predicates, unions
//!   of conjunctive queries, and *query bundles* (the objects that are
//!   priced, paper §2.1);
//! * [`parser`]: a datalog-style surface syntax
//!   (`Q(x, y) :- R(x), S(x, y), y > 3`);
//! * [`eval`]: a join-based evaluator `Q(D)`;
//! * [`analysis`]: structural properties driving the dichotomy theorem
//!   (full, self-join-free, connected components, hanging variables);
//! * [`chain`]: chain queries (Definition 3.12) and their partial-answer
//!   tables `Lt`, `Md`, `Rt` used by the Min-Cut reduction;
//! * [`homomorphism`]: classical CQ containment, used to demonstrate that
//!   pricing is deliberately *not* monotone w.r.t. containment (§4).
//!
//! Convention: in query syntax, bare identifiers are **variables**;
//! constants are integers or `'quoted strings'`.

pub mod analysis;
pub mod ast;
pub mod bundle;
pub mod chain;
pub mod error;
pub mod eval;
pub mod homomorphism;
pub mod parser;
pub mod pretty;

pub use ast::{Atom, ConjunctiveQuery, Pred, PredAtom, Term, Ucq, Var};
pub use bundle::Bundle;
pub use chain::{ChainQuery, PartialAnswers};
pub use error::QueryError;
pub use parser::{parse_query, parse_rule};
