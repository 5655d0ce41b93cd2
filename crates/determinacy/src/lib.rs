#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qbdp-determinacy — instance-based determinacy `D ⊢ V ։ Q`
//!
//! The pricing framework of PODS 2012 is built on *instance-based
//! determinacy* (Definition 2.2): `V` determines `Q` given `D` iff for every
//! instance `D'` with `V(D') = V(D)` we have `Q(D') = Q(D)`. This crate
//! implements:
//!
//! * [`selection`] — selection views `σ_{R.X=a}` ([`SelectionView`],
//!   [`ViewSet`]), Lemma 3.1 (when selection views determine another
//!   selection or a whole relation), and the **Theorem 3.3 oracle**: for
//!   `V ⊆ Σ` and any monotone PTIME query, determinacy is decided in PTIME
//!   via the canonical minimal/maximal possible worlds `D_min ⊆ D' ⊆ D_max`;
//! * [`bruteforce`] — the general (co-NP) relation for arbitrary UCQ-bundle
//!   views by explicit enumeration of possible worlds, usable on tiny
//!   instances and as ground truth in property tests (Theorem 2.3);
//! * [`restricted`] — the restriction `։*` of Proposition 2.24, which is
//!   monotone under insertions and repairs the dynamic-pricing anomalies of
//!   Example 2.18.
//!
//! ## Possible-world convention
//!
//! Throughout the workspace, the instances `D'` quantified over in
//! determinacy respect the schema **and the declared columns** (the
//! inclusion constraint `R.X ⊆ Col_{R.X}` of §3, which the paper assumes for
//! the database and which buyers know). This matches the paper's Min-Cut
//! construction, which enumerates candidate tuples over columns only.

pub mod bruteforce;
pub mod restricted;
pub mod selection;

pub use bruteforce::{
    candidate_universe, determines_bruteforce, enumerate_worlds, BruteforceError,
    WorldLimitExceeded,
};
pub use restricted::{determines_restricted, RestrictedError};
pub use selection::{
    determines_monotone_bundle, determines_monotone_cq, determines_monotone_ucq,
    determines_relation, determines_selection, max_world, min_world, SelectionView, ViewSet,
};
