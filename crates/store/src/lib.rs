#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

//! # qbdp-store — durable market state
//!
//! A write-ahead log plus snapshots, so a market survives restarts and
//! crashes: every mutation is appended to a checksummed, length-prefixed
//! log *before* it is applied in memory, and periodic [`Snapshot`]s bound
//! replay time. Recovery is snapshot-load + suffix-replay, and is
//! **prefix-consistent**: whatever byte a crash (or `kill -9`, or a torn
//! write) leaves the log at, the recovered state equals a market that
//! applied exactly the durable prefix of the history — never a
//! half-applied event, never a resurrected one.
//!
//! The crate is deliberately market-agnostic: it speaks [`MarketEvent`]s
//! whose fields are rendered literals, and snapshots carry opaque named
//! text sections. `qbdp-market`'s `DurableMarket` owns the semantics
//! (what applying an event *means*); this crate owns the bytes (framing,
//! checksums, fsync, atomic rename, torn-tail truncation).
//!
//! * [`wal`] — the append-only log: CRC-framed records, configurable
//!   [`FsyncPolicy`], torn-tail repair on open;
//! * [`snapshot`] — atomic (temp file + rename) checksummed snapshots
//!   recording the log position they cover;
//! * [`event`] — the typed event vocabulary and its wire encoding;
//! * [`error`] — [`StoreError`] and the [`FaultClass`] taxonomy: the
//!   load-bearing distinctions between a *torn tail* (expected crash
//!   residue, truncated silently), a *corrupt record* (damage, refused
//!   loudly), a *transient* fault (retried, then surfaced typed), and a
//!   *poisoned* log (fsyncgate; appends refused, reads still sound);
//! * [`vfs`] — the filesystem seam: [`RealFs`] for production and
//!   [`FaultFs`], a deterministic fault injector (scripted + seeded
//!   EINTR/ENOSPC/fsync-failure/torn-write faults, durability-aware
//!   crash simulation) that the chaos harness drives;
//! * [`scrub()`] — a background-free integrity pass verifying every
//!   snapshot and WAL checksum before the bytes are load-bearing.
//!
//! ## No silently discarded store error
//!
//! A `Result` that can carry [`StoreError::Transient`] is handled or
//! propagated, never dropped. This crate, `qbdp-market` and
//! `qbdp-serve` deny clippy's `let_underscore_must_use` (`let _ = f()`)
//! and `unused_result_ok` (`f().ok();`) at their roots; a deliberate
//! discard carries `#[expect(clippy::…, reason = "…")]`. A bare `f();`
//! is rustc's `unused_must_use`, an error under CI's `-D warnings`:
//!
//! ```compile_fail
//! #![deny(unused_must_use)]
//! fn persist() -> Result<(), qbdp_store::StoreError> {
//!     Ok(())
//! }
//! persist();
//! ```
//!
//! Doctests do not run clippy, so the two clippy shapes are checked by
//! CI against `crates/audit/tests/fixtures/discard`, a crate that must
//! fail clippy naming both lints.

pub mod crc;
pub mod error;
pub mod event;
pub mod scrub;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use error::{FaultClass, StoreError};
pub use event::MarketEvent;
pub use scrub::{scrub, ScrubFinding, ScrubReport};
pub use snapshot::Snapshot;
pub use vfs::{
    FaultFs, FaultKind, FaultOp, FaultPlan, RealFs, RetryPolicy, ScriptedFault, SeededFaults, Vfs,
    VfsFile,
};
pub use wal::{records_from, FsyncPolicy, LogRecord, Wal};
