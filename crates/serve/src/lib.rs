//! `qbdp-serve`: the serving layer — a from-scratch, non-blocking
//! TCP/HTTP-1.1 quote server over [`qbdp_market::MarketOps`].
//!
//! The build environment is offline (no tokio, no mio, no libc crate),
//! so the whole stack is local: [`sys`] declares the few readiness and
//! signal syscalls by hand (epoll on Linux with a portable `poll(2)`
//! fallback), [`http`] is an incremental HTTP/1.1 parser with strict
//! framing, and [`server`] is a single-threaded event loop that feeds
//! every tick's completed `/quote` requests into one
//! `Market::quote_batch` call — parallel pricing and the sharded quote
//! cache live in the market, not here.
//!
//! Endpoints:
//!
//! | endpoint | body | response |
//! |---|---|---|
//! | `POST /quote` | datalog rules, one per line | one quote object, or `{"quotes":[...]}` for multi-line bodies |
//! | `POST /purchase` | exactly one datalog rule | `{"transaction_id", "quote", "answer"}` |
//! | `GET /health` | — | 200 healthy / 503 read-only with the store-layer reason |
//! | `GET /metrics` | — | Prometheus text exposition of the qbdp-obs registry |
//!
//! Market errors map to typed statuses (see [`json::status`]); framing
//! errors are 400/413 and close the connection. Graceful shutdown
//! ([`ShutdownFlag`]) drains fully-received requests and flushes before
//! returning, so the caller can sync and snapshot a durable market with
//! nothing acked-but-unanswered in flight.

// Unlike the rest of the workspace this crate cannot `forbid` unsafe
// outright — `sys` declares the epoll/poll/signal syscalls by hand.
// `deny` at the root keeps every other module clean; `sys` opts back in
// with a module-level allow and per-block `// SAFETY:` justifications
// (`clippy::undocumented_unsafe_blocks`).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

pub mod conn;
pub mod http;
pub mod json;
pub mod server;
pub mod sys;

pub use http::{Limits, Method, Request, Response, ResponseParser};
pub use server::{ServeError, ServeStats, Server, ServerConfig, ShutdownFlag};

// The server holds its market as `&dyn MarketOps`; this line is the
// compile-time object-safety assertion the trait's contract promises.
const _: Option<&dyn qbdp_market::MarketOps> = None;
