//! Every shape here discards a `Result` that can carry a transient
//! store error, so clippy must reject this crate twice: once per lint
//! the store, market and serve crate roots deny. (The bare `f();`
//! shape is rustc's `unused_must_use`, held by a `compile_fail`
//! doctest in `qbdp-store`.)

#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

/// Stands in for a store write that can fail transiently.
pub fn flaky_write() -> Result<(), std::io::Error> {
    Err(std::io::Error::from(std::io::ErrorKind::Interrupted))
}

/// `let _ = f()`: clippy::let_underscore_must_use.
pub fn ignore_by_binding() {
    let _ = flaky_write();
}

/// `f().ok();`: clippy::unused_result_ok.
pub fn ignore_by_ok() {
    flaky_write().ok();
}
