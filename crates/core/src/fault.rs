//! Fault injection for robustness tests.
//!
//! The market layer promises to survive a panicking pricing engine. That
//! promise needs a way to *make* an engine panic on demand: tests arm a
//! one-shot trap here, and [`crate::pricer::Pricer::price_cq_within`]
//! trips it at entry. Production code never arms it, so the fast path is
//! one relaxed atomic load.

use std::sync::atomic::{AtomicBool, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);

/// Arm a one-shot panic: the next pricing call panics (once), then
/// behavior returns to normal.
#[doc(hidden)]
pub fn arm_panic() {
    ARMED.store(true, Ordering::SeqCst);
}

/// Trip the trap if armed. Called at pricing entry points.
#[doc(hidden)]
#[expect(
    clippy::panic,
    reason = "fault injection exists to panic; armed only by tests"
)]
pub fn maybe_panic() {
    if ARMED.load(Ordering::Relaxed) && ARMED.swap(false, Ordering::SeqCst) {
        panic!("injected fault: pricing engine panic (tests only)");
    }
}
