//! Resource governance for pricing: work budgets, deadlines, cooperative
//! cancellation, and the quality tag on degraded quotes.
//!
//! The exact engines are exponential in the worst case (necessarily so —
//! Theorem 3.5), and even the PTIME pipeline can be pushed hard by large
//! instances. A [`Budget`] bounds a pricing computation by **fuel**
//! (abstract work units), a **wall-clock deadline**, and an explicit
//! **cancellation token**; engines check it cooperatively at their loop
//! boundaries.
//!
//! When a budget runs out mid-computation, the engines do not fail: they
//! return the best *sound interval* found so far. The returned price is an
//! **over-estimate** of the arbitrage-price (Equation 2) realized by a
//! concrete determining view set, which is safe to sell: charging at or
//! above the arbitrage-price cannot create arbitrage, because any bundle
//! of purchases that answers the query already costs at least the
//! arbitrage-price. [`QuoteQuality`] records which case a quote is in.

use crate::money::Price;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fuel sentinel meaning "not metered".
const UNLIMITED_FUEL: u64 = u64::MAX;

/// Re-check the wall clock every time this many charged units accumulate
/// (charges are much cheaper than `Instant::now`).
const DEADLINE_GRANULARITY_SHIFT: u32 = 10; // 1024 units

/// A charge at least this large checks the wall clock unconditionally
/// (coarse-grained charges stand for expensive operations).
const LARGE_CHARGE: u64 = 256;

struct Inner {
    fuel: AtomicU64,
    /// The tank's starting level, kept so telemetry can report consumed
    /// fuel (`initial - remaining`) without touching the charge path.
    initial_fuel: u64,
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    charged: AtomicU64,
    /// Set on sub-budgets made by [`Budget::split`]: the parent's state is
    /// observed (cancelling the parent stops every sub-budget) but its
    /// fuel tank is not shared — each job burns only its own share.
    parent: Option<Arc<Inner>>,
}

/// A shareable, cooperatively-checked resource budget.
///
/// Cloning is cheap and shares the same fuel tank, deadline, and
/// cancellation flag, so one budget can govern work spread across helper
/// structures (or threads). Once exhausted — by fuel, deadline, or
/// [`Budget::cancel`] — every subsequent [`Budget::charge`] fails.
#[derive(Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fuel = self.inner.fuel.load(Ordering::Relaxed);
        f.debug_struct("Budget")
            .field(
                "fuel",
                &if fuel == UNLIMITED_FUEL {
                    None
                } else {
                    Some(fuel)
                },
            )
            .field("deadline", &self.inner.deadline)
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .finish()
    }
}

impl Budget {
    fn build(fuel: u64, deadline: Option<Instant>) -> Budget {
        Budget {
            inner: Arc::new(Inner {
                fuel: AtomicU64::new(fuel),
                initial_fuel: fuel,
                deadline,
                cancelled: AtomicBool::new(false),
                charged: AtomicU64::new(0),
                parent: None,
            }),
        }
    }

    /// A budget that never runs out (cancellation still works).
    pub fn unlimited() -> Budget {
        Budget::build(UNLIMITED_FUEL, None)
    }

    /// Bound by fuel only.
    pub fn with_fuel(fuel: u64) -> Budget {
        Budget::build(fuel.min(UNLIMITED_FUEL - 1), None)
    }

    /// Bound by a wall-clock deadline only.
    pub fn with_deadline(timeout: Duration) -> Budget {
        Budget::build(UNLIMITED_FUEL, Some(Instant::now() + timeout))
    }

    /// Bound by both fuel and a deadline.
    pub fn with_fuel_and_deadline(fuel: u64, timeout: Duration) -> Budget {
        Budget::build(fuel.min(UNLIMITED_FUEL - 1), Some(Instant::now() + timeout))
    }

    /// Whether this budget can ever refuse work (fuel- or deadline-bound).
    /// Unlimited budgets let engines keep their hard-cap error behavior;
    /// limited ones switch the engines into degrade-instead-of-fail mode.
    pub fn is_limited(&self) -> bool {
        self.inner.fuel.load(Ordering::Relaxed) != UNLIMITED_FUEL || self.inner.deadline.is_some()
    }

    /// Cooperatively cancel: every in-flight computation sharing this
    /// budget stops at its next charge — including every sub-budget made
    /// by [`Budget::split`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Split the remaining budget into `jobs` independent per-job
    /// sub-budgets, for fanning one admission-controlled request out over
    /// a worker pool:
    ///
    /// * **fuel** is divided evenly — each sub-budget gets its own tank of
    ///   `remaining / jobs` units, so one pathological job cannot starve
    ///   its batch-mates (an unlimited tank splits into unlimited tanks);
    /// * the **deadline** is shared verbatim — wall clock is a collective
    ///   resource and all jobs race the same instant;
    /// * **cancellation** flows down — [`Budget::cancel`] on this budget
    ///   stops every sub-budget at its next charge (but a sub-budget
    ///   exhausting its own share does *not* cancel its siblings).
    ///
    /// The parent's fuel tank is left untouched; callers hand it out
    /// entirely via the split.
    pub fn split(&self, jobs: usize) -> Vec<Budget> {
        let jobs = jobs.max(1);
        let fuel = self.inner.fuel.load(Ordering::Relaxed);
        let share = match fuel {
            UNLIMITED_FUEL => UNLIMITED_FUEL,
            // A dry tank splits into dry tanks, so a zero-fuel policy
            // means the same for a batched quote as for a lone one.
            0 => 0,
            _ => (fuel / jobs as u64).max(1),
        };
        (0..jobs)
            .map(|_| Budget {
                inner: Arc::new(Inner {
                    fuel: AtomicU64::new(share),
                    initial_fuel: share,
                    deadline: self.inner.deadline,
                    cancelled: AtomicBool::new(false),
                    charged: AtomicU64::new(0),
                    parent: Some(Arc::clone(&self.inner)),
                }),
            })
            .collect()
    }

    /// Charge `n` work units. Returns `false` — permanently, for every
    /// subsequent call too — once the budget is exhausted or cancelled.
    /// The wall clock is consulted only every ~1024 charged units (or on
    /// any single charge ≥ 256 units), so fine-grained charging stays
    /// cheap.
    pub fn charge(&self, n: u64) -> bool {
        let inner = &*self.inner;
        if inner.cancelled.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(parent) = &inner.parent {
            if parent.cancelled.load(Ordering::Relaxed) {
                inner.cancelled.store(true, Ordering::Relaxed);
                return false;
            }
        }
        let mut cur = inner.fuel.load(Ordering::Relaxed);
        if cur != UNLIMITED_FUEL {
            loop {
                if cur < n {
                    inner.cancelled.store(true, Ordering::Relaxed);
                    return false;
                }
                match inner.fuel.compare_exchange_weak(
                    cur,
                    cur - n,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        if let Some(deadline) = inner.deadline {
            let n = n.max(1);
            let before = inner.charged.fetch_add(n, Ordering::Relaxed);
            let crossed = (before >> DEADLINE_GRANULARITY_SHIFT)
                != ((before + n) >> DEADLINE_GRANULARITY_SHIFT);
            if (crossed || n >= LARGE_CHARGE) && Instant::now() >= deadline {
                inner.cancelled.store(true, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    /// Fuel consumed so far: the tank's starting level minus what is
    /// left. `0` for unlimited budgets (nothing is metered there).
    /// Telemetry reads this to attach fuel costs to trace spans; it
    /// never touches the charge path.
    pub fn consumed_fuel(&self) -> u64 {
        if self.inner.initial_fuel == UNLIMITED_FUEL {
            0
        } else {
            self.inner
                .initial_fuel
                .saturating_sub(self.inner.fuel.load(Ordering::Relaxed))
        }
    }

    /// Whether the budget is already exhausted (without consuming fuel).
    /// Always consults the wall clock, so use at phase boundaries, not in
    /// inner loops.
    pub fn is_exhausted(&self) -> bool {
        let inner = &*self.inner;
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(parent) = &inner.parent {
            if parent.cancelled.load(Ordering::Relaxed) {
                inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

impl qbdp_flow::Ticker for Budget {
    fn tick(&self, n: u64) -> bool {
        self.charge(n)
    }
}

/// How trustworthy a quoted price is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QuoteQuality {
    /// The exact arbitrage-price (Equation 2).
    Exact,
    /// The budget ran out first: the price is a sound **over-estimate** of
    /// the arbitrage-price, realized by the quoted (genuinely determining)
    /// view set. Selling at this price cannot create arbitrage; the paired
    /// lower bound brackets the true price from below.
    UpperBound,
}

impl QuoteQuality {
    /// `true` for [`QuoteQuality::Exact`].
    pub fn is_exact(self) -> bool {
        matches!(self, QuoteQuality::Exact)
    }
}

/// Outcome of a metered sub-computation that cannot return a partial
/// result of its own type (e.g. a min-cut with no cut extracted yet).
#[derive(Clone, Debug)]
pub enum Metered<T> {
    /// Finished within budget.
    Done(T),
    /// Ran out of budget; `lower_bound` soundly under-estimates the value
    /// the finished computation would have produced.
    Exhausted {
        /// Sound lower bound on the interrupted computation's result.
        lower_bound: Price,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_refuses() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..10_000 {
            assert!(b.charge(u64::MAX / 4));
        }
        assert!(!b.is_exhausted());
    }

    #[test]
    fn fuel_runs_out_and_stays_out() {
        let b = Budget::with_fuel(100);
        assert!(b.is_limited());
        assert!(b.charge(60));
        assert!(b.charge(40));
        assert!(!b.charge(1));
        // Permanently exhausted, even for zero-cost charges.
        assert!(!b.charge(0));
        assert!(b.is_exhausted());
    }

    #[test]
    fn clones_share_the_tank() {
        let a = Budget::with_fuel(10);
        let b = a.clone();
        assert!(a.charge(6));
        assert!(!b.charge(6));
        assert!(a.is_exhausted());
    }

    #[test]
    fn expired_deadline_detected() {
        let b = Budget::with_deadline(Duration::ZERO);
        // Large charges check the clock unconditionally.
        assert!(!b.charge(LARGE_CHARGE));
        assert!(b.is_exhausted());
    }

    #[test]
    fn fine_charges_amortize_deadline_checks() {
        let b = Budget::with_deadline(Duration::ZERO);
        // A single 1-unit charge may pass (clock not consulted yet)…
        let _ = b.charge(1);
        // …but within one granularity window the deadline must bite.
        let mut refused = false;
        for _ in 0..2048 {
            if !b.charge(1) {
                refused = true;
                break;
            }
        }
        assert!(refused);
    }

    #[test]
    fn split_divides_fuel_without_sharing_tanks() {
        let parent = Budget::with_fuel(100);
        let subs = parent.split(4);
        assert_eq!(subs.len(), 4);
        // Each sub-budget owns 25 units; draining one leaves the others.
        assert!(subs[0].charge(25));
        assert!(!subs[0].charge(1));
        assert!(subs[1].charge(25));
        assert!(subs[2].charge(10));
        // A drained sibling does not poison the rest.
        assert!(subs[3].charge(25));
        assert!(!subs[3].charge(1));
    }

    #[test]
    fn split_of_unlimited_stays_unlimited() {
        let subs = Budget::unlimited().split(3);
        for sub in &subs {
            assert!(!sub.is_limited());
            assert!(sub.charge(u64::MAX / 4));
        }
    }

    #[test]
    fn parent_cancellation_reaches_sub_budgets() {
        let parent = Budget::with_fuel(1000);
        let subs = parent.split(2);
        assert!(subs[0].charge(1));
        parent.cancel();
        assert!(!subs[0].charge(1));
        assert!(subs[1].is_exhausted());
    }

    #[test]
    fn split_shares_the_deadline() {
        let parent = Budget::with_fuel_and_deadline(u64::MAX / 2, Duration::ZERO);
        let subs = parent.split(2);
        // Expired deadline is inherited: a large charge must refuse.
        assert!(!subs[0].charge(LARGE_CHARGE));
    }

    #[test]
    fn cancellation_is_cooperative() {
        let b = Budget::unlimited();
        let observer = b.clone();
        assert!(b.charge(1));
        observer.cancel();
        assert!(!b.charge(1));
        assert!(b.is_exhausted());
    }
}
