//! Parallel batch pricing: fan a slice of jobs over a scoped worker
//! pool ([`fan_out`]; the market prices its quote misses on it too).
//!
//! Equation 2 makes the arbitrage-price a pure function of the instance
//! epoch, the (normalized) query, and the price points — quotes for
//! different queries share no mutable state, so a batch of them is
//! embarrassingly parallel. The pool is `N` scoped `std` threads, the
//! caller's among them, claiming job indices from one atomic cursor; each
//! worker prices whole jobs, so its thread-local Dinic arena (see
//! `qbdp_flow::DinicArena`) is reused across every flow run it performs.
//! The caller's [`Budget`] is [split][Budget::split] across jobs — fuel
//! divided evenly, the wall-clock deadline shared — so a batch obeys the
//! same governance envelope as the serial loop it replaces.
//!
//! Panic containment is per job: a pricing engine that panics poisons only
//! its own slot (surfacing as [`PricingError::Internal`]), never its
//! batch-mates.

use crate::budget::Budget;
use crate::error::PricingError;
use crate::pricer::{Pricer, Quote};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Worker count used when the caller does not pick one: the machine's
/// available parallelism (1 when it cannot be determined). Read once per
/// process — on Linux the query parses cgroup files, which cost more
/// than a warm reprice.
pub fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The message of a caught panic payload, for the `Internal` errors
/// that report contained engine panics.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "pricing engine panicked".to_string())
}

/// Run `job` over every input on a scoped pool of `workers` threads
/// claiming jobs from a shared cursor; `workers` is clamped to
/// `[1, jobs.len()]` and counts the caller's thread, which works too, so
/// `workers - 1` threads are spawned (none for one worker). Outputs are
/// positionally aligned with the inputs. `job` should contain its own
/// panics: one that escapes anyway leaves `None` in its job's slot, and
/// its worker goes on to the next job.
pub fn fan_out<J: Send, T: Send>(
    jobs: Vec<J>,
    workers: usize,
    job: impl Fn(J) -> T + Sync,
) -> Vec<Option<T>> {
    let run = |j: J| catch_unwind(AssertUnwindSafe(|| job(j))).ok();
    let n = jobs.len();
    let helpers = workers.clamp(1, n.max(1)) - 1;
    if helpers == 0 {
        return jobs.into_iter().map(run).collect();
    }
    // Each slot is locked once, by the one worker whose cursor claimed it.
    let jobs: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    // One worker = one OS thread = one thread-local Dinic arena reused
    // across every job it claims.
    let work = || {
        let mut done: Vec<(usize, T)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = jobs.get(i) else {
                return done;
            };
            let claimed = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            if let Some(t) = claimed.and_then(&run) {
                done.push((i, t));
            }
        }
    };
    let done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in spawned {
            done.extend(handle.join().unwrap_or_default());
        }
        done
    });
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    for (i, t) in done {
        slots[i] = Some(t);
    }
    slots
}

impl Pricer {
    /// Parse and price a batch of datalog rules in parallel on
    /// `workers` threads (see [`fan_out`]).
    ///
    /// The budget is [split][Budget::split] into one sub-budget per
    /// rule: fuel is divided evenly across the batch, the deadline is
    /// shared, and cancelling the parent budget stops every job. Results
    /// are positionally aligned with `rules`; a parse error or an engine
    /// panic fails only its own slot.
    pub fn price_rules_batch_within(
        &self,
        rules: &[&str],
        budget: &Budget,
        workers: usize,
    ) -> Vec<Result<Quote, PricingError>> {
        let jobs: Vec<(&str, Budget)> = rules
            .iter()
            .copied()
            .zip(budget.split(rules.len()))
            .collect();
        fan_out(jobs, workers, |(rule, sub)| {
            catch_unwind(AssertUnwindSafe(|| self.price_rule_within(rule, &sub)))
                .unwrap_or_else(|p| Err(PricingError::Internal(panic_message(p))))
        })
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(PricingError::Internal(
                    "batch worker died before pricing this job".to_string(),
                ))
            })
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Price;
    use crate::price_points::PriceList;
    use qbdp_catalog::{tuple, CatalogBuilder, Column};
    use qbdp_query::parser::parse_rule;

    fn pricer() -> Pricer {
        let ax = Column::texts(["a1", "a2", "a3", "a4"]);
        let by = Column::texts(["b1", "b2", "b3"]);
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", ax.clone())])
            .relation("S", &[("X", ax), ("Y", by.clone())])
            .relation("T", &[("Y", by)])
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(
            cat.schema().rel_id("R").unwrap(),
            [tuple!["a1"], tuple!["a2"]],
        )
        .unwrap();
        d.insert_all(
            cat.schema().rel_id("S").unwrap(),
            [tuple!["a1", "b1"], tuple!["a1", "b2"], tuple!["a2", "b2"]],
        )
        .unwrap();
        d.insert_all(
            cat.schema().rel_id("T").unwrap(),
            [tuple!["b1"], tuple!["b3"]],
        )
        .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        Pricer::new(cat, d, prices).unwrap()
    }

    fn queries() -> Vec<&'static str> {
        vec![
            "Q(x, y) :- R(x), S(x, y), T(y)",
            "Q(x) :- R(x)",
            "Q(x, y) :- S(x, y)",
            "Q(y) :- T(y)",
            "Q(x, y) :- R(x), S(x, y)",
            "B() :- R(x), S(x, y), T(y)",
        ]
    }

    #[test]
    fn batch_matches_serial_quotes() {
        let p = pricer();
        let rules = queries();
        let serial: Vec<Price> = rules
            .iter()
            .map(|r| {
                let q = parse_rule(p.catalog().schema(), r).unwrap();
                p.price_cq(&q).unwrap().price
            })
            .collect();
        for workers in [1, 2, 4, 16] {
            let batch = p.price_rules_batch_within(&rules, &Budget::unlimited(), workers);
            let batch_prices: Vec<Price> = batch.into_iter().map(|r| r.unwrap().price).collect();
            assert_eq!(batch_prices, serial, "workers={workers}");
        }
    }

    #[test]
    fn an_escaping_panic_empties_only_its_slot() {
        for workers in [1, 3] {
            let out = fan_out((0..8u32).collect(), workers, |i| {
                if i == 5 {
                    panic!("job 5 escapes");
                }
                i * 2
            });
            let expected: Vec<Option<u32>> = (0..8).map(|i| (i != 5).then_some(i * 2)).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    /// Two workers are the caller and one spawned thread: the first two
    /// jobs wait for each other, so each runs on a different worker.
    #[test]
    fn the_caller_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        let both = std::sync::Barrier::new(2);
        let ran_on = fan_out((0..6u32).collect(), 2, |i| {
            if i < 2 {
                both.wait();
            }
            std::thread::current().id()
        });
        let threads: std::collections::HashSet<_> =
            ran_on.into_iter().map(Option::unwrap).collect();
        assert!(threads.contains(&caller));
        assert_eq!(threads.len(), 2);
    }

    #[test]
    fn batch_slots_align_with_inputs_and_isolate_parse_errors() {
        let p = pricer();
        let rules = vec!["Q(x) :- R(x)", "this is not datalog", "Q(y) :- T(y)"];
        let out = p.price_rules_batch_within(&rules, &Budget::unlimited(), 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_batch_is_empty() {
        let p = pricer();
        assert!(p
            .price_rules_batch_within(&[], &Budget::unlimited(), 2)
            .is_empty());
    }

    #[test]
    fn batch_respects_fuel_split() {
        let p = pricer();
        let rules = queries();
        // A starvation budget degrades every job instead of erroring.
        let out = p.price_rules_batch_within(&rules, &Budget::with_fuel(6), 2);
        for r in out {
            let quote = r.unwrap();
            assert!(
                !quote.quality.is_exact(),
                "starved jobs must degrade, got exact {quote:?}"
            );
        }
    }
}
