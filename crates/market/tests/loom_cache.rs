//! Loom-style exhaustive model checking of the durable market's
//! purchase protocol, with no external dependency: a tiny depth-first
//! scheduler enumerates **every** interleaving of the modelled threads
//! at the granularity of their lock-protected critical sections.
//!
//! # Protocol under check
//!
//! **Durable purchase** (`crates/market/src/durable.rs`):
//! price-outside-the-WAL-mutex with generation revalidation, racing a
//! durable mutation. Invariants: the market state always equals the
//! replay of some prefix of the log (*prefix consistency* — the
//! crash-recovery contract), and every logged purchase carries the
//! price of the data it was appended against (*quote freshness*).
//!
//! The quote cache needs no model. It is a field of the market's state:
//! a write invalidates it by `&mut` under the state write lock, and a
//! quote is filled only through the `Miss` its lookup returned, which
//! borrows the state guard it was priced under. So the compiler rules
//! out every interleaving of a write between a lookup and its fill.
//! Its serve safety and the survival of entries disjoint from a write
//! are tested in `concurrent.rs` and the market's unit tests.
//!
//! # Why a model, and why that is sound here
//!
//! `DurableMarket` protects every shared-state transition with a lock;
//! each critical section is linearizable, so any execution of the real
//! code is equivalent to some interleaving of those sections. The model
//! below reproduces the protocol step-for-step at exactly that
//! granularity — one model step per critical section, annotated with
//! the code it mirrors — so exhaustively exploring the model covers
//! every behaviour the real scheduler can produce at this abstraction
//! level.
//!
//! # Teeth
//!
//! The protocol also runs in two seeded-bug variants (skipping the
//! revalidation, and applying a sale before appending it). The same
//! invariants must *catch* both, proving the harness can actually
//! detect violations.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// One scheduling decision's outcome.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Step {
    /// The thread ran one atomic step; its program counter moved.
    Ran(usize),
    /// The thread cannot run now (a mutex it needs is held).
    Blocked,
    /// The thread has finished.
    Done,
}

/// Program-counter value meaning "thread finished".
const DONE: usize = usize::MAX;

/// Depth-first exhaustive scheduler. `step(state, thread, pc)` applies
/// one atomic step and returns the next program counter; `invariant`
/// runs after every step; `at_end` runs on every fully-quiescent final
/// state. Returns the number of distinct complete executions, or the
/// first violation.
fn explore<S: Clone>(
    state: &S,
    pcs: &[usize],
    step: &impl Fn(&mut S, usize, usize) -> Step,
    invariant: &impl Fn(&S) -> Result<(), String>,
    at_end: &impl Fn(&S) -> Result<(), String>,
) -> Result<u64, String> {
    let mut ran_any = false;
    let mut executions = 0u64;
    for t in 0..pcs.len() {
        if pcs[t] == DONE {
            continue;
        }
        let mut s = state.clone();
        let next = match step(&mut s, t, pcs[t]) {
            Step::Blocked => continue,
            Step::Done => DONE,
            Step::Ran(pc) => pc,
        };
        ran_any = true;
        invariant(&s).map_err(|e| format!("after thread {t} pc {}: {e}", pcs[t]))?;
        let mut pcs2 = pcs.to_vec();
        pcs2[t] = next;
        executions += explore(&s, &pcs2, step, invariant, at_end)?;
    }
    if !ran_any {
        if pcs.iter().any(|&p| p != DONE) {
            return Err(format!("deadlock with pcs {pcs:?}"));
        }
        at_end(state)?;
        executions = 1;
    }
    Ok(executions)
}

// ---------------------------------------------------------------------
// The model: DurableMarket purchase vs. durable mutation.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct WalVariant {
    /// `purchase_str` re-checks the cache epoch under the WAL mutex
    /// before logging (durable.rs `purchase_str`); the seeded bug
    /// logs the possibly-stale quote unconditionally.
    revalidate_epoch: bool,
    /// Events are appended to the log before being applied (the
    /// write protocol in durable.rs module docs); the seeded bug
    /// applies the sale first.
    append_before_apply: bool,
}

const CORRECT_WAL: WalVariant = WalVariant {
    revalidate_epoch: true,
    append_before_apply: true,
};

#[derive(Clone, PartialEq, Debug)]
enum Ev {
    /// A durable data/price mutation.
    Mutate,
    /// A logged purchase: the agreed price, plus (as ghost state for
    /// the freshness invariant) the data version at append time.
    Purchase { price: u64, dv_at_append: u64 },
}

#[derive(Clone)]
struct WalState {
    log: Vec<Ev>,
    /// Data version; the arbitrage-free price of the modelled query is
    /// `dv` itself, so staleness is visible.
    dv: u64,
    /// Cache-epoch mirror: bumped by every mutation's apply.
    epoch: u64,
    /// Applied sales (the ledger).
    ledger: Vec<u64>,
    /// WAL mutex owner.
    mutex_held_by: Option<usize>,
    /// Prices acknowledged (returned `Ok`) to the buyer.
    acked: Vec<u64>,
    // Purchaser locals.
    p_epoch: u64,
    p_quote: u64,
    p_retries: u32,
}

/// Threads: 0 = purchaser (`DurableMarket::purchase_str`),
/// 1 = mutator (`DurableMarket::insert` / `set_price`).
fn wal_step(v: WalVariant) -> impl Fn(&mut WalState, usize, usize) -> Step {
    move |s, t, pc| match (t, pc) {
        // Purchaser.
        (0, 0) => {
            // Under the state read lock: `cache_epoch_at`.
            s.p_epoch = s.epoch;
            Step::Ran(1)
        }
        (0, 1) => {
            // Under the state read lock: `evaluate_purchase` prices
            // against the current data.
            s.p_quote = s.dv;
            Step::Ran(2)
        }
        (0, 2) => {
            // `self.wal.lock()`.
            if s.mutex_held_by.is_some() {
                return Step::Blocked;
            }
            s.mutex_held_by = Some(0);
            Step::Ran(3)
        }
        (0, 3) => {
            // Revalidate under the mutex; on mismatch drop the lock and
            // re-price (bounded retries, then Contended without an ack).
            if v.revalidate_epoch && s.epoch != s.p_epoch {
                s.mutex_held_by = None;
                s.p_retries += 1;
                return if s.p_retries > 2 {
                    Step::Done
                } else {
                    Step::Ran(0)
                };
            }
            Step::Ran(if v.append_before_apply { 4 } else { 5 })
        }
        (0, 4) => {
            // Append the purchase event.
            s.log.push(Ev::Purchase {
                price: s.p_quote,
                dv_at_append: s.dv,
            });
            Step::Ran(if v.append_before_apply { 5 } else { 6 })
        }
        (0, 5) => {
            // Apply: record the sale in the ledger.
            s.ledger.push(s.p_quote);
            Step::Ran(if v.append_before_apply { 6 } else { 4 })
        }
        (0, 6) => {
            // Release and acknowledge to the buyer.
            s.mutex_held_by = None;
            s.acked.push(s.p_quote);
            Step::Done
        }
        // Mutator.
        (1, 0) => {
            if s.mutex_held_by.is_some() {
                return Step::Blocked;
            }
            s.mutex_held_by = Some(1);
            Step::Ran(1)
        }
        (1, 1) => {
            s.log.push(Ev::Mutate);
            Step::Ran(2)
        }
        (1, 2) => {
            // Apply under the state write lock: mutate the data and
            // bump the cache epoch in the same critical section.
            s.dv += 1;
            s.epoch += 1;
            Step::Ran(3)
        }
        (1, 3) => {
            s.mutex_held_by = None;
            Step::Done
        }
        _ => unreachable!("no such step: thread {t} pc {pc}"),
    }
}

/// Replay a log prefix from genesis.
fn replay(log: &[Ev]) -> (u64, Vec<u64>) {
    let mut dv = 0;
    let mut ledger = Vec::new();
    for ev in log {
        match ev {
            Ev::Mutate => dv += 1,
            Ev::Purchase { price, .. } => ledger.push(*price),
        }
    }
    (dv, ledger)
}

/// Prefix consistency (the crash-recovery contract: cutting the log at
/// any point must recover a state the market actually passed through)
/// plus quote freshness for every logged purchase.
fn wal_invariant(s: &WalState) -> Result<(), String> {
    let consistent = (0..=s.log.len()).any(|k| replay(&s.log[..k]) == (s.dv, s.ledger.clone()));
    if !consistent {
        return Err(format!(
            "state (dv {}, ledger {:?}) is not the replay of any log prefix ({:?})",
            s.dv, s.ledger, s.log
        ));
    }
    for ev in &s.log {
        if let Ev::Purchase {
            price,
            dv_at_append,
        } = ev
        {
            if price != dv_at_append {
                return Err(format!(
                    "stale purchase logged: agreed price {price}, price at append {dv_at_append}"
                ));
            }
        }
    }
    Ok(())
}

/// At quiescence: everything applied (the state equals the full-log
/// replay) and every acknowledged purchase is in the durable ledger.
fn wal_at_end(s: &WalState) -> Result<(), String> {
    if replay(&s.log) != (s.dv, s.ledger.clone()) {
        return Err("final state does not equal full-log replay".to_string());
    }
    for p in &s.acked {
        if !s.ledger.contains(p) {
            return Err(format!("acknowledged purchase {p} missing from the ledger"));
        }
    }
    Ok(())
}

fn run_wal(v: WalVariant) -> Result<u64, String> {
    let init = WalState {
        log: Vec::new(),
        dv: 0,
        epoch: 0,
        ledger: Vec::new(),
        mutex_held_by: None,
        acked: Vec::new(),
        p_epoch: 0,
        p_quote: 0,
        p_retries: 0,
    };
    explore(&init, &[0, 0], &wal_step(v), &wal_invariant, &wal_at_end)
}

#[test]
fn durable_purchase_protocol_is_safe_under_all_interleavings() {
    let executions = run_wal(CORRECT_WAL).expect("shipped protocol must be clean");
    assert!(executions >= 10, "only {executions} interleavings explored");
}

#[test]
fn seeded_skipping_revalidation_logs_a_stale_price() {
    let err = run_wal(WalVariant {
        revalidate_epoch: false,
        ..CORRECT_WAL
    })
    .expect_err("harness must catch the stale logged purchase");
    assert!(
        err.contains("stale purchase"),
        "unexpected violation: {err}"
    );
}

#[test]
fn seeded_apply_before_append_breaks_prefix_consistency() {
    let err = run_wal(WalVariant {
        append_before_apply: false,
        ..CORRECT_WAL
    })
    .expect_err("harness must catch the unlogged application window");
    assert!(
        err.contains("not the replay"),
        "unexpected violation: {err}"
    );
}
