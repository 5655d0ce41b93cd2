//! Loom-style exhaustive model checking of the market's two core
//! concurrency protocols, with no external dependency: a tiny
//! depth-first scheduler enumerates **every** interleaving of the
//! modelled threads at the granularity of their lock-protected
//! critical sections.
//!
//! # Protocols under check
//!
//! 1. **Quote-cache invalidation, single-column projection**
//!    (`crates/market/src/cache.rs`): bump-then-sweep epoch
//!    invalidation racing a cache fill and a cache read, projected onto
//!    one column — the degenerate case of the per-column protocol where
//!    every footprint is the same singleton, which already exhibits the
//!    bump/sweep ordering races, plus the `filled` flag that lets an
//!    invalidation skip the sweep of a cache nothing was inserted into
//!    since the last reset, with a reset racing the rest. Invariants: a
//!    served quote always equals the price derived from the current
//!    data (*serve safety*), and no entry tagged with a dead epoch
//!    survives quiescence (*hygiene* — the module docs' "no dead entry
//!    lingers" claim).
//! 2. **Durable purchase** (`crates/market/src/durable.rs`):
//!    price-outside-the-WAL-mutex with generation revalidation, racing
//!    a durable mutation. Invariants: the market state always equals
//!    the replay of some prefix of the log (*prefix consistency* — the
//!    crash-recovery contract), and every logged purchase carries the
//!    price of the data it was appended against (*quote freshness*).
//! 3. **Per-column epoch protocol** (`crates/market/src/cache.rs` +
//!    `Market::quote_batch`): footprint stamps over two columns, a
//!    column-scoped update, and a two-slot batch quoter. On top of
//!    serve safety and hygiene, two properties specific to
//!    column-scoping: an entry whose footprint is disjoint from the
//!    update must *survive* invalidation in every interleaving
//!    (*disjoint survivor* — the whole point of column scoping), and a
//!    quote priced against the final data must not be discarded by its
//!    own stamp recheck (*utility* — catches the whole-batch-stamp
//!    refactor, which is safe but silently stops the cache from
//!    filling).
//!
//! # Why a model, and why that is sound here
//!
//! `ShardedQuoteCache` and `DurableMarket` protect every shared-state
//! transition with a lock or a single atomic; each critical section is
//! linearizable, so any execution of the real code is equivalent to
//! some interleaving of those sections. The models below reproduce the
//! protocols step-for-step at exactly that granularity — one model
//! step per critical section or bare atomic, annotated with the code
//! it mirrors — so exhaustively exploring the model covers every
//! behaviour the real scheduler can produce at this abstraction level.
//!
//! # Teeth
//!
//! Each protocol also runs in seeded-bug variants (one ordering or one
//! check deliberately broken: clear-then-bump, fill without the epoch
//! re-check, serve without the epoch check, raise the fill flag after
//! the re-check, lower it after the reset's clear, skipping revalidation,
//! apply-before-append, sweep-then-bump, stamp-after-pricing,
//! whole-batch stamping). The same invariants must *catch* every
//! seeded bug, proving the harness can actually detect violations.

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
// Model 1: ShardedQuoteCache invalidation, single-column projection.
// ---------------------------------------------------------------------

/// Protocol variant knobs; `CORRECT_CACHE` mirrors the shipped code,
/// the others seed one bug each.
#[derive(Clone, Copy)]
struct CacheVariant {
    /// `invalidate_columns()` bumps the touched epochs before sweeping
    /// the shards (cache.rs `invalidate_columns`); the seeded bug
    /// sweeps first.
    bump_then_clear: bool,
    /// `insert()` re-checks the epoch under the shard lock before
    /// storing (cache.rs `insert`); the seeded bug stores blindly.
    recheck_on_insert: bool,
    /// `get()` serves an entry only if its tag equals the current
    /// epoch (cache.rs `get`); the seeded bug serves any entry.
    check_epoch_on_get: bool,
    /// Whether the updater drops the state write lock *before* the
    /// shard clear — a realistic refactor (calling `invalidate()`
    /// after the lock scope) that widens the visible window. The
    /// shipped code clears inside the critical section, but the
    /// protocol must stay safe either way: that is exactly what the
    /// get-side epoch check is for.
    release_before_clear: bool,
    /// `insert()` raises the `filled` flag *before* its epoch re-check
    /// (cache.rs `insert`); the seeded bug raises it only once the
    /// re-check has passed, which lets an invalidation bump and read the
    /// flag in between.
    fill_flag_before_recheck: bool,
    /// `reset()` lowers the `filled` flag *before* clearing the shards
    /// (cache.rs `reset`); the seeded bug lowers it after, so an insert
    /// landing in an already-cleared shard is left behind a lowered
    /// flag.
    reset_flag_first: bool,
    /// Whether a resetter thread (cache.rs `reset`) runs too.
    with_reset: bool,
}

const CORRECT_CACHE: CacheVariant = CacheVariant {
    bump_then_clear: true,
    recheck_on_insert: true,
    check_epoch_on_get: true,
    release_before_clear: false,
    fill_flag_before_recheck: true,
    reset_flag_first: true,
    with_reset: false,
};

#[derive(Clone)]
struct CacheState {
    /// The one modelled column's epoch (an entry of
    /// `ShardedQuoteCache::columns`).
    epoch: u64,
    /// One shard, one key: `(tagged epoch, cached quote value)`.
    entry: Option<(u64, u64)>,
    /// `ShardedQuoteCache::filled`: raised by inserts, lowered by
    /// `reset`; while it is down, invalidation skips the sweep.
    filled: bool,
    /// Whether the quoter holds the shard's write lock (its insert is
    /// several steps; the sweep, the reset's clear and the reader block
    /// on it, bare atomics do not).
    shard_held: bool,
    /// The data version quotes are derived from; `price(dv) == dv`, so
    /// a stale quote is immediately visible.
    dv: u64,
    /// Whether the updater currently holds the market's state write
    /// lock (its whole mutation is one multi-step critical section;
    /// readers of `dv`/quoters block on it, shard-only steps do not).
    state_write_held: bool,
    /// Quoter's epoch loaded under the state read lock.
    quoter_epoch: u64,
    /// Quoter's computed quote.
    quoter_quote: u64,
    /// Whether the quoter's epoch re-check passed.
    quoter_fresh: bool,
    /// Whether the updater saw the `filled` flag raised.
    updater_saw_filled: bool,
    /// `(served quote, dv at serve time)` observed by the reader.
    served: Vec<(u64, u64)>,
}

/// Threads: 0 = quoter (cache-miss fill), 1 = updater (data mutation +
/// invalidation), 2 = reader (cache hit path), 3 = resetter (when
/// `with_reset`).
fn cache_step(v: CacheVariant) -> impl Fn(&mut CacheState, usize, usize) -> Step {
    move |s, t, pc| match (t, pc) {
        // Quoter, mirrors Market::quote_str's miss path.
        (0, 0) => {
            // Under the state read lock: load the epoch and price the
            // query against the current data (quote_str loads the
            // epoch while holding `state.read()`).
            if s.state_write_held {
                return Step::Blocked;
            }
            s.quoter_epoch = s.epoch;
            s.quoter_quote = s.dv;
            Step::Ran(1)
        }
        (0, 1) => {
            // cache.rs `insert`: take the shard write lock (the state
            // lock was dropped) and raise the flag.
            if s.shard_held {
                return Step::Blocked;
            }
            s.shard_held = true;
            if v.fill_flag_before_recheck {
                s.filled = true;
            }
            Step::Ran(2)
        }
        (0, 2) => {
            // Still under the shard lock: re-check the epoch (a bare
            // atomic load an invalidation's bump can race).
            s.quoter_fresh = !v.recheck_on_insert || s.epoch == s.quoter_epoch;
            Step::Ran(3)
        }
        (0, 3) => {
            // Store tagged with the load-time epoch; release the shard.
            if s.quoter_fresh {
                if !v.fill_flag_before_recheck {
                    s.filled = true;
                }
                s.entry = Some((s.quoter_epoch, s.quoter_quote));
            }
            s.shard_held = false;
            Step::Done
        }
        // Updater, mirrors Market::insert + invalidate_columns.
        (1, 0) => {
            // Take the state write lock; mutate the data; with the
            // shipped ordering the epoch bump (invalidate's fetch_add)
            // is also inside this critical section.
            s.state_write_held = true;
            s.dv += 1;
            if v.bump_then_clear {
                s.epoch += 1;
            }
            Step::Ran(1)
        }
        (1, 1) => {
            // Variant: the state lock may be dropped before the clear.
            if v.release_before_clear {
                s.state_write_held = false;
            }
            Step::Ran(2)
        }
        (1, 2) => {
            // Bare atomic, after the bump: is there anything to sweep?
            s.updater_saw_filled = s.filled;
            Step::Ran(3)
        }
        (1, 3) => {
            // Sweep the shard (its own shard write lock; a concurrent
            // cache fill can interleave on either side) — or skip it
            // when the flag was down.
            if s.updater_saw_filled {
                if s.shard_held {
                    return Step::Blocked;
                }
                s.entry = None;
            }
            Step::Ran(4)
        }
        (1, 4) => {
            // Seeded clear-then-bump bug: the bump lands only now,
            // leaving a window after the clear for a stale fill.
            if !v.bump_then_clear {
                s.epoch += 1;
            }
            if !v.release_before_clear {
                s.state_write_held = false;
            }
            Step::Done
        }
        // Reader, mirrors Market::quote_str's hit path: under the state
        // read lock, serve only an entry tagged with the current epoch.
        (2, 0) => {
            if s.state_write_held || s.shard_held {
                return Step::Blocked;
            }
            if let Some((tag, quote)) = s.entry {
                if !v.check_epoch_on_get || tag == s.epoch {
                    s.served.push((quote, s.dv));
                }
            }
            Step::Done
        }
        // Resetter, mirrors cache.rs `reset` (its epoch rewind is left
        // out: recovery runs it with no quoter alive, and a rewind
        // racing a quoter would alias epochs whatever the flag does).
        (3, 0) if !v.with_reset => Step::Done,
        (3, 0) => {
            if v.reset_flag_first {
                s.filled = false;
            }
            Step::Ran(1)
        }
        (3, 1) => {
            if s.shard_held {
                return Step::Blocked;
            }
            s.entry = None;
            Step::Ran(2)
        }
        (3, 2) => {
            if !v.reset_flag_first {
                s.filled = false;
            }
            Step::Done
        }
        _ => unreachable!("no such step: thread {t} pc {pc}"),
    }
}

/// Serve safety: a quote served from the cache equals the price of the
/// data current at serve time.
fn cache_invariant(s: &CacheState) -> Result<(), String> {
    for &(quote, dv) in &s.served {
        if quote != dv {
            return Err(format!(
                "stale quote served: cached {quote}, live price {dv}"
            ));
        }
    }
    Ok(())
}

/// Hygiene at quiescence: no entry tagged with a dead epoch survives
/// (the "bump-then-clear, so no dead entry lingers" claim).
fn cache_at_end(s: &CacheState) -> Result<(), String> {
    if let Some((tag, _)) = s.entry {
        if tag != s.epoch {
            return Err(format!(
                "dead entry lingers: tagged epoch {tag}, current epoch {}",
                s.epoch
            ));
        }
    }
    Ok(())
}

fn run_cache(v: CacheVariant) -> Result<u64, String> {
    let init = CacheState {
        epoch: 0,
        entry: None,
        filled: false,
        shard_held: false,
        dv: 0,
        state_write_held: false,
        quoter_epoch: 0,
        quoter_quote: 0,
        quoter_fresh: false,
        updater_saw_filled: false,
        served: Vec::new(),
    };
    explore(
        &init,
        &[0, 0, 0, 0],
        &cache_step(v),
        &cache_invariant,
        &cache_at_end,
    )
}

#[test]
fn cache_protocol_is_safe_under_all_interleavings() {
    let executions = run_cache(CORRECT_CACHE).expect("shipped protocol must be clean");
    // The schedule space must actually have been explored.
    assert!(executions >= 18, "only {executions} interleavings explored");
}

#[test]
fn seeded_clear_then_bump_leaks_a_dead_entry() {
    let err = run_cache(CacheVariant {
        bump_then_clear: false,
        ..CORRECT_CACHE
    })
    .expect_err("harness must catch the seeded ordering bug");
    assert!(err.contains("dead entry"), "unexpected violation: {err}");
}

#[test]
fn seeded_fill_without_epoch_recheck_leaks_a_dead_entry() {
    let err = run_cache(CacheVariant {
        recheck_on_insert: false,
        ..CORRECT_CACHE
    })
    .expect_err("harness must catch the missing re-check");
    assert!(err.contains("dead entry"), "unexpected violation: {err}");
}

#[test]
fn clearing_outside_the_critical_section_is_still_safe() {
    // The get-side epoch check is what makes the widened window safe.
    run_cache(CacheVariant {
        release_before_clear: true,
        ..CORRECT_CACHE
    })
    .expect("epoch-checked gets must keep the widened window safe");
}

#[test]
fn seeded_unchecked_get_serves_a_stale_quote() {
    let err = run_cache(CacheVariant {
        release_before_clear: true,
        check_epoch_on_get: false,
        ..CORRECT_CACHE
    })
    .expect_err("harness must catch the stale serve");
    assert!(err.contains("stale quote"), "unexpected violation: {err}");
}

/// The `filled` flag with a reset racing the fill and the invalidation:
/// the shipped orders (raise before the re-check, lower before the
/// clear) leave no dead entry, with the state lock held through the
/// sweep or dropped before it.
#[test]
fn skipping_the_sweep_of_an_unfilled_cache_is_safe_under_all_interleavings() {
    for release_before_clear in [false, true] {
        run_cache(CacheVariant {
            with_reset: true,
            release_before_clear,
            ..CORRECT_CACHE
        })
        .expect("the shipped flag protocol must be clean");
    }
}

#[test]
fn seeded_reset_lowering_the_flag_after_the_clear_leaks_a_dead_entry() {
    let err = run_cache(CacheVariant {
        with_reset: true,
        reset_flag_first: false,
        ..CORRECT_CACHE
    })
    .expect_err("harness must catch the late flag clear");
    assert!(err.contains("dead entry"), "unexpected violation: {err}");
}

#[test]
fn seeded_fill_flag_after_the_recheck_leaks_a_dead_entry() {
    let err = run_cache(CacheVariant {
        fill_flag_before_recheck: false,
        ..CORRECT_CACHE
    })
    .expect_err("harness must catch the late flag raise");
    assert!(err.contains("dead entry"), "unexpected violation: {err}");
}

// ---------------------------------------------------------------------
// Model 2: DurableMarket purchase vs. durable mutation.
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
            // Bare atomic: `self.market.cache_epoch()`.
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

// ---------------------------------------------------------------------
// Model 3: per-column epochs, footprint stamps, and a batch quoter.
// ---------------------------------------------------------------------

/// Protocol variant knobs for the column-scoped protocol;
/// `CORRECT_COLS` mirrors the shipped code, the others seed one bug
/// each. `updated_col` selects which column the updater touches, so
/// every seeded bug can be aimed at the column the quoter races on —
/// and the disjoint-survivor property checked on the other.
#[derive(Clone, Copy)]
struct ColVariant {
    /// `invalidate_columns()` bumps the touched epochs before sweeping
    /// matching entries out of the shards (cache.rs); the seeded bug
    /// sweeps first, opening a window where a stale fill lands with a
    /// still-current stamp.
    bump_then_sweep: bool,
    /// Each batch slot loads its own footprint stamp at its own cache
    /// lookup (market.rs `quote_batch`); the seeded bug loads one
    /// whole-batch stamp vector up front — safe (the recheck still
    /// discards), but it throws away quotes priced against the final
    /// data, so the cache silently stops filling under update load.
    per_slot_stamp: bool,
    /// The stamp is loaded *before* pricing, under the same state read
    /// lock the quote is computed under (market.rs `quote_str`); the
    /// seeded bug reads it at insert time, after pricing — which tags
    /// a stale quote with a current stamp.
    stamp_before_pricing: bool,
    /// `insert()` re-checks the footprint stamp under the shard lock
    /// before storing (cache.rs `insert`); the seeded bug stores
    /// blindly.
    recheck_on_insert: bool,
    /// Which of the two columns the updater touches.
    updated_col: usize,
}

const CORRECT_COLS: ColVariant = ColVariant {
    bump_then_sweep: true,
    per_slot_stamp: true,
    stamp_before_pricing: true,
    recheck_on_insert: true,
    updated_col: 0,
};

/// Two columns, two cached queries: query `i` has footprint
/// `{column i}`, so its stamp is just `epochs[i]` (the wrapping sum
/// over a singleton footprint) and its correct price is `dv[i]`.
#[derive(Clone)]
struct ColState {
    /// Per-column epochs (`ShardedQuoteCache::columns`).
    epochs: [u64; 2],
    /// Per-column data/price version.
    dv: [u64; 2],
    /// One cache entry per query: `(footprint stamp, cached quote)`.
    entries: [Option<(u64, u64)>; 2],
    /// Whether the updater holds the market's state write lock.
    state_write_held: bool,
    // Batch quoter locals: per-slot footprint stamps and quotes.
    stamps: [u64; 2],
    quotes: [u64; 2],
    /// `(column, served quote, dv at serve time)` seen by the reader.
    served: Vec<(usize, u64, u64)>,
}

/// Threads: 0 = batch quoter (two-slot `quote_batch` miss path, with
/// the state read lock released between the slots — the widened-window
/// refactor the per-slot stamps must keep safe), 1 = updater
/// (column-scoped mutation + `invalidate_columns`), 2 = reader (cache
/// hit path over both entries).
fn col_step(v: ColVariant) -> impl Fn(&mut ColState, usize, usize) -> Step {
    move |s, t, pc| match (t, pc) {
        // Batch quoter, slot 0: lookup + stamp + pricing under the
        // state read lock (quote_batch computes each miss's stamp at
        // its own lookup).
        (0, 0) => {
            if s.state_write_held {
                return Step::Blocked;
            }
            if v.stamp_before_pricing {
                s.stamps[0] = s.epochs[0];
                if !v.per_slot_stamp {
                    // Seeded whole-batch stamp: slot 1's stamp is
                    // loaded now, before slot 1's own lookup.
                    s.stamps[1] = s.epochs[1];
                }
            }
            s.quotes[0] = s.dv[0];
            Step::Ran(1)
        }
        // Slot 0 insert, under the shard write lock only.
        (0, 1) => {
            if !v.stamp_before_pricing {
                s.stamps[0] = s.epochs[0];
            }
            if !v.recheck_on_insert || s.epochs[0] == s.stamps[0] {
                s.entries[0] = Some((s.stamps[0], s.quotes[0]));
            }
            Step::Ran(2)
        }
        // Slot 1: lookup + stamp + pricing under the state read lock.
        (0, 2) => {
            if s.state_write_held {
                return Step::Blocked;
            }
            if v.stamp_before_pricing && v.per_slot_stamp {
                s.stamps[1] = s.epochs[1];
            }
            s.quotes[1] = s.dv[1];
            Step::Ran(3)
        }
        // Slot 1 insert, under the shard write lock only.
        (0, 3) => {
            if !v.stamp_before_pricing {
                s.stamps[1] = s.epochs[1];
            }
            if !v.recheck_on_insert || s.epochs[1] == s.stamps[1] {
                s.entries[1] = Some((s.stamps[1], s.quotes[1]));
            }
            Step::Done
        }
        // Updater, mirrors Market::set_price / insert +
        // invalidate_columns scoped to `updated_col`: mutation, epoch
        // bumps, and the sweep all happen under the state write lock;
        // only shard-only quoter steps can interleave.
        (1, 0) => {
            let c = v.updated_col;
            s.state_write_held = true;
            s.dv[c] += 1;
            if v.bump_then_sweep {
                s.epochs[c] += 1;
            }
            Step::Ran(1)
        }
        (1, 1) => {
            // Sweep: retain only entries whose footprint is disjoint
            // from the touched columns (cache.rs `invalidate_columns`'s
            // per-shard `retain`). Query `updated_col` is the only one
            // whose footprint intersects.
            s.entries[v.updated_col] = None;
            Step::Ran(2)
        }
        (1, 2) => {
            // Seeded sweep-then-bump bug: the epoch bump lands only
            // now, so a fill between the sweep and here carries a
            // still-current stamp for an already-stale quote.
            if !v.bump_then_sweep {
                s.epochs[v.updated_col] += 1;
            }
            s.state_write_held = false;
            Step::Done
        }
        // Reader, mirrors the cache hit path: under the state read
        // lock, serve each entry only if its stamp equals the current
        // footprint stamp (cache.rs `get`).
        (2, 0) => {
            if s.state_write_held {
                return Step::Blocked;
            }
            for c in 0..2 {
                if let Some((tag, quote)) = s.entries[c] {
                    if tag == s.epochs[c] {
                        s.served.push((c, quote, s.dv[c]));
                    }
                }
            }
            Step::Done
        }
        _ => unreachable!("no such step: thread {t} pc {pc}"),
    }
}

/// Serve safety: a quote served from the cache equals the price of the
/// data current at serve time, per column.
fn col_invariant(s: &ColState) -> Result<(), String> {
    for &(c, quote, dv) in &s.served {
        if quote != dv {
            return Err(format!(
                "stale quote served on column {c}: cached {quote}, live price {dv}"
            ));
        }
    }
    Ok(())
}

/// Quiescence checks: hygiene, then the two properties that make
/// column scoping worth having.
fn col_at_end(v: ColVariant) -> impl Fn(&ColState) -> Result<(), String> {
    move |s| {
        // Hygiene: no entry tagged with a dead stamp survives.
        for c in 0..2 {
            if let Some((tag, _)) = s.entries[c] {
                if tag != s.epochs[c] {
                    return Err(format!(
                        "dead entry lingers on column {c}: tag {tag}, epoch {}",
                        s.epochs[c]
                    ));
                }
            }
        }
        // Disjoint survivor: the updater never touched the other
        // column, so the slot quoted over it must still be cached in
        // EVERY interleaving — wholesale invalidation would fail this.
        let other = 1 - v.updated_col;
        if s.entries[other].is_none() {
            return Err(format!(
                "entry over untouched column {other} did not survive invalidation"
            ));
        }
        // Utility: a quote priced against the final data must end up
        // cached — the stamp recheck may only discard quotes that are
        // actually stale. (A whole-batch stamp violates exactly this.)
        for c in 0..2 {
            if s.quotes[c] == s.dv[c] && s.entries[c].is_none() {
                return Err(format!(
                    "fresh quote for column {c} discarded by its own stamp recheck"
                ));
            }
        }
        Ok(())
    }
}

fn run_cols(v: ColVariant) -> Result<u64, String> {
    let init = ColState {
        epochs: [0, 0],
        dv: [0, 0],
        entries: [None, None],
        state_write_held: false,
        stamps: [0, 0],
        quotes: [0, 0],
        served: Vec::new(),
    };
    explore(
        &init,
        &[0, 0, 0],
        &col_step(v),
        &col_invariant,
        &col_at_end(v),
    )
}

#[test]
fn per_column_protocol_is_safe_under_all_interleavings() {
    // Race the update against the quoter's own column and against the
    // disjoint one; both must be clean in every interleaving.
    for updated_col in 0..2 {
        let executions = run_cols(ColVariant {
            updated_col,
            ..CORRECT_COLS
        })
        .expect("shipped per-column protocol must be clean");
        assert!(executions >= 50, "only {executions} interleavings explored");
    }
}

#[test]
fn seeded_sweep_then_bump_leaks_a_dead_entry() {
    let err = run_cols(ColVariant {
        bump_then_sweep: false,
        ..CORRECT_COLS
    })
    .expect_err("harness must catch the seeded ordering bug");
    assert!(err.contains("dead entry"), "unexpected violation: {err}");
}

#[test]
fn seeded_stamp_after_pricing_serves_a_stale_quote() {
    let err = run_cols(ColVariant {
        stamp_before_pricing: false,
        updated_col: 1,
        ..CORRECT_COLS
    })
    .expect_err("harness must catch the stale tag");
    assert!(err.contains("stale quote"), "unexpected violation: {err}");
}

#[test]
fn seeded_whole_batch_stamp_discards_fresh_quotes() {
    // The regression `quote_batch` fixed: one stamp vector loaded before
    // the slot loop tags late slots with epochs older than their own
    // lookups. The recheck keeps it *safe*, so serve safety and hygiene
    // stay green — the utility property is what catches it.
    let err = run_cols(ColVariant {
        per_slot_stamp: false,
        updated_col: 1,
        ..CORRECT_COLS
    })
    .expect_err("harness must catch the discarded fresh quote");
    assert!(err.contains("fresh quote"), "unexpected violation: {err}");
}

#[test]
fn seeded_blind_insert_on_columns_leaks_a_dead_entry() {
    let err = run_cols(ColVariant {
        recheck_on_insert: false,
        ..CORRECT_COLS
    })
    .expect_err("harness must catch the missing stamp recheck");
    assert!(err.contains("dead entry"), "unexpected violation: {err}");
}
