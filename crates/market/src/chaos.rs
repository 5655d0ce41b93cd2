//! The chaos harness: randomized fault schedules against a full market
//! workload, with the three robustness invariants checked as data.
//!
//! One [`run_schedule`] call drives a [`DurableMarket`] on a
//! [`FaultFs`] through a seeded stream of inserts, price revisions,
//! purchases, and quotes while the injector rolls transient faults,
//! `ENOSPC`, poisoning fsync failures, and torn writes under it — then
//! power-cycles the filesystem and recovers. Everything is
//! deterministic in the seed, so a failing schedule replays exactly
//! (the `qbdp chaos` CLI verb prints the seed for that reason).
//!
//! # The invariants
//!
//! 1. **Prefix consistency / no lost ack** (checked under
//!    [`FsyncPolicy::Always`]): the recovered state equals the state
//!    after the last *acknowledged* mutation — or, when the final
//!    store error was a poisoning fsync (whose append may or may not
//!    have reached the platter), that state plus exactly the one
//!    uncertain tail event. Never a blend, never less, never more.
//! 2. **Degraded-quote soundness**: once the market degrades to
//!    read-only, every served quote still carries a sound
//!    `[lower_bound, price]` interval and equals the quote a fresh
//!    market over the same frozen state would give.
//! 3. **Clean recovery**: reopening after the fault clears always
//!    succeeds, comes back [`MarketHealth::Healthy`], and both serves
//!    and accepts mutations again.
//!
//! Violations are collected into [`ChaosReport::violations`] rather
//! than panicking, so a single schedule reports *all* the damage and
//! the harness stays usable from the CLI.

use crate::durable::{DurableMarket, DurableOptions, MarketHealth};
use crate::error::MarketError;
use crate::ledger::Ledger;
use crate::lock::{Locked, Unlocked};
use crate::market::Market;
use qbdp_catalog::{Tuple, Value};
use qbdp_core::Price;
use qbdp_store::vfs::SplitMix64;
use qbdp_store::{FaultFs, FaultPlan, FsyncPolicy, RetryPolicy, SeededFaults, StoreError};
use std::path::Path;
use std::sync::Arc;

/// Per-mille fault rates for the seeded injector; each rate applies to
/// the operations [`SeededFaults`] documents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultMix {
    /// `EINTR`/`EAGAIN`, per mille of filesystem operations.
    pub transient: u32,
    /// `ENOSPC` partial write, per mille of writes.
    pub enospc: u32,
    /// Poisoning fsync failure, per mille of fsyncs.
    pub fsync_fail: u32,
    /// Torn write + power cut, per mille of writes.
    pub torn_write: u32,
}

impl FaultMix {
    /// Every fault class armed at the rates the CI chaos job uses.
    pub fn all() -> FaultMix {
        FaultMix {
            transient: 40,
            enospc: 12,
            fsync_fail: 12,
            torn_write: 8,
        }
    }

    /// No faults: the clean-path configuration the E16 bench uses to
    /// measure pure injector + retry-policy overhead.
    pub fn none() -> FaultMix {
        FaultMix {
            transient: 0,
            enospc: 0,
            fsync_fail: 0,
            torn_write: 0,
        }
    }

    fn seeded(&self, seed: u64) -> Option<SeededFaults> {
        if self.transient == 0 && self.enospc == 0 && self.fsync_fail == 0 && self.torn_write == 0 {
            return None;
        }
        Some(SeededFaults {
            seed,
            transient_per_mille: self.transient,
            enospc_per_mille: self.enospc,
            fsync_fail_per_mille: self.fsync_fail,
            torn_write_per_mille: self.torn_write,
        })
    }
}

/// One chaos schedule: a seed, a number of workload operations, the
/// fault mix, and the fsync policy the market runs under.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for both the workload stream and the fault injector.
    pub seed: u64,
    /// Workload operations to attempt before the power cycle.
    pub ops: u32,
    /// Seeded fault rates.
    pub fault: FaultMix,
    /// Fsync policy. The no-lost-ack half of invariant 1 is only
    /// asserted under [`FsyncPolicy::Always`]; weaker policies
    /// deliberately trade acked-tail durability for latency.
    pub fsync: FsyncPolicy,
}

impl ChaosConfig {
    /// The standard schedule: `ops` operations under every fault class
    /// with `FsyncPolicy::Always`, ready for invariant checking.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            ops: 40,
            fault: FaultMix::all(),
            fsync: FsyncPolicy::Always,
        }
    }
}

/// What one schedule did and found. `violations` empty means every
/// invariant held.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Workload operations attempted.
    pub ops_attempted: u64,
    /// Mutations acknowledged (durably logged and applied).
    pub acked: u64,
    /// Mutations refused with a store-layer error.
    pub store_errors: u64,
    /// Mutations refused because the market had degraded to read-only.
    pub degraded_ops: u64,
    /// Quotes served while degraded (each checked for soundness).
    pub degraded_quotes: u64,
    /// Faults the injector actually fired.
    pub faults_injected: u64,
    /// Mutations after which the log was shorter than before: each ran
    /// an automatic compaction that truncated the log.
    pub compactions: u64,
    /// True when recovery surfaced the one uncertain tail event of a
    /// poisoning fsync (legal; counted to prove the window is real).
    pub recovered_pending_tail: bool,
    /// Invariant violations, human-readable. Empty = sound.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// True when every invariant held.
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} op(s): {} acked, {} store error(s), {} degraded-refused, \
             {} degraded quote(s), {} fault(s) injected, {} compaction(s){}",
            self.ops_attempted,
            self.acked,
            self.store_errors,
            self.degraded_ops,
            self.degraded_quotes,
            self.faults_injected,
            self.compactions,
            if self.recovered_pending_tail {
                ", pending tail recovered"
            } else {
                ""
            }
        )?;
        for v in &self.violations {
            write!(f, "\nVIOLATION: {v}")?;
        }
        Ok(())
    }
}

/// The market's shape as mined from its canonical `.qdp` text: what the
/// op generator needs to produce valid-by-construction (and a few
/// deliberately refusable) operations against *any* market, scenario
/// generators included.
struct Shape {
    /// relation name → attribute names.
    relations: Vec<(String, Vec<String>)>,
    /// `R.X` → declared value literals.
    columns: Vec<(String, Vec<String>)>,
    /// Priced selectors (`R.X=a1`).
    views: Vec<String>,
}

impl Shape {
    fn parse(qdp: &str) -> Result<Shape, MarketError> {
        let mut shape = Shape {
            relations: Vec::new(),
            columns: Vec::new(),
            views: Vec::new(),
        };
        for line in qdp.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("schema ") {
                let (name, args) = split_call(rest)
                    .ok_or_else(|| MarketError::Update(format!("bad schema line: {line}")))?;
                shape.relations.push((name, args));
            } else if let Some(rest) = line.strip_prefix("column ") {
                let (attr, body) = rest
                    .split_once('=')
                    .ok_or_else(|| MarketError::Update(format!("bad column line: {line}")))?;
                let body = body.trim();
                let inner = body
                    .strip_prefix('{')
                    .and_then(|b| b.strip_suffix('}'))
                    .ok_or_else(|| MarketError::Update(format!("bad column line: {line}")))?;
                // Values whose rendering embeds a comma would mis-split
                // here; they are skipped (harmless — the generator just
                // never picks them) rather than mis-parsed, because
                // only literals `parse_literal` accepts survive.
                let values: Vec<String> = inner
                    .split(',')
                    .map(str::trim)
                    .filter(|v| Value::parse_literal(v).is_some())
                    .map(str::to_string)
                    .collect();
                shape.columns.push((attr.trim().to_string(), values));
            } else if let Some(rest) = line.strip_prefix("price ") {
                if let Some((sel, _)) = rest.rsplit_once(char::is_whitespace) {
                    shape.views.push(sel.trim().to_string());
                }
            }
        }
        if shape.relations.is_empty() {
            return Err(MarketError::Update("no relations in market".to_string()));
        }
        Ok(shape)
    }

    fn column_values(&self, attr: &str) -> &[String] {
        self.columns
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Parse `Name(a, b, c)` into name + argument names.
fn split_call(s: &str) -> Option<(String, Vec<String>)> {
    let open = s.find('(')?;
    let body = s.get(open + 1..)?.strip_suffix(')')?;
    let name = s[..open].trim().to_string();
    let args = body
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    Some((name, args))
}

/// Render a stored column literal as a datalog constant: integers stay
/// bare, text is single-quoted.
fn datalog_const(literal: &str) -> Option<String> {
    match Value::parse_literal(literal)? {
        Value::Int(i) => Some(i.to_string()),
        v => {
            let text = v.render_literal();
            let bare = text.trim_matches('\'');
            if bare.contains('\'') {
                None // unquotable in the datalog grammar; skip
            } else {
                Some(format!("'{bare}'"))
            }
        }
    }
}

/// One generated workload operation, kept replayable so the pending
/// (maybe-durable) state after a poisoning fault can be computed on a
/// clone.
#[derive(Clone, Debug)]
enum Op {
    Insert {
        relation: String,
        values: Vec<Value>,
    },
    SetPrice {
        view: String,
        cents: u64,
    },
    Purchase {
        query: String,
    },
    Quote {
        query: String,
    },
}

fn gen_query(shape: &Shape, rng: &mut SplitMix64) -> Option<String> {
    let (rel, attrs) = &shape.relations[rng.next_below(shape.relations.len() as u64) as usize];
    let vars: Vec<String> = (0..attrs.len()).map(|i| format!("x{i}")).collect();
    if rng.next_below(2) == 0 {
        // Full scan.
        let head = vars.join(", ");
        return Some(format!("Q({head}) :- {rel}({head})"));
    }
    // Bind one position to a declared constant.
    let pos = rng.next_below(attrs.len() as u64) as usize;
    let values = shape.column_values(&format!("{rel}.{}", attrs[pos]));
    if values.is_empty() {
        return None;
    }
    let constant = datalog_const(&values[rng.next_below(values.len() as u64) as usize])?;
    let body: Vec<String> = vars
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if i == pos {
                constant.clone()
            } else {
                v.clone()
            }
        })
        .collect();
    let head: Vec<String> = vars
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != pos)
        .map(|(_, v)| v.clone())
        .collect();
    Some(format!(
        "Q({}) :- {rel}({})",
        head.join(", "),
        body.join(", ")
    ))
}

fn gen_op(shape: &Shape, rng: &mut SplitMix64) -> Option<Op> {
    match rng.next_below(10) {
        0..=2 => {
            let (rel, attrs) =
                &shape.relations[rng.next_below(shape.relations.len() as u64) as usize];
            let mut values = Vec::with_capacity(attrs.len());
            for attr in attrs {
                let pool = shape.column_values(&format!("{rel}.{attr}"));
                if pool.is_empty() {
                    return None;
                }
                values.push(Value::parse_literal(
                    &pool[rng.next_below(pool.len() as u64) as usize],
                )?);
            }
            Some(Op::Insert {
                relation: rel.clone(),
                values,
            })
        }
        3..=4 => {
            if shape.views.is_empty() {
                return None;
            }
            let view = shape.views[rng.next_below(shape.views.len() as u64) as usize].clone();
            Some(Op::SetPrice {
                view,
                cents: 50 + rng.next_below(500),
            })
        }
        5..=6 => Some(Op::Purchase {
            query: gen_query(shape, rng)?,
        }),
        _ => Some(Op::Quote {
            query: gen_query(shape, rng)?,
        }),
    }
}

/// The state fingerprint the invariants compare: data + prices (the
/// canonical `.qdp` text), the revenue, and the full transaction
/// ledger. Public because recovery-equivalence checks outside the chaos
/// harness (the serving layer's SIGTERM drill in E19) compare the same
/// three components.
pub type Fingerprint = (String, u64, String);

/// Name the first component (and line) where two fingerprints diverge,
/// so a chaos violation is triageable from the message alone.
fn fingerprint_diff(got: &Fingerprint, want: &Fingerprint) -> String {
    if got.1 != want.1 {
        return format!("revenue {} vs acked {}", got.1, want.1);
    }
    for (label, g, w) in [("qdp", &got.0, &want.0), ("ledger", &got.2, &want.2)] {
        if g != w {
            let mismatch = g
                .lines()
                .zip(w.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("`{a}` vs acked `{b}`"))
                .unwrap_or_else(|| {
                    format!("{} vs acked {} lines", g.lines().count(), w.lines().count())
                });
            return format!("{label} diverges: {mismatch}");
        }
    }
    "identical components (unexpected)".to_string()
}

/// Canonical state fingerprint of a market: sorted `.qdp` lines,
/// revenue cents, and the ledger snapshot text. Two markets with equal
/// fingerprints hold identical data, prices, books, and history.
pub fn fingerprint(m: &Market) -> Fingerprint {
    // Every `.qdp` line is an independent directive, but `to_qdp`'s line
    // order tracks map insertion history, which differs between a market
    // parsed from the scenario text and one re-parsed from a snapshot's
    // canonical text. Sort so the fingerprint compares state, not order.
    let qdp = m.to_qdp();
    let mut lines: Vec<&str> = qdp.lines().collect();
    lines.sort_unstable();
    (
        lines.join("\n"),
        m.revenue().as_cents(),
        m.with_ledger(Ledger::to_snapshot_text),
    )
}

/// Clone a market's full state (data, prices, ledger, policy) into a
/// fresh in-memory market, for computing what the state *would* be if a
/// maybe-durable event turned out to have reached the platter.
fn clone_state(token: &mut Locked<'_, Unlocked>, m: &Market) -> Result<Market, MarketError> {
    let clone = Market::open_qdp(&m.to_qdp())?;
    let ledger = Ledger::from_snapshot_text(m.with_ledger(Ledger::to_snapshot_text))
        .map_err(|e| MarketError::Internal(format!("ledger clone: {e}")))?;
    clone.restore_ledger(token, ledger);
    clone.set_policy(m.policy());
    Ok(clone)
}

/// Apply a mutation op to an in-memory clone, ignoring its verdict (a
/// validation refusal mutates nothing, same as replay would).
#[expect(
    clippy::let_underscore_must_use,
    reason = "an in-memory clone has no store; a refusal mutates nothing, as in replay"
)]
fn apply_to_clone(clone: &Market, op: &Op) {
    match op {
        Op::Insert { relation, values } => {
            let _ = clone.insert(relation, [Tuple::new(values.clone())]);
        }
        Op::SetPrice { view, cents } => {
            let _ = clone.set_price(view, Price::cents(*cents));
        }
        Op::Purchase { query } => {
            let _ = clone.purchase_str(query);
        }
        Op::Quote { .. } => {}
    }
}

/// Run one chaos schedule in `dir` (recreated from scratch) against the
/// market described by `qdp`. Returns the report; setup failures that
/// precede any fault injection (bad seed text, unwritable dir) surface
/// as errors instead.
pub fn run_schedule(qdp: &str, dir: &Path, cfg: &ChaosConfig) -> Result<ChaosReport, MarketError> {
    let mut report = ChaosReport::default();
    let mut root = Locked::root();
    // A stale directory left in place would be reopened instead of
    // seeded afresh.
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(StoreError::Io(e).into()),
        _ => {}
    }

    // Genesis runs fault-free: the schedule targets the workload, not
    // the one-time directory setup.
    let fs = FaultFs::new(FaultPlan::none());
    let retry = RetryPolicy {
        attempts: 3,
        base_delay_micros: 1,
        max_delay_micros: 10,
        jitter_seed: cfg.seed,
    };
    let dm = DurableMarket::open_with(
        dir,
        DurableOptions {
            vfs: Arc::new(fs.clone()),
            retry,
            seed: Some(qdp),
            ..DurableOptions::new(cfg.fsync)
        },
    )?;
    let shape = Shape::parse(&dm.market().to_qdp())?;
    let mut rng = SplitMix64::new(cfg.seed);
    fs.set_plan(FaultPlan {
        script: Vec::new(),
        seeded: cfg.fault.seeded(rng.next_u64()),
    });

    let mut acked_fp = fingerprint(dm.market());
    // The at-most-one event whose durability a poisoning fsync left
    // uncertain: the state the market would hold had it survived.
    let mut pending_fp: Option<Fingerprint> = None;
    // The state the market froze at when it degraded, for checking
    // quotes keep serving it verbatim.
    let mut frozen: Option<Market> = None;

    // audit: bounded(fixed op budget from the schedule config)
    for _ in 0..cfg.ops {
        report.ops_attempted += 1;
        let Some(op) = gen_op(&shape, &mut rng) else {
            continue;
        };
        if let Op::Quote { query } = &op {
            let degraded = matches!(dm.health(), MarketHealth::ReadOnly { .. });
            match dm.market().quote_str(query) {
                Ok(quote) => {
                    if quote.lower_bound > quote.price {
                        report.violations.push(format!(
                            "unsound quote interval [{:?}, {:?}] for {query}",
                            quote.lower_bound, quote.price
                        ));
                    }
                    if degraded {
                        report.degraded_quotes += 1;
                        if let Some(frozen) = &frozen {
                            match frozen.quote_str(query) {
                                Ok(expected) if expected.price == quote.price => {}
                                Ok(expected) => report.violations.push(format!(
                                    "degraded quote drifted from frozen state: \
                                     {:?} vs {:?} for {query}",
                                    quote.price, expected.price
                                )),
                                Err(e) => report.violations.push(format!(
                                    "frozen state refuses {query} the degraded \
                                     market served: {e}"
                                )),
                            }
                        }
                    }
                }
                Err(MarketError::Store(e)) => report
                    .violations
                    .push(format!("quote touched the store: {e}")),
                Err(MarketError::Degraded(e)) => report.violations.push(format!(
                    "quote refused under degradation (quotes must keep serving): {e}"
                )),
                Err(_) => {} // NotForSale etc.: a valid refusal
            }
            continue;
        }
        let logged = dm.wal_position();
        let result: Result<(), MarketError> = match &op {
            Op::Insert { relation, values } => dm
                .insert(relation, [Tuple::new(values.clone())])
                .map(|_| ()),
            Op::SetPrice { view, cents } => dm.set_price(view, Price::cents(*cents)),
            Op::Purchase { query } => dm.purchase_str(query).map(|_| ()),
            Op::Quote { .. } => Ok(()),
        };
        if dm.wal_position() < logged {
            report.compactions += 1;
        }
        match result {
            Ok(()) => {
                report.acked += 1;
                acked_fp = fingerprint(dm.market());
                pending_fp = None;
            }
            Err(MarketError::Store(e)) => {
                report.store_errors += 1;
                if matches!(e, StoreError::Poisoned { .. }) {
                    // The append may or may not have reached the
                    // platter; compute the state it would produce.
                    let clone = clone_state(&mut root, dm.market())?;
                    apply_to_clone(&clone, &op);
                    pending_fp = Some(fingerprint(&clone));
                }
                if matches!(dm.health(), MarketHealth::ReadOnly { .. }) && frozen.is_none() {
                    frozen = Some(clone_state(&mut root, dm.market())?);
                }
            }
            Err(MarketError::Degraded(_)) => {
                report.degraded_ops += 1;
                if !matches!(dm.health(), MarketHealth::ReadOnly { .. }) {
                    report
                        .violations
                        .push("Degraded error from a healthy market".to_string());
                }
            }
            Err(_) => {} // validation refusal: no state change, no ack
        }
    }

    report.faults_injected = fs.injected_count() as u64;

    // Power-cycle: stop injecting, crash, recover clean.
    drop(dm);
    fs.clear_plan();
    let crash_seed = rng.next_u64();
    if let Err(e) = fs.simulate_crash(crash_seed) {
        report
            .violations
            .push(format!("crash simulation failed: {e}"));
        return Ok(report);
    }
    let recovered = match DurableMarket::open_with(
        dir,
        DurableOptions {
            vfs: Arc::new(fs.clone()),
            retry: RetryPolicy::none(),
            ..DurableOptions::new(FsyncPolicy::Never)
        },
    ) {
        Ok(m) => m,
        Err(e) => {
            report
                .violations
                .push(format!("recovery failed after crash: {e}"));
            return Ok(report);
        }
    };

    // Invariant 1: prefix consistency / no lost ack (fsync=Always).
    if cfg.fsync == FsyncPolicy::Always {
        let fp = fingerprint(recovered.market());
        if fp == acked_fp {
            // exact acknowledged history
        } else if pending_fp.as_ref() == Some(&fp) {
            report.recovered_pending_tail = true;
        } else {
            report.violations.push(format!(
                "recovered state is neither the acked history nor \
                 acked+pending-tail: {}",
                fingerprint_diff(&fp, &acked_fp)
            ));
        }
    }

    // Invariant 3: clean recovery — healthy, serving, and writable.
    if recovered.health() != MarketHealth::Healthy {
        report
            .violations
            .push(format!("recovered unhealthy: {:?}", recovered.health()));
    }
    if let Some((rel, attrs)) = shape.relations.first() {
        let values: Option<Vec<Value>> = attrs
            .iter()
            .map(|a| {
                shape
                    .column_values(&format!("{rel}.{a}"))
                    .first()
                    .and_then(|v| Value::parse_literal(v))
            })
            .collect();
        if let Some(values) = values {
            if let Err(e) = recovered.insert(rel, [Tuple::new(values)]) {
                report
                    .violations
                    .push(format!("recovered market refuses mutations: {e}"));
            }
        }
    }
    if let Some(query) = gen_query(&shape, &mut rng) {
        match recovered.market().quote_str(&query) {
            Ok(quote) => {
                if quote.lower_bound > quote.price {
                    report
                        .violations
                        .push(format!("unsound post-recovery quote for {query}"));
                }
            }
            Err(e @ (MarketError::Store(_) | MarketError::Degraded(_))) => report
                .violations
                .push(format!("post-recovery quote failed on the store: {e}")),
            Err(_) => {}
        }
    }

    drop(recovered);
    #[expect(
        clippy::unused_result_ok,
        reason = "cleanup after the report is complete; the next run removes leftovers"
    )]
    std::fs::remove_dir_all(dir).ok();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const QDP: &str = "\
schema R(X)
schema S(X, Y)
column R.X = {a1, a2, a3}
column S.X = {a1, a2, a3}
column S.Y = {b1, b2}
tuple R(a1)
tuple S(a1, b1)
price R.X=a1 100
price R.X=a2 100
price R.X=a3 100
price S.X=a1 100
price S.X=a2 100
price S.X=a3 100
price S.Y=b1 100
price S.Y=b2 100
";

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "qbdp_chaos_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn shape_parses_the_canonical_text() {
        let m = Market::open_qdp(QDP).unwrap();
        let shape = Shape::parse(&m.to_qdp()).unwrap();
        assert_eq!(shape.relations.len(), 2);
        assert_eq!(shape.column_values("S.Y"), ["b1", "b2"]);
        assert_eq!(shape.views.len(), 8);
    }

    #[test]
    fn query_generation_is_deterministic_and_parseable() {
        let m = Market::open_qdp(QDP).unwrap();
        let shape = Shape::parse(&m.to_qdp()).unwrap();
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..50 {
            let qa = gen_query(&shape, &mut a);
            assert_eq!(qa, gen_query(&shape, &mut b));
            if let Some(q) = qa {
                // Every generated query must at least parse (quoting is
                // accepted); NotForSale is fine, Query errors are not.
                match m.quote_str(&q) {
                    Ok(_) | Err(MarketError::NotForSale) => {}
                    Err(e) => panic!("generated query `{q}` invalid: {e}"),
                }
            }
        }
    }

    #[test]
    fn clean_schedule_acks_everything() {
        let dir = temp_dir("clean");
        let cfg = ChaosConfig {
            seed: 11,
            ops: 30,
            fault: FaultMix::none(),
            fsync: FsyncPolicy::Always,
        };
        let report = run_schedule(QDP, &dir, &cfg).unwrap();
        assert!(report.is_sound(), "{report}");
        assert_eq!(report.store_errors, 0);
        assert_eq!(report.degraded_ops, 0);
        assert_eq!(report.faults_injected, 0);
        assert!(report.acked > 0);
    }

    #[test]
    fn faulty_schedules_hold_the_invariants() {
        let mut injected = 0;
        let mut refused = 0;
        let mut compactions = 0;
        for seed in 0..8 {
            let dir = temp_dir("faulty");
            let report = run_schedule(QDP, &dir, &ChaosConfig::new(seed)).unwrap();
            assert!(report.is_sound(), "seed {seed}: {report}");
            injected += report.faults_injected;
            refused += report.store_errors + report.degraded_ops;
            compactions += report.compactions;
        }
        // The pass must not be vacuous: across the seeds, faults fired,
        // the market actually refused work because of them, and the log
        // was compacted under them.
        assert!(injected > 0, "no faults injected across any seed");
        assert!(refused > 0, "no operation ever hit a fault");
        assert!(compactions > 0, "no schedule ever compacted");
    }
}
