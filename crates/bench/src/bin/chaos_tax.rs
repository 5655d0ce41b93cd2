//! E16: the chaos tax — what the fault-injection seam costs when nothing
//! fails — together with the durability tax it rides on (E15) and the
//! cost of recovery (E15b).
//!
//! * Purchases (E15, E16): the same purchase workload runs on an
//!   in-memory market (no durability at all), on `DurableMarket`s over
//!   `RealFs` under each fsync policy (`Never`, `EveryN(32)`, `Always`),
//!   and on a `DurableMarket` over `FaultFs` armed with a **zero-fault**
//!   plan under `Always`. The `RealFs` → `FaultFs` delta is the full
//!   clean-path price of the `Vfs` indirection plus the retry wrappers; a
//!   raw WAL-append microbench isolates the same delta without pricing in
//!   the loop.
//! * Recovery (E15b): a cold open of a snapshot plus a 10k-event log
//!   suffix (purchases forged straight into the WAL, so building the
//!   fixture takes no purchase evaluation per event, and no compaction
//!   shortens the log: the worst-case replay).
//! * Recovery after a revision history (E15c): a cold open after 10k
//!   `set_price` calls through a `DurableMarket`, whose automatic
//!   compaction keeps the log within a snapshot's size.
//!
//! Every measurement runs [`REPEATS`] times into `BENCH_chaos.json`
//! (qbench's `qbench/1` schema). A run is correct when every purchase
//! rig charged the same prices, recovery replayed every forged sale, and
//! the market reopened after the revisions equals the live one.

#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_bench::{metric, write_results, REPEATS};
use qbdp_core::Price;
use qbdp_market::{fingerprint, DurableMarket, DurableOptions, FsyncPolicy, Market, MarketOps};
use qbdp_store::{FaultFs, FaultPlan, MarketEvent, RealFs, RetryPolicy, Vfs, Wal};
use qbdp_workload::scenarios::business::{generate, BusinessConfig};
use qbench::report::RunResult;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const PURCHASES: u32 = 300;
const WAL_APPENDS: u32 = 20_000;
/// Forged purchases in the log suffix a recovery replays.
const REPLAY_EVENTS: usize = 10_000;
/// Durable price revisions before the E15c reopen.
const REVISIONS: u64 = 10_000;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qbdp_chaos_tax_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn market_qdp() -> String {
    let mut rng = StdRng::seed_from_u64(13);
    let m = generate(
        &mut rng,
        BusinessConfig {
            states: 10,
            counties_per_state: 5,
            businesses: 200,
            ..Default::default()
        },
    )
    .expect("business scenario generates");
    Market::open(m.catalog, m.instance, m.prices)
        .expect("scenario market opens")
        .to_qdp()
}

/// Ops per second for `n` runs of `f`, after a small warmup.
fn rate(n: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..(n / 10).max(1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    f64::from(n) / start.elapsed().as_secs_f64()
}

/// Percentage slowdown of `slow` relative to `fast` (positive = tax).
fn tax_pct(fast: f64, slow: f64) -> f64 {
    (fast / slow - 1.0) * 100.0
}

/// Raw WAL appends per second on `vfs`. `Never` keeps fdatasync out of
/// the loop so the delta between filesystems is the seam itself: one
/// retry-closure dispatch per vfs write.
fn wal_append_rate(vfs: Arc<dyn Vfs>, tag: &str) -> f64 {
    let event = MarketEvent::SetPrice {
        view: "Business.State=S3".into(),
        cents: 4900,
    };
    let dir = scratch(tag);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (mut wal, _) = Wal::open_with(
        vfs,
        dir.join("bench.wal"),
        FsyncPolicy::Never,
        RetryPolicy::default(),
    )
    .expect("wal opens");
    let ops = rate(WAL_APPENDS, || {
        black_box(wal.append(black_box(&event)).expect("clean append"));
    });
    drop(wal);
    std::fs::remove_dir_all(&dir).ok();
    ops
}

/// Purchases per second on `market`, cycling through the ten state
/// slices, and the prices it charged in order.
fn purchase_rate(market: &dyn MarketOps) -> (f64, Vec<Price>) {
    let mut charged = Vec::new();
    let mut state = 0;
    let ops = rate(PURCHASES, || {
        state = (state + 1) % 10;
        let query = format!("Q(n, c) :- Business(n, 'S{state}', c)");
        charged.push(market.purchase_str(&query).expect("purchase").quote.price);
    });
    (ops, charged)
}

/// [`purchase_rate`] on a fresh durable market over `vfs`.
fn durable_purchase_rate(
    qdp: &str,
    fsync: FsyncPolicy,
    vfs: Arc<dyn Vfs>,
    tag: &str,
) -> (f64, Vec<Price>) {
    let dir = scratch(tag);
    let options = DurableOptions {
        vfs,
        seed: Some(qdp),
        ..DurableOptions::new(fsync)
    };
    let dm = DurableMarket::open_with(&dir, options).expect("durable market");
    let out = purchase_rate(&dm);
    drop(dm);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Seconds for a cold open of a snapshot plus a [`REPLAY_EVENTS`]-event
/// log suffix, and the sales it recovered.
fn recovery(qdp: &str) -> (f64, usize) {
    let dir = scratch("recovery");
    drop(DurableMarket::create(&dir, qdp, FsyncPolicy::Never).expect("durable market"));
    let (mut wal, _) = Wal::open(dir.join("market.wal"), FsyncPolicy::Never).expect("wal opens");
    for i in 0..REPLAY_EVENTS as u64 {
        wal.append(&MarketEvent::Purchase {
            query: "Q(n, c) :- Business(n, 'S1', c)".into(),
            price_cents: 100 + i % 50,
            answer_tuples: 3,
            views: 8,
        })
        .expect("forged purchase");
    }
    wal.sync().expect("log syncs");
    drop(wal);
    let start = Instant::now();
    let dm = DurableMarket::open(&dir, FsyncPolicy::Never).expect("recovery");
    let seconds = start.elapsed().as_secs_f64();
    let sales = dm.market().sales();
    drop(dm);
    std::fs::remove_dir_all(&dir).ok();
    (seconds, sales)
}

/// Seconds for a cold open after [`REVISIONS`] durable `set_price`
/// calls over the ten state views, and whether the reopened market
/// equals the live one.
fn recovery_after_revisions(qdp: &str) -> (f64, bool) {
    let dir = scratch("revisions");
    let dm = DurableMarket::create(&dir, qdp, FsyncPolicy::Never).expect("durable market");
    for i in 0..REVISIONS {
        let view = format!("Business.State=S{}", i % 10);
        dm.set_price(&view, Price::cents(19_000 + (i * 37) % 900))
            .expect("an accepted revision");
    }
    let live = fingerprint(dm.market());
    drop(dm);
    let start = Instant::now();
    let dm = DurableMarket::open(&dir, FsyncPolicy::Never).expect("recovery");
    let seconds = start.elapsed().as_secs_f64();
    let same = fingerprint(dm.market()) == live;
    drop(dm);
    std::fs::remove_dir_all(&dir).ok();
    (seconds, same)
}

/// One repeat of every rig.
fn measure(qdp: &str, seed: u64) -> RunResult {
    let real = || -> Arc<dyn Vfs> { Arc::new(RealFs) };
    let clean = || -> Arc<dyn Vfs> { Arc::new(FaultFs::new(FaultPlan::none())) };
    let wal_real = wal_append_rate(real(), "wal_real");
    let wal_fault = wal_append_rate(clean(), "wal_fault");

    let (memory, reference) = purchase_rate(&Market::open_qdp(qdp).expect("market opens"));
    let rigs: Vec<(&str, (f64, Vec<Price>))> = [
        ("purchase_wal_never_rps", FsyncPolicy::Never, real()),
        ("purchase_wal_every_32_rps", FsyncPolicy::EveryN(32), real()),
        ("purchase_wal_always_rps", FsyncPolicy::Always, real()),
        ("purchase_fault_fs_rps", FsyncPolicy::Always, clean()),
    ]
    .into_iter()
    .map(|(name, fsync, vfs)| (name, durable_purchase_rate(qdp, fsync, vfs, name)))
    .collect();
    let (always, fault) = (rigs[2].1 .0, rigs[3].1 .0);
    let (recovery_s, sales) = recovery(qdp);
    let (revisions_s, same) = recovery_after_revisions(qdp);

    let mut metrics = vec![
        metric("wal_append_real_fs_rps", "1/s", wal_real),
        metric("wal_append_fault_fs_rps", "1/s", wal_fault),
        metric("wal_append_seam_tax_pct", "%", tax_pct(wal_real, wal_fault)),
        metric("purchase_in_memory_rps", "1/s", memory),
    ];
    metrics.extend(
        rigs.iter()
            .map(|(name, (ops, _))| metric(name, "1/s", *ops)),
    );
    metrics.extend([
        metric("purchase_durability_tax_pct", "%", tax_pct(memory, always)),
        metric("purchase_seam_tax_pct", "%", tax_pct(always, fault)),
        metric("recovery_10k_replay_s", "s", recovery_s),
        metric("recovery_after_10k_revisions_s", "s", revisions_s),
    ]);
    let purchases = reference.len() + rigs.iter().map(|(_, (_, c))| c.len()).sum::<usize>();
    RunResult {
        workload: "chaos_tax".to_string(),
        seed,
        correct: rigs.iter().all(|(_, (_, charged))| *charged == reference)
            && sales == REPLAY_EVENTS
            && same,
        attempted: purchases as u64,
        failed: 0,
        metrics,
    }
}

fn main() {
    println!(
        "E15/E16 — durability and chaos taxes (clean path, zero faults injected), {REPEATS} runs"
    );
    let qdp = market_qdp();
    let start = Instant::now();
    let runs: Vec<RunResult> = (0..REPEATS).map(|seed| measure(&qdp, seed)).collect();
    write_results(
        "BENCH_chaos.json",
        &runs,
        start.elapsed().as_secs_f64() / REPEATS as f64,
    );
    assert!(
        runs.iter().all(|r| r.correct),
        "a purchase rig charged different prices, recovery lost a forged sale, \
         or the market reopened after the revisions differs from the live one"
    );
}
