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
//! * Recovery by layer (E15d): cold reopens of qbench's markets, split
//!   by [`DurableMarket::recovery_profile`] into the snapshot load and
//!   CRC, the `.qdp` read, `Pricer::new` with the consistency check, the
//!   ledger restore, the log scan and the replay. `directory` is that
//!   workload's market as set up (no log). `chain` is the `durable_buys`
//!   market with [`SNAPSHOT_SALES`] sales in its snapshot and
//!   [`TAIL_SALES`] more in its log, drawn as that workload's buyers
//!   draw them (its own request mix, seeded, purchases kept);
//!   `repeat_pct` is the share of those sales whose query an earlier
//!   sale already bought. `chain_distinct` logs the same sales, each
//!   under a query text no other sale names, so the ledger shares no
//!   text. Each row is the median of [`REOPENS`] reopens; `layers_pct`
//!   is the median share of the open that the layers account for.
//!
//! Every measurement runs [`REPEATS`] times into `BENCH_chaos.json`
//! (qbench's `qbench/1` schema). A run is correct when every purchase
//! rig charged the same prices, recovery replayed every forged sale, the
//! market reopened after the revisions equals the live one, every E15d
//! reopen recovered every sale, and the layers of a median E15d reopen
//! sum to its open within 10%.

#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_bench::{metric, write_results, REPEATS};
use qbdp_core::Price;
use qbdp_market::{
    fingerprint, DurableMarket, DurableOptions, FsyncPolicy, Market, MarketOps, RecoveryProfile,
};
use qbdp_store::{FaultFs, FaultPlan, MarketEvent, RealFs, RetryPolicy, Vfs, Wal};
use qbdp_workload::scenarios::business::{generate, BusinessConfig};
use qbench::report::RunResult;
use qbench::workload::{Fixture, Kind};
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
/// Sales in the E15d chain market's snapshot.
const SNAPSHOT_SALES: usize = 5_600;
/// Sales in the E15d chain market's log, past its snapshot.
const TAIL_SALES: usize = 1_600;
/// Cold reopens per E15d row.
const REOPENS: usize = 21;
/// Seed of the draw of the E15d chain market's sales.
const SALES_SEED: u64 = 15;

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

/// An E15d market: its name, the directory it lives in, the sales a
/// reopen must recover and the share of them that repeat an earlier
/// sale's query.
struct Layered {
    name: &'static str,
    dir: PathBuf,
    sales: usize,
    repeat_pct: f64,
}

/// [`SNAPSHOT_SALES`] + [`TAIL_SALES`] purchases as `durable_buys`
/// buyers make them: `fx`'s own request mix, seeded, keeping the
/// purchases; each logged with its query's rendered text and price, as
/// a live purchase logs it.
fn drawn_sales(fx: &Fixture) -> Vec<MarketEvent> {
    let live = Market::open_qdp(&fx.qdp).expect("market opens");
    let mut logged: Vec<Option<MarketEvent>> = vec![None; fx.queries.len()];
    let mut rng = StdRng::seed_from_u64(SALES_SEED);
    let mut sales = Vec::with_capacity(SNAPSHOT_SALES + TAIL_SALES);
    while sales.len() < SNAPSHOT_SALES + TAIL_SALES {
        let request = fx.pick(&mut rng) as usize;
        if fx.req_kind[request] != Kind::Purchase {
            continue;
        }
        let q = fx.req_query[request] as usize;
        let sale = logged[q].get_or_insert_with(|| {
            let quote = live.quote_str(&fx.queries[q]).expect("a purchasable query");
            MarketEvent::Purchase {
                views: quote.views().len() as u64,
                price_cents: quote.price.as_cents(),
                answer_tuples: 1,
                query: quote.query,
            }
        });
        sales.push(sale.clone());
    }
    sales
}

/// Percentage of `sales` whose query an earlier sale already bought.
fn repeat_pct(sales: &[MarketEvent]) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let repeats = sales
        .iter()
        .filter(|e| match e {
            MarketEvent::Purchase { query, .. } => !seen.insert(query.as_str()),
            _ => false,
        })
        .count();
    100.0 * repeats as f64 / sales.len() as f64
}

/// A durable copy of `qdp` in `dir` whose snapshot holds the first
/// [`SNAPSHOT_SALES`] of `sales` and whose log holds the rest.
fn chain_market(dir: &PathBuf, qdp: &str, sales: &[MarketEvent]) {
    drop(DurableMarket::create(dir, qdp, FsyncPolicy::Never).expect("durable market"));
    let forge = |sales: &[MarketEvent]| {
        let (mut wal, _) =
            Wal::open(dir.join("market.wal"), FsyncPolicy::Never).expect("wal opens");
        for sale in sales {
            wal.append(sale).expect("forged purchase");
        }
        wal.sync().expect("log syncs");
    };
    let (snapshot, tail) = sales.split_at(SNAPSHOT_SALES);
    forge(snapshot);
    let dm = DurableMarket::open(dir, FsyncPolicy::Never).expect("recovery");
    dm.compact().expect("compaction");
    drop(dm);
    forge(tail);
}

/// The E15d markets, built once: qbench's `directory` market as set up,
/// and its `durable_buys` market with [`drawn_sales`], as drawn and
/// with every sale's query text made distinct.
fn layered_markets() -> Vec<Layered> {
    let fixture = |name| qbench::workload::build(name).expect("a qbench workload");
    let directory = scratch("e15d_directory");
    drop(
        DurableMarket::create(&directory, &fixture("directory").qdp, FsyncPolicy::Never)
            .expect("durable market"),
    );
    let buys = fixture("durable_buys");
    let drawn = drawn_sales(&buys);
    // The same sales, sale `i`'s query head renamed `Q{i}`: the same
    // query, under a text of its own.
    let distinct: Vec<MarketEvent> = drawn
        .iter()
        .enumerate()
        .map(|(i, e)| match e {
            MarketEvent::Purchase {
                query,
                price_cents,
                answer_tuples,
                views,
            } => MarketEvent::Purchase {
                query: format!(
                    "Q{i}{}",
                    query.strip_prefix('Q').expect("a query headed `Q`")
                ),
                price_cents: *price_cents,
                answer_tuples: *answer_tuples,
                views: *views,
            },
            other => other.clone(),
        })
        .collect();
    let mut markets = vec![Layered {
        name: "directory",
        dir: directory,
        sales: 0,
        repeat_pct: 0.0,
    }];
    for (name, sales) in [("chain", drawn), ("chain_distinct", distinct)] {
        let dir = scratch(&format!("e15d_{name}"));
        chain_market(&dir, &buys.qdp, &sales);
        markets.push(Layered {
            name,
            dir,
            sales: sales.len(),
            repeat_pct: repeat_pct(&sales),
        });
    }
    markets
}

/// E15d: [`REOPENS`] cold reopens of `m`, as one metric per layer (the
/// median, µs), the open's median and the median share of the open the
/// layers sum to; and whether every reopen recovered every sale and
/// that median share is within 10% of the whole.
fn reopen_layers(m: &Layered) -> (Vec<qbench::report::Metric>, bool) {
    let mut opens = Vec::with_capacity(REOPENS);
    let mut profiles: Vec<RecoveryProfile> = Vec::with_capacity(REOPENS);
    let mut ok = true;
    for _ in 0..REOPENS {
        let start = Instant::now();
        let dm = DurableMarket::open(&m.dir, FsyncPolicy::Never).expect("recovery");
        let open = start.elapsed();
        let profile = dm.recovery_profile().expect("a recovered market");
        ok &= dm.market().sales() == m.sales;
        drop(dm);
        opens.push(open);
        profiles.push(profile);
    }
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let median = |f: &dyn Fn(usize) -> f64| {
        let v: Vec<f64> = (0..REOPENS).map(f).collect();
        qbench::report::median(&v).expect("reopens were timed")
    };
    let layer = |name: &str, f: fn(&RecoveryProfile) -> std::time::Duration| {
        metric(
            &format!("e15d_{}_{name}_us", m.name),
            "us",
            median(&|i| us(f(&profiles[i]))),
        )
    };
    let share = median(&|i| 100.0 * profiles[i].total().as_secs_f64() / opens[i].as_secs_f64());
    let mut metrics = vec![
        metric(
            &format!("e15d_{}_open_us", m.name),
            "us",
            median(&|i| us(opens[i])),
        ),
        layer("snapshot", |p| p.snapshot),
        layer("qdp", |p| p.qdp),
        layer("pricer", |p| p.pricer),
        layer("ledger", |p| p.ledger),
        layer("wal_scan", |p| p.wal_scan),
        layer("replay", |p| p.replay),
        metric(&format!("e15d_{}_layers_pct", m.name), "%", share),
    ];
    if m.sales > 0 {
        metrics.push(metric(
            &format!("e15d_{}_repeat_pct", m.name),
            "%",
            m.repeat_pct,
        ));
    }
    (metrics, ok && (90.0..=110.0).contains(&share))
}

/// One repeat of every rig.
fn measure(qdp: &str, layered: &[Layered], seed: u64) -> RunResult {
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
    let mut layers_ok = true;
    let mut layer_metrics = Vec::new();
    for m in layered {
        let (metrics, ok) = reopen_layers(m);
        layer_metrics.extend(metrics);
        layers_ok &= ok;
    }

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
    metrics.extend(layer_metrics);
    let purchases = reference.len() + rigs.iter().map(|(_, (_, c))| c.len()).sum::<usize>();
    RunResult {
        workload: "chaos_tax".to_string(),
        seed,
        correct: rigs.iter().all(|(_, (_, charged))| *charged == reference)
            && sales == REPLAY_EVENTS
            && same
            && layers_ok,
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
    let layered = layered_markets();
    let start = Instant::now();
    let runs: Vec<RunResult> = (0..REPEATS)
        .map(|seed| measure(&qdp, &layered, seed))
        .collect();
    for m in &layered {
        std::fs::remove_dir_all(&m.dir).ok();
    }
    write_results(
        "BENCH_chaos.json",
        &runs,
        start.elapsed().as_secs_f64() / REPEATS as f64,
    );
    assert!(
        runs.iter().all(|r| r.correct),
        "a purchase rig charged different prices, recovery lost a forged sale, \
         the market reopened after the revisions differs from the live one, \
         an E15d reopen lost a sale, or a median reopen's layers miss its open by over 10%"
    );
}
