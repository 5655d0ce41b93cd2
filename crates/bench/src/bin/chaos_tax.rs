//! E16: the chaos tax — what the fault-injection seam costs when nothing
//! fails. Three rigs run the same purchase workload: an in-memory market
//! (no durability at all), a `DurableMarket` on `RealFs`, and a
//! `DurableMarket` on `FaultFs` armed with a **zero-fault** plan. The
//! `RealFs` → `FaultFs` delta is the full clean-path price of the `Vfs`
//! indirection plus the retry wrappers; a raw WAL-append microbench
//! isolates the same delta without pricing in the loop. Results print as
//! a table and land in `BENCH_chaos.json` for the experiment index.

#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_market::{DurableMarket, DurableOptions, FsyncPolicy, Market};
use qbdp_store::{FaultFs, FaultPlan, MarketEvent, RealFs, RetryPolicy, Wal};
use qbdp_workload::scenarios::business::{generate, BusinessConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const PURCHASES: u32 = 300;
const WAL_APPENDS: u32 = 20_000;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qbdp_chaos_tax_{tag}_{}", std::process::id()))
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

fn wal_append_rates() -> (f64, f64) {
    let event = MarketEvent::SetPrice {
        view: "Business.State=S3".into(),
        cents: 4900,
    };
    // `Never` keeps fdatasync out of the loop so the measured delta is
    // the seam itself: one retry-closure dispatch per vfs write.
    let real_dir = scratch("wal_real");
    std::fs::create_dir_all(&real_dir).expect("scratch dir");
    let mut wal = Wal::open_with(
        Arc::new(RealFs),
        real_dir.join("bench.wal"),
        FsyncPolicy::Never,
        RetryPolicy::default(),
    )
    .expect("wal opens");
    let real = rate(WAL_APPENDS, || {
        black_box(wal.append(black_box(&event)).expect("clean append"));
    });
    drop(wal);
    std::fs::remove_dir_all(&real_dir).ok();

    let fault_dir = scratch("wal_fault");
    std::fs::create_dir_all(&fault_dir).expect("scratch dir");
    let mut wal = Wal::open_with(
        Arc::new(FaultFs::new(FaultPlan::none())),
        fault_dir.join("bench.wal"),
        FsyncPolicy::Never,
        RetryPolicy::default(),
    )
    .expect("wal opens");
    let faulted = rate(WAL_APPENDS, || {
        black_box(wal.append(black_box(&event)).expect("clean append"));
    });
    drop(wal);
    std::fs::remove_dir_all(&fault_dir).ok();
    (real, faulted)
}

fn purchase_rates(qdp: &str) -> (f64, f64, f64) {
    let queries: Vec<String> = (0..10)
        .map(|s| format!("Q(n, c) :- Business(n, 'S{s}', c)"))
        .collect();
    let mut cursor = 0usize;
    let mut next = move || {
        cursor = (cursor + 1) % queries.len();
        queries[cursor].clone()
    };

    let memory = Market::open_qdp(qdp).expect("market opens");
    let in_memory = rate(PURCHASES, || {
        black_box(memory.purchase_str(&next()).expect("purchase"));
    });

    let real_dir = scratch("buy_real");
    std::fs::remove_dir_all(&real_dir).ok();
    let dm = DurableMarket::create(&real_dir, qdp, FsyncPolicy::Always).expect("durable market");
    let real = rate(PURCHASES, || {
        black_box(dm.purchase_str(&next()).expect("purchase"));
    });
    drop(dm);
    std::fs::remove_dir_all(&real_dir).ok();

    let fault_dir = scratch("buy_fault");
    std::fs::remove_dir_all(&fault_dir).ok();
    let options = DurableOptions {
        vfs: Arc::new(FaultFs::new(FaultPlan::none())),
        seed: Some(qdp),
        ..DurableOptions::new(FsyncPolicy::Always)
    };
    let dm = DurableMarket::open_with(&fault_dir, options).expect("durable market");
    let faulted = rate(PURCHASES, || {
        black_box(dm.purchase_str(&next()).expect("purchase"));
    });
    drop(dm);
    std::fs::remove_dir_all(&fault_dir).ok();
    (in_memory, real, faulted)
}

fn main() {
    let qdp = market_qdp();
    let (wal_real, wal_fault) = wal_append_rates();
    let (buy_memory, buy_real, buy_fault) = purchase_rates(&qdp);

    println!("E16 — the chaos tax (clean path, zero faults injected)");
    println!("  wal append (fsync=never):");
    println!("    RealFs          {wal_real:>12.0} ops/s");
    println!(
        "    FaultFs (clean) {wal_fault:>12.0} ops/s   seam tax {:+.1}%",
        tax_pct(wal_real, wal_fault)
    );
    println!("  purchase (business scenario, fsync=always):");
    println!("    in-memory       {buy_memory:>12.0} ops/s");
    println!(
        "    RealFs          {buy_real:>12.0} ops/s   durability tax {:+.1}%",
        tax_pct(buy_memory, buy_real)
    );
    println!(
        "    FaultFs (clean) {buy_fault:>12.0} ops/s   seam tax {:+.1}%",
        tax_pct(buy_real, buy_fault)
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"E16\",");
    let _ = writeln!(json, "  \"wal_appends\": {WAL_APPENDS},");
    let _ = writeln!(json, "  \"purchases\": {PURCHASES},");
    let _ = writeln!(json, "  \"wal_append_real_fs_ops_per_sec\": {wal_real:.1},");
    let _ = writeln!(
        json,
        "  \"wal_append_fault_fs_ops_per_sec\": {wal_fault:.1},"
    );
    let _ = writeln!(
        json,
        "  \"wal_append_seam_tax_pct\": {:.2},",
        tax_pct(wal_real, wal_fault)
    );
    let _ = writeln!(
        json,
        "  \"purchase_in_memory_ops_per_sec\": {buy_memory:.1},"
    );
    let _ = writeln!(json, "  \"purchase_real_fs_ops_per_sec\": {buy_real:.1},");
    let _ = writeln!(json, "  \"purchase_fault_fs_ops_per_sec\": {buy_fault:.1},");
    let _ = writeln!(
        json,
        "  \"purchase_durability_tax_pct\": {:.2},",
        tax_pct(buy_memory, buy_real)
    );
    let _ = writeln!(
        json,
        "  \"purchase_seam_tax_pct\": {:.2}",
        tax_pct(buy_real, buy_fault)
    );
    json.push('}');
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("  wrote BENCH_chaos.json");
}
