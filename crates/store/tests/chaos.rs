//! The chaos suite: randomized fault schedules against full market
//! workloads on [`FaultFs`], asserting the three robustness invariants
//! (see `qbdp_market::chaos`):
//!
//! 1. the recovered state equals a prefix of the acknowledged history
//!    (exactly the acked state, or acked + the one uncertain tail event
//!    of a poisoning fsync);
//! 2. no acknowledged purchase is ever lost (under `FsyncPolicy::Always`);
//! 3. every quote served under degradation is still a sound
//!    `[lower, upper]` interval over the frozen state.
//!
//! Locally this runs a few dozen schedules per scenario; CI cranks it
//! to 1000 via `QBDP_CHAOS_SCHEDULES` in `--release`. Every schedule is
//! deterministic in its seed, so any failure message names the exact
//! seed to replay.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp_market::chaos::{run_schedule, ChaosConfig};
use qbdp_market::{DurableOptions, FsyncPolicy, Market, MarketHealth};
use qbdp_store::{FaultFs, FaultPlan, RetryPolicy};
use qbdp_workload::scenarios::{business, sports, webgraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const FIG1_QDP: &str = include_str!("../../../data/figure1.qdp");

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "qbdp_chaos_suite_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Schedules per scenario: a fast default locally, 1000 in CI.
fn schedules() -> u64 {
    std::env::var("QBDP_CHAOS_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25)
}

/// Run the scenario's schedules; returns how many automatic compactions
/// ran across them.
fn run_scenario(tag: &str, qdp: &str) -> u64 {
    let n = schedules();
    let mut injected = 0u64;
    let mut refused = 0u64;
    let mut acked = 0u64;
    let mut pending_tails = 0u64;
    let mut compactions = 0u64;
    for seed in 0..n {
        let dir = temp_dir(tag);
        let cfg = ChaosConfig::new(seed);
        let report = run_schedule(qdp, &dir, &cfg)
            .unwrap_or_else(|e| panic!("{tag} seed {seed}: schedule setup failed: {e}"));
        assert!(
            report.is_sound(),
            "{tag} seed {seed} violated invariants: {report}"
        );
        injected += report.faults_injected;
        refused += report.store_errors + report.degraded_ops;
        acked += report.acked;
        pending_tails += u64::from(report.recovered_pending_tail);
        compactions += report.compactions;
        std::fs::remove_dir_all(&dir).ok();
    }
    // Never vacuous: across the schedule set, real work was acked, real
    // faults fired, and real operations were refused because of them.
    assert!(acked > 0, "{tag}: nothing was ever acknowledged");
    assert!(injected > 0, "{tag}: the injector never fired");
    assert!(refused > 0, "{tag}: no operation ever hit a fault");
    qbdp_obs::log_info!(
        "{tag}: {n} schedule(s), {acked} acked, {injected} fault(s), \
         {refused} refused, {pending_tails} pending tail(s) recovered, \
         {compactions} compaction(s)"
    );
    compactions
}

fn scenario_qdp(build: impl FnOnce() -> Market) -> String {
    build().to_qdp()
}

#[test]
fn chaos_figure1() {
    // A small market: its log outgrows the snapshot within a schedule,
    // so automatic compactions run under the faults too.
    assert!(
        run_scenario("figure1", FIG1_QDP) > 0,
        "no schedule compacted"
    );
}

#[test]
fn chaos_sports() {
    let qdp = scenario_qdp(|| {
        let mut rng = StdRng::seed_from_u64(12);
        let m = sports::generate(
            &mut rng,
            sports::SportsConfig {
                teams: 5,
                games: 8,
                ..Default::default()
            },
        )
        .unwrap();
        Market::open(m.catalog, m.instance, m.prices).unwrap()
    });
    run_scenario("sports", &qdp);
}

#[test]
fn chaos_webgraph() {
    let qdp = scenario_qdp(|| {
        let mut rng = StdRng::seed_from_u64(13);
        let m = webgraph::generate(
            &mut rng,
            webgraph::WebGraphConfig {
                domains: 4,
                links: 8,
                ..Default::default()
            },
        )
        .unwrap();
        Market::open(m.catalog, m.instance, m.prices).unwrap()
    });
    assert!(run_scenario("webgraph", &qdp) > 0, "no schedule compacted");
}

#[test]
fn chaos_business() {
    let qdp = scenario_qdp(|| {
        let mut rng = StdRng::seed_from_u64(11);
        let m = business::generate(
            &mut rng,
            business::BusinessConfig {
                states: 4,
                counties_per_state: 3,
                businesses: 40,
                ..Default::default()
            },
        )
        .unwrap();
        Market::open(m.catalog, m.instance, m.prices).unwrap()
    });
    run_scenario("business", &qdp);
}

/// The degradation contract end to end on the real market type: a
/// poisoning fsync flips the market read-only, quotes keep serving the
/// frozen state, and a restart recovers a healthy, writable market.
#[test]
fn fsync_poison_keeps_serving_then_recovers() {
    use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
    let dir = temp_dir("poison_serve");
    let fs = FaultFs::new(FaultPlan {
        script: vec![ScriptedFault {
            op: FaultOp::Fsync,
            path_contains: "market.wal".into(),
            skip: 2,
            kind: FaultKind::FsyncFail,
        }],
        seeded: None,
    });
    let dm = qbdp_market::DurableMarket::open_with(
        &dir,
        DurableOptions {
            vfs: std::sync::Arc::new(fs.clone()),
            retry: RetryPolicy::none(),
            seed: Some(FIG1_QDP),
            ..DurableOptions::new(FsyncPolicy::Always)
        },
    )
    .unwrap();
    dm.purchase_str("Q(x) :- R(x)").unwrap();
    dm.purchase_str("Q(x, y) :- S(x, y)").unwrap();
    let acked_revenue = dm.market().revenue();
    // Third append hits the scripted fsync failure.
    assert!(dm.purchase_str("Q(y) :- T(y)").is_err());
    assert!(matches!(dm.health(), MarketHealth::ReadOnly { .. }));
    // Quotes keep serving sound intervals from the frozen state.
    let q = dm.market().quote_str("Q(x) :- R(x)").unwrap();
    assert!(q.lower_bound <= q.price);
    drop(dm);
    fs.simulate_crash(99).unwrap();
    let back = qbdp_market::DurableMarket::open_with(
        &dir,
        DurableOptions {
            vfs: std::sync::Arc::new(fs),
            retry: RetryPolicy::none(),
            ..DurableOptions::new(FsyncPolicy::Never)
        },
    )
    .unwrap();
    assert_eq!(back.health(), MarketHealth::Healthy);
    assert!(back.market().revenue() >= acked_revenue, "acked sales kept");
    back.purchase_str("Q(x) :- R(x)").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Post-crash bit-rot: scrub() reports the damaged file and offset
/// before the bytes are load-bearing.
#[test]
fn scrub_detects_post_crash_bit_rot() {
    let dir = temp_dir("bitrot");
    let fs = FaultFs::new(FaultPlan::none());
    let dm = qbdp_market::DurableMarket::open_with(
        &dir,
        DurableOptions {
            vfs: std::sync::Arc::new(fs.clone()),
            retry: RetryPolicy::none(),
            seed: Some(FIG1_QDP),
            ..DurableOptions::new(FsyncPolicy::Always)
        },
    )
    .unwrap();
    dm.purchase_str("Q(x) :- R(x)").unwrap();
    assert!(dm.scrub().is_clean());
    // Rot one durable byte mid-log, as a dying disk would.
    let wal_path = dir.join("market.wal");
    let len = std::fs::metadata(&wal_path).unwrap().len();
    fs.corrupt_byte(&wal_path, len / 2, 0x08).unwrap();
    fs.simulate_crash(7).unwrap();
    let report = dm.scrub();
    assert!(!report.is_clean(), "{report}");
    assert_eq!(report.findings[0].file, "wal");
    assert!(report.findings[0].offset.is_some());
    std::fs::remove_dir_all(&dir).ok();
}
