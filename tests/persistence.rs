//! Durable-state round trips: `.qdp` text serialization, snapshot +
//! write-ahead-log recovery, kill-at-any-byte prefix consistency, and
//! checked-arithmetic refusal of overflowing histories.
//!
//! The contract under test: a recovered market is **indistinguishable**
//! from the live one — same quotes to the cent with the same quality,
//! same revenue and ledger, and a cold quote cache at epoch 0 (it must
//! never serve pre-crash entries).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp::market::durable::WAL_FILE;
use qbdp::market::{DurableMarket, Ledger, Market};
use qbdp::prelude::*;
use qbdp::store::Wal;
use qbdp::workload::scenarios::{business, sports, webgraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const FIG1_QDP: &str = include_str!("../data/figure1.qdp");

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "qbdp_persist_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The scenario satellite: text round trip and durable recovery both
/// reproduce quotes to the cent with the same quality, plus identical
/// books, and the recovered cache starts cold at epoch 0.
fn roundtrip(tag: &str, market: Market, probes: &[&str], buy: &str) {
    // 1. `.qdp` text round trip.
    let reopened = Market::open_qdp(&market.to_qdp()).unwrap();
    for probe in probes {
        let a = market.quote_str(probe).unwrap();
        let b = reopened.quote_str(probe).unwrap();
        assert_eq!(a.price.as_cents(), b.price.as_cents(), "{tag}: {probe}");
        assert_eq!(a.quality, b.quality, "{tag}: {probe}");
    }

    // 2. Durable recovery, with real mutations in the log.
    let dir = temp_dir(tag);
    let dm = DurableMarket::create(&dir, &market.to_qdp(), FsyncPolicy::EveryN(2)).unwrap();
    dm.purchase_str(buy).unwrap();
    dm.purchase_str(probes[0]).unwrap();
    let live: Vec<MarketQuote> = probes
        .iter()
        .map(|p| dm.market().quote_str(p).unwrap())
        .collect();
    let live_revenue = dm.market().revenue();
    let live_sales = dm.market().with_ledger(Ledger::sales);
    let live_ledger = dm.market().with_ledger(Ledger::to_snapshot_text);
    drop(dm);

    for compacted in [false, true] {
        let recovered = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(
            recovered.market().revenue(),
            live_revenue,
            "{tag} compacted={compacted}: revenue"
        );
        assert_eq!(
            recovered.market().with_ledger(Ledger::sales),
            live_sales,
            "{tag} compacted={compacted}: sales"
        );
        assert_eq!(
            recovered.market().with_ledger(Ledger::to_snapshot_text),
            live_ledger,
            "{tag} compacted={compacted}: ledger"
        );
        for (probe, before) in probes.iter().zip(&live) {
            let after = recovered.market().quote_str(probe).unwrap();
            assert_eq!(
                before.price.as_cents(),
                after.price.as_cents(),
                "{tag} compacted={compacted}: {probe}"
            );
            assert_eq!(before.quality, after.quality, "{tag}: {probe}");
        }
        assert_eq!(
            recovered.market().cache_epoch(),
            0,
            "{tag} compacted={compacted}: recovered cache must be cold at epoch 0"
        );
        if !compacted {
            // Second pass recovers from a snapshot instead of the log.
            recovered.compact().unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sports_scenario_roundtrips() {
    let mut rng = StdRng::seed_from_u64(12);
    let m = sports::generate(
        &mut rng,
        sports::SportsConfig {
            teams: 6,
            games: 12,
            ..Default::default()
        },
    )
    .unwrap();
    let market = Market::open(m.catalog, m.instance, m.prices).unwrap();
    roundtrip(
        "sports",
        market,
        &[
            "Q(tid, g, a) :- Team('team2', tid), Game(g, tid, a)",
            "Q(g, t, a) :- Game(g, t, a)",
            "Q(tid) :- Team('nosuch', tid)",
        ],
        "Q(tid, g, a) :- Team('team2', tid), Game(g, tid, a)",
    );
}

#[test]
fn webgraph_scenario_roundtrips() {
    let mut rng = StdRng::seed_from_u64(13);
    let m = webgraph::generate(
        &mut rng,
        webgraph::WebGraphConfig {
            domains: 5,
            links: 12,
            ..Default::default()
        },
    )
    .unwrap();
    let market = Market::open(m.catalog, m.instance, m.prices).unwrap();
    roundtrip(
        "webgraph",
        market,
        &[
            "M(x, y) :- Links(x, y), Backlinks(x, y)",
            "Q(x, y) :- Links(x, y)",
        ],
        "Q(x, y) :- Links(x, y)",
    );
}

#[test]
fn business_scenario_roundtrips() {
    let mut rng = StdRng::seed_from_u64(11);
    let m = business::generate(
        &mut rng,
        business::BusinessConfig {
            states: 6,
            counties_per_state: 4,
            businesses: 80,
            ..Default::default()
        },
    )
    .unwrap();
    let market = Market::open(m.catalog, m.instance, m.prices).unwrap();
    roundtrip(
        "business",
        market,
        &[
            "Q(n, c) :- Business(n, 'S1', c)",
            "Q(n, c) :- Business(n, 'S1', c), Restaurant(n)",
            "Q() :- Business(n, 'S1', c), Restaurant(n)",
        ],
        "Q(n, c) :- Business(n, 'S1', c)",
    );
}

/// A long seller revision log replays to the live state. Thousands of
/// seeded `SetPrice` events, some refused for admitting arbitrage (the
/// log keeps refused events too; replay refuses them again), must
/// recover to the live market's canonical fingerprint, both from the log
/// and from the snapshot a compaction writes.
#[test]
fn long_revision_log_replays_to_the_live_state() {
    const REVISIONS: usize = 5_000;
    let mut rng = StdRng::seed_from_u64(15);
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
    let market = Market::open(m.catalog, m.instance, m.prices).unwrap();
    let qdp = market.to_qdp();
    // Every priced view as a `R.X=a` selector with its opening price.
    let priced: Vec<(&str, u64)> = qdp
        .lines()
        .filter_map(|l| l.strip_prefix("price "))
        .map(|l| {
            let (view, cents) = l.rsplit_once(' ').unwrap();
            (view, cents.parse().unwrap())
        })
        .collect();
    assert!(!priced.is_empty());

    let dir = temp_dir("revisions");
    let dm = DurableMarket::create(&dir, &qdp, FsyncPolicy::Never).unwrap();
    let (mut accepted, mut refused) = (0usize, 0usize);
    for _ in 0..REVISIONS {
        let (view, base) = priced[rng.gen_range(0..priced.len())];
        // Up to 40× the opening price: large raises undercut a cover.
        let cents = rng.gen_range(0..=base.max(1) * 40);
        match dm.set_price(view, Price::cents(cents)) {
            Ok(()) => accepted += 1,
            Err(MarketError::InconsistentPrices(_)) => refused += 1,
            Err(e) => panic!("{view} @ {cents}: {e}"),
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
    let live = qbdp::market::fingerprint(dm.market());
    drop(dm);

    for compacted in [false, true] {
        let recovered = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(
            qbdp::market::fingerprint(recovered.market()),
            live,
            "compacted={compacted}"
        );
        if !compacted {
            recovered.compact().unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-recover at **every byte** of the log: the recovered market
/// must equal the live market as it stood after exactly the events whose
/// frames survived the cut — never a blend, never an error, never more.
#[test]
fn figure1_kill_and_recover_is_prefix_consistent() {
    let dir = temp_dir("fig1");
    let dm = DurableMarket::create(&dir, FIG1_QDP, FsyncPolicy::Never).unwrap();

    // One WAL record per step; capture the live state after each.
    let fingerprint = |m: &Market| {
        (
            m.to_qdp(),
            m.revenue().as_cents(),
            m.with_ledger(Ledger::to_snapshot_text),
            m.policy(),
        )
    };
    let mut live = vec![fingerprint(dm.market())];
    let mut step = |dm: &DurableMarket| live.push(fingerprint(dm.market()));

    dm.insert("R", vec![Tuple::new([Value::text("a3")])])
        .unwrap();
    step(&dm);
    dm.purchase_str("Q(x) :- R(x)").unwrap();
    step(&dm);
    dm.set_price("T.Y=b2", Price::cents(250)).unwrap();
    step(&dm);
    dm.insert("T", vec![Tuple::new([Value::text("b2")])])
        .unwrap();
    step(&dm);
    let mut policy = dm.market().policy();
    policy.fuel = Some(5_000_000);
    dm.set_policy(policy).unwrap();
    step(&dm);
    dm.purchase_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
    step(&dm);
    dm.sync().unwrap();
    drop(dm);

    let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let snapshot_bytes = std::fs::read(dir.join("snapshot.qdps")).unwrap();

    // Record boundaries, to know which prefix each byte cut preserves.
    let mut boundaries = vec![0u64];
    {
        let (_, records) = Wal::open(dir.join(WAL_FILE), FsyncPolicy::Never).unwrap();
        for r in records {
            boundaries.push(r.end);
        }
    }
    assert_eq!(boundaries.len(), live.len(), "one record per step");

    let crash_dir = temp_dir("fig1_crash");
    for cut in 0..=wal_bytes.len() {
        std::fs::create_dir_all(&crash_dir).unwrap();
        std::fs::write(crash_dir.join("snapshot.qdps"), &snapshot_bytes).unwrap();
        std::fs::write(crash_dir.join(WAL_FILE), &wal_bytes[..cut]).unwrap();
        let recovered = DurableMarket::open(&crash_dir, FsyncPolicy::Never)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));
        let prefix = boundaries
            .iter()
            .filter(|&&b| b > 0 && b <= cut as u64)
            .count();
        let expected = &live[prefix];
        assert_eq!(
            fingerprint(recovered.market()),
            *expected,
            "cut at byte {cut} (prefix of {prefix} events)"
        );
        drop(recovered);
        std::fs::remove_dir_all(&crash_dir).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite coverage: recovery equivalence under **every** `FaultFs`
/// fault class. For each class the schedule is the same: one purchase is
/// acknowledged clean, the fault is armed on the WAL, a second purchase
/// runs into it, the disk "crashes", and the reopened market must equal
/// the acknowledged state. The one sanctioned exception is a poisoning
/// fsync, whose single in-flight purchase may legitimately surface after
/// recovery (the at-most-one uncertain tail event) — purchases never
/// change data or prices, so even then the `.qdp` text must match.
fn fault_class_recovery(tag: &str, qdp: &str, clean_buy: &str, armed_buy: &str) {
    use qbdp::market::MarketHealth;
    use qbdp::store::{FaultFs, FaultKind, FaultOp, FaultPlan, RetryPolicy, ScriptedFault};
    use std::sync::Arc;

    // `to_qdp` line order tracks map insertion history, which differs
    // between a market parsed from the scenario text and one re-parsed
    // from its snapshot; sort so the comparison is of state, not order.
    let sorted_fp = |m: &Market| {
        let text = m.to_qdp();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        (
            lines.join("\n"),
            m.revenue().as_cents(),
            m.with_ledger(Ledger::to_snapshot_text),
        )
    };

    let cases: [(&str, FaultOp, FaultKind, bool); 5] = [
        // (name, faulted op, kind, survivable-by-retry)
        ("eintr", FaultOp::Write, FaultKind::Eintr, true),
        ("eagain", FaultOp::Write, FaultKind::Eagain, true),
        (
            "enospc",
            FaultOp::Write,
            FaultKind::Enospc { keep: 3 },
            false,
        ),
        ("fsync-fail", FaultOp::Fsync, FaultKind::FsyncFail, false),
        (
            "torn-write",
            FaultOp::Write,
            FaultKind::TornWrite { keep: 4 },
            false,
        ),
    ];
    for (case, (name, op, kind, retried_away)) in cases.into_iter().enumerate() {
        let dir = temp_dir(&format!("{tag}_{name}"));
        let fs = FaultFs::new(FaultPlan::none());
        let retry = RetryPolicy {
            attempts: 3,
            base_delay_micros: 1,
            max_delay_micros: 5,
            jitter_seed: 7,
        };
        let options = DurableOptions {
            vfs: Arc::new(fs.clone()),
            retry,
            seed: Some(qdp),
            ..DurableOptions::new(FsyncPolicy::Always)
        };
        let dm = DurableMarket::open_with(&dir, options).unwrap();
        dm.purchase_str(clean_buy).unwrap();
        let acked = sorted_fp(dm.market());
        let armed_cents = dm.market().quote_str(armed_buy).unwrap().price.as_cents();

        let is_fsync_poison = matches!(kind, FaultKind::FsyncFail);
        fs.set_plan(FaultPlan {
            script: vec![ScriptedFault {
                op,
                path_contains: "market.wal".into(),
                skip: 0,
                kind,
            }],
            seeded: None,
        });
        let verdict = dm.purchase_str(armed_buy);
        assert!(fs.injected_count() > 0, "{tag}/{name}: fault never fired");
        let acked = if retried_away {
            verdict.unwrap_or_else(|e| {
                panic!("{tag}/{name}: transient fault must be retried away: {e}")
            });
            assert_eq!(dm.health(), MarketHealth::Healthy, "{tag}/{name}");
            sorted_fp(dm.market())
        } else {
            assert!(verdict.is_err(), "{tag}/{name}: faulted purchase must fail");
            assert!(
                matches!(dm.health(), MarketHealth::ReadOnly { .. }),
                "{tag}/{name}: durable damage must degrade the market"
            );
            // Quotes keep serving sound intervals from the frozen state.
            let q = dm.market().quote_str(clean_buy).unwrap();
            assert!(q.lower_bound <= q.price, "{tag}/{name}: degraded quote");
            acked
        };
        drop(dm);

        fs.clear_plan();
        fs.simulate_crash(0x5eed + case as u64).unwrap();
        let options = DurableOptions {
            vfs: Arc::new(fs),
            retry: RetryPolicy::none(),
            ..DurableOptions::new(FsyncPolicy::Never)
        };
        let back = DurableMarket::open_with(&dir, options)
            .unwrap_or_else(|e| panic!("{tag}/{name}: recovery failed: {e}"));
        assert_eq!(back.health(), MarketHealth::Healthy, "{tag}/{name}");
        let got = sorted_fp(back.market());
        assert_eq!(got.0, acked.0, "{tag}/{name}: recovered data+prices");
        if got.1 == acked.1 {
            assert_eq!(got.2, acked.2, "{tag}/{name}: recovered ledger");
        } else {
            // Only a poisoning fsync leaves an uncertain tail, and it is
            // exactly the one in-flight purchase.
            assert!(
                is_fsync_poison,
                "{tag}/{name}: only fsync poison may surface a tail"
            );
            assert_eq!(
                Some(got.1),
                acked.1.checked_add(armed_cents),
                "{tag}/{name}: tail must be the in-flight purchase"
            );
        }
        // The reopened market is fully writable again.
        assert!(back.market().quote_str(clean_buy).is_ok(), "{tag}/{name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn sports_recovers_under_every_fault_class() {
    let mut rng = StdRng::seed_from_u64(12);
    let m = sports::generate(
        &mut rng,
        sports::SportsConfig {
            teams: 6,
            games: 12,
            ..Default::default()
        },
    )
    .unwrap();
    let market = Market::open(m.catalog, m.instance, m.prices).unwrap();
    fault_class_recovery(
        "sports",
        &market.to_qdp(),
        "Q(tid, g, a) :- Team('team2', tid), Game(g, tid, a)",
        "Q(g, t, a) :- Game(g, t, a)",
    );
}

#[test]
fn webgraph_recovers_under_every_fault_class() {
    let mut rng = StdRng::seed_from_u64(13);
    let m = webgraph::generate(
        &mut rng,
        webgraph::WebGraphConfig {
            domains: 5,
            links: 12,
            ..Default::default()
        },
    )
    .unwrap();
    let market = Market::open(m.catalog, m.instance, m.prices).unwrap();
    fault_class_recovery(
        "webgraph",
        &market.to_qdp(),
        "Q(x, y) :- Links(x, y)",
        "M(x, y) :- Links(x, y), Backlinks(x, y)",
    );
}

#[test]
fn business_recovers_under_every_fault_class() {
    let mut rng = StdRng::seed_from_u64(11);
    let m = business::generate(
        &mut rng,
        business::BusinessConfig {
            states: 6,
            counties_per_state: 4,
            businesses: 80,
            ..Default::default()
        },
    )
    .unwrap();
    let market = Market::open(m.catalog, m.instance, m.prices).unwrap();
    fault_class_recovery(
        "business",
        &market.to_qdp(),
        "Q(n, c) :- Business(n, 'S1', c)",
        "Q(n, c) :- Business(n, 'S1', c), Restaurant(n)",
    );
}

/// A history whose replayed revenue would cross the representable range
/// is refused with a typed error — the books never wrap or saturate.
#[test]
fn overflowing_replay_is_refused() {
    let dir = temp_dir("overflow");
    let dm = DurableMarket::create(&dir, FIG1_QDP, FsyncPolicy::Never).unwrap();
    drop(dm);
    // Forge two near-MAX purchases straight into the log (the live write
    // path pre-checks and would refuse the second).
    {
        let (mut wal, _) = Wal::open(dir.join(WAL_FILE), FsyncPolicy::Always).unwrap();
        for _ in 0..2 {
            wal.append(&MarketEvent::Purchase {
                query: "Q(x) :- R(x)".into(),
                price_cents: Price::INFINITE.as_cents() - 1,
                answer_tuples: 1,
                views: 1,
            })
            .unwrap();
        }
    }
    match DurableMarket::open(&dir, FsyncPolicy::Never) {
        Err(MarketError::RevenueOverflow) => {}
        other => panic!("expected RevenueOverflow, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The live write path refuses the overflowing purchase *before* logging
/// it, so the log stays replayable and the first sale stands.
#[test]
fn live_overflow_is_refused_before_logging() {
    let dir = temp_dir("live_overflow");
    let dm = DurableMarket::create(&dir, FIG1_QDP, FsyncPolicy::Never).unwrap();
    drop(dm);
    {
        let (mut wal, _) = Wal::open(dir.join(WAL_FILE), FsyncPolicy::Always).unwrap();
        wal.append(&MarketEvent::Purchase {
            query: "Q(x) :- R(x)".into(),
            price_cents: Price::INFINITE.as_cents() - 1,
            answer_tuples: 1,
            views: 1,
        })
        .unwrap();
    }
    let dm = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
    let wal_before = dm.wal_position();
    match dm.purchase_str("Q(x) :- R(x)") {
        Err(MarketError::RevenueOverflow) => {}
        other => panic!("expected RevenueOverflow, got {other:?}"),
    }
    assert_eq!(dm.wal_position(), wal_before, "refused purchase not logged");
    // The market keeps serving and stays recoverable.
    assert!(dm.market().quote_str("Q(x) :- R(x)").is_ok());
    drop(dm);
    assert!(DurableMarket::open(&dir, FsyncPolicy::Never).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
