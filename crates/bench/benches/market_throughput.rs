//! E13: marketplace quote and purchase throughput on the business
//! directory scenario, plus E13b: batched vs serial pricing of a GChQ
//! workload (the parallel worker-pool datapoint; on a single-core host
//! the two land within noise of each other, the speedup appears with
//! cores), plus E15: the durability tax — purchase throughput with the
//! write-ahead log off vs on under each fsync policy, and recovery time
//! for a snapshot plus a 10k-event log replay.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qbdp_core::Budget;
use qbdp_market::{DurableMarket, FsyncPolicy, Market};
use qbdp_store::{MarketEvent, Wal};
use qbdp_workload::scenarios::business::{generate, BusinessConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn market() -> Market {
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
    .unwrap();
    Market::open(m.catalog, m.instance, m.prices).unwrap()
}

fn bench_quotes(c: &mut Criterion) {
    let market = market();
    let mut group = c.benchmark_group("market");
    group.throughput(Throughput::Elements(1));
    group.bench_function("quote_state_slice", |b| {
        b.iter(|| {
            market
                .quote_str(black_box("Q(n, c) :- Business(n, 'S3', c)"))
                .unwrap()
                .price
        })
    });
    group.bench_function("quote_join", |b| {
        b.iter(|| {
            market
                .quote_str(black_box("Q(n, c) :- Business(n, 'S3', c), Restaurant(n)"))
                .unwrap()
                .price
        })
    });
    group.bench_function("purchase", |b| {
        b.iter(|| {
            market
                .purchase_str(black_box("Q(n, c) :- Business(n, 'S1', c)"))
                .unwrap()
                .answer
                .len()
        })
    });
    group.finish();
}

/// E13b: one GChQ workload (20 distinct state-slice and join queries),
/// priced serially (1 worker) vs on the batch pool (4 workers). Uses the
/// `Pricer` batch API directly so the quote cache cannot turn the
/// comparison into a hash-lookup benchmark.
fn bench_batch(c: &mut Criterion) {
    let market = market();
    let rules: Vec<String> = (0..10)
        .flat_map(|s| {
            [
                format!("Q(n, c) :- Business(n, 'S{s}', c)"),
                format!("Q(n, c) :- Business(n, 'S{s}', c), Restaurant(n)"),
            ]
        })
        .collect();
    let rule_refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    let mut group = c.benchmark_group("batch_gchq");
    group.throughput(Throughput::Elements(rule_refs.len() as u64));
    for workers in [1usize, 4] {
        group.bench_function(format!("{workers}_workers"), |b| {
            b.iter(|| {
                market.with_pricer(|p| {
                    let ok = p
                        .price_rules_batch_within(
                            black_box(&rule_refs),
                            &Budget::unlimited(),
                            workers,
                        )
                        .into_iter()
                        .filter(|r| r.is_ok())
                        .count();
                    assert_eq!(ok, rule_refs.len());
                    ok
                })
            })
        });
    }
    // The cached market path for contrast: a warm quote_batch is pure
    // sharded-cache lookups.
    group.bench_function("warm_cache", |b| {
        market.quote_batch(&rule_refs);
        b.iter(|| {
            market
                .quote_batch(black_box(&rule_refs))
                .into_iter()
                .filter(|r| r.is_ok())
                .count()
        })
    });
    group.finish();
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "qbdp_bench_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// E15: what the write-ahead log costs per purchase. `wal_off` is the
/// in-memory market; the `wal_*` variants append + apply under each
/// fsync policy (`always` = one `fdatasync` per mutation, `every_32`
/// amortizes, `never` leaves syncing to the OS — the spread *is* the
/// durability/throughput trade-off DESIGN.md §4.3 describes).
fn bench_durability_tax(c: &mut Criterion) {
    let qdp = market().to_qdp();
    let buy = "Q(n, c) :- Business(n, 'S1', c)";
    let mut group = c.benchmark_group("durability");
    group.throughput(Throughput::Elements(1));
    let plain = Market::open_qdp(&qdp).unwrap();
    group.bench_function("purchase_wal_off", |b| {
        b.iter(|| plain.purchase_str(black_box(buy)).unwrap().quote.price)
    });
    for (name, fsync) in [
        ("purchase_wal_never", FsyncPolicy::Never),
        ("purchase_wal_every_32", FsyncPolicy::EveryN(32)),
        ("purchase_wal_always", FsyncPolicy::Always),
    ] {
        let dir = temp_dir(name);
        let dm = DurableMarket::create(&dir, &qdp, fsync).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| dm.purchase_str(black_box(buy)).unwrap().quote.price)
        });
        drop(dm);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

/// E15b: recovery time = snapshot load + replay of a 10k-event log
/// suffix (purchases forged straight into the WAL so building the
/// fixture doesn't take a purchase evaluation per event).
fn bench_recovery(c: &mut Criterion) {
    let qdp = market().to_qdp();
    let dir = temp_dir("recovery");
    let dm = DurableMarket::create(&dir, &qdp, FsyncPolicy::Never).unwrap();
    drop(dm);
    {
        let mut wal = Wal::open(dir.join("market.wal"), FsyncPolicy::Never).unwrap();
        for i in 0..10_000u64 {
            wal.append(&MarketEvent::Purchase {
                query: "Q(n, c) :- Business(n, 'S1', c)".into(),
                price_cents: 100 + i % 50,
                answer_tuples: 3,
                views: 8,
            })
            .unwrap();
        }
        wal.sync().unwrap();
    }
    let mut group = c.benchmark_group("recovery");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("snapshot_plus_10k_replay", |b| {
        b.iter(|| {
            let m = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(m.market().with_ledger(|l| l.sales()), 10_000);
            m.market().revenue()
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    bench_quotes,
    bench_batch,
    bench_durability_tax,
    bench_recovery
);
criterion_main!(benches);
