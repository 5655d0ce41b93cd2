//! Crash-recovery properties of the WAL (the satellite the whole
//! subsystem is judged by): for **every** byte offset a log can be cut
//! at, reopening either reaches a state equal to a prefix of the
//! committed events (a torn tail is truncated) or fails with a *typed*
//! [`StoreError::CorruptRecord`] — it never panics and never invents or
//! reorders events. Bit flips — damage, as opposed to truncation — must
//! never be silently absorbed into a *wrong* event: CRC-32 framing turns
//! them into a typed error or, when they sever the tail, a clean prefix.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp_store::{FsyncPolicy, MarketEvent, StoreError, Wal};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "qbdp_crash_{tag}_{}_{}.wal",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

const RELS: [&str; 3] = ["R", "S", "T"];
const VALS: [&str; 4] = ["a1", "b2", "c3", "quoted value"];

/// A strategy over single events, covering every variant (strings picked
/// from fixed pools — the event codec's own unit tests cover arbitrary
/// text; here the subject is framing).
fn event_strategy() -> impl Strategy<Value = MarketEvent<'static>> {
    prop_oneof![
        (0usize..3, 0u64..10_000).prop_map(|(r, cents)| MarketEvent::SetPrice {
            view: format!("{}.X=a1", RELS[r]).into(),
            cents,
        }),
        (0usize..3, proptest::collection::vec(0usize..4, 1..3)).prop_map(|(r, vs)| {
            MarketEvent::InsertTuple {
                relation: RELS[r].into(),
                values: vs.iter().map(|&v| VALS[v].into()).collect(),
            }
        }),
        (0u64..10_000, 0u64..50, 0u64..10).prop_map(|(price_cents, answer_tuples, views)| {
            MarketEvent::Purchase {
                query: "Q(x, y) :- R(x), S(x, y)".into(),
                price_cents,
                answer_tuples,
                views,
            }
        }),
        (any::<bool>(), 0u64..16, 0u64..8).prop_map(|(sell_degraded, max_in_flight, workers)| {
            MarketEvent::PolicyChange {
                deadline_ms: (max_in_flight % 2 == 0).then_some(max_in_flight * 10),
                fuel: (workers % 2 == 0).then_some(workers * 1000),
                sell_degraded,
                max_in_flight,
                batch_workers: workers,
            }
        }),
        (0u64..1_000_000).prop_map(|wal_pos| MarketEvent::SnapshotMark { wal_pos }),
    ]
}

/// Write `events` to a fresh WAL and return the raw file bytes.
fn committed_bytes(tag: &str, events: &[MarketEvent]) -> Vec<u8> {
    let path = temp_path(tag);
    let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
    for e in events {
        wal.append(e).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Reopen a WAL whose file contains exactly `bytes`; return the replayed
/// events or the typed error.
fn recover(tag: &str, bytes: &[u8]) -> Result<Vec<MarketEvent<'static>>, StoreError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let result = Wal::open(&path, FsyncPolicy::Never)
        .map(|(_, records)| records.into_iter().map(|r| r.event).collect());
    std::fs::remove_file(&path).ok();
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill the process at any byte: recovery yields exactly the events
    /// whose frames were fully on disk — nothing more, nothing else, no
    /// error, no panic.
    #[test]
    fn truncation_at_every_byte_recovers_a_prefix(
        events in proptest::collection::vec(event_strategy(), 1..8)
    ) {
        let bytes = committed_bytes("trunc", &events);
        // Frame boundaries, for computing the expected prefix at each cut.
        let mut boundaries = vec![0u64];
        {
            let path = temp_path("bounds");
            std::fs::write(&path, &bytes).unwrap();
            let (_, records) = Wal::open(&path, FsyncPolicy::Never).unwrap();
            for r in records {
                boundaries.push(r.end);
            }
            std::fs::remove_file(&path).ok();
        }
        prop_assert_eq!(boundaries.len(), events.len() + 1);
        for cut in 0..=bytes.len() {
            let recovered = recover("cut", &bytes[..cut]);
            let expected = boundaries.iter().filter(|&&b| b > 0 && b <= cut as u64).count();
            match recovered {
                Ok(replayed) => {
                    prop_assert_eq!(
                        replayed.len(), expected,
                        "cut at {} recovered {} events, expected {}",
                        cut, replayed.len(), expected
                    );
                    prop_assert_eq!(&replayed[..], &events[..expected]);
                }
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "pure truncation at byte {cut} must never error, got {e}"
                    )));
                }
            }
        }
    }

    /// Flip any single bit anywhere in the log: recovery must yield a
    /// (possibly shorter) prefix of the committed events or a typed
    /// `CorruptRecord` — never a panic, never a *different* event.
    #[test]
    fn single_bit_flip_is_detected_or_severs_the_tail(
        events in proptest::collection::vec(event_strategy(), 1..6),
        flip_seed in 0usize..4096,
    ) {
        let bytes = committed_bytes("flip", &events);
        let byte = flip_seed / 8 % bytes.len();
        let bit = (flip_seed % 8) as u8;
        let mut damaged = bytes.clone();
        damaged[byte] ^= 1 << bit;
        match recover("flipped", &damaged) {
            Ok(replayed) => {
                // The flip enlarged a length field past EOF (or hit the
                // already-torn region): the tail is severed, but what
                // remains must still be an exact prefix.
                prop_assert!(replayed.len() <= events.len());
                prop_assert_eq!(&replayed[..], &events[..replayed.len()]);
            }
            Err(StoreError::CorruptRecord { offset, .. }) => {
                prop_assert!(
                    offset <= bytes.len() as u64,
                    "corruption reported beyond the file: {}", offset
                );
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "expected CorruptRecord, got {other}"
                )));
            }
        }
    }
}

/// The deterministic regression the ISSUE names: flip one bit in the CRC
/// of a mid-log record and recovery refuses with `CorruptRecord` at that
/// record's offset.
#[test]
fn flipped_crc_bit_yields_typed_corrupt_record() {
    let events = vec![
        MarketEvent::SetPrice {
            view: "R.X=a1".into(),
            cents: 100,
        },
        MarketEvent::InsertTuple {
            relation: "S".into(),
            values: vec!["a1".into(), "b2".into()],
        },
        MarketEvent::Purchase {
            query: "Q(x) :- R(x)".into(),
            price_cents: 100,
            answer_tuples: 1,
            views: 1,
        },
    ];
    let bytes = committed_bytes("crc", &events);
    // Record 0's frame: [len u32][crc u32][payload]. Flip a CRC bit.
    let mut damaged = bytes.clone();
    damaged[4] ^= 0x01;
    match recover("crc_flip", &damaged) {
        Err(StoreError::CorruptRecord { offset, .. }) => assert_eq!(offset, 0),
        other => panic!("expected CorruptRecord at offset 0, got {other:?}"),
    }
    // Sanity: the undamaged log replays everything.
    assert_eq!(recover("crc_ok", &bytes).unwrap(), events);
}

/// Clean-shutdown regression for `FsyncPolicy::EveryN`: appends inside
/// the current batch window are acked but not yet fsynced, and a
/// *graceful* drop of the handle used to abandon them — a crash-grade
/// data loss on the no-crash path. `FaultFs` models exactly this: its
/// durable shadow only advances on fsync, and `simulate_crash` rolls
/// the visible files back to the shadow. With the `Drop` flush, a clean
/// drop syncs the tail, so the post-"crash" replay must contain every
/// acked append, including the final partial batch.
#[test]
fn every_n_clean_drop_keeps_the_unsynced_tail() {
    use qbdp_store::{FaultFs, FaultPlan, RetryPolicy, Wal};
    use std::sync::Arc;

    let fs = Arc::new(FaultFs::new(FaultPlan::none()));
    let path = temp_path("every_n_tail");
    let events: Vec<MarketEvent> = (0..7)
        .map(|i| MarketEvent::SetPrice {
            view: format!("R.X=a{i}").into(),
            cents: 100 + i,
        })
        .collect();
    {
        let (mut wal, _) = Wal::open_with(
            fs.clone() as Arc<dyn qbdp_store::Vfs>,
            &path,
            FsyncPolicy::EveryN(5),
            RetryPolicy::none(),
            &mut Vec::new(),
        )
        .unwrap();
        for e in &events {
            wal.append(e).unwrap();
        }
        // 7 appends under EveryN(5): records 0..=4 fsynced at the batch
        // boundary, 5..=6 acked but sitting in the unsynced tail.
    } // clean shutdown: Drop must flush the tail
    fs.simulate_crash(42).unwrap();
    let mut bytes = Vec::new();
    let (_, records) = Wal::open_with(
        fs.clone() as Arc<dyn qbdp_store::Vfs>,
        &path,
        FsyncPolicy::EveryN(5),
        RetryPolicy::none(),
        &mut bytes,
    )
    .unwrap();
    let recovered: Vec<MarketEvent> = records.into_iter().map(|r| r.event).collect();
    assert_eq!(
        recovered, events,
        "the acked-but-unfsynced EveryN tail must survive a clean drop"
    );
    std::fs::remove_file(&path).ok();
}
