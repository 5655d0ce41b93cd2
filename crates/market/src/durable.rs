//! [`DurableMarket`]: a [`Market`] whose every mutation is written to a
//! `qbdp-store` write-ahead log before it is applied, so the market can
//! be reopened — or recovered after a crash — byte-exactly from a
//! directory.
//!
//! # Layout
//!
//! ```text
//! <dir>/snapshot.qdps   atomic checksummed snapshot (state @ wal_pos)
//! <dir>/market.wal      CRC-framed event log (suffix since snapshot)
//! ```
//!
//! The snapshot's `market` section is the existing [`Market::to_qdp`]
//! text; `ledger` and `policy` sections carry what `.qdp` does not.
//! Recovery is snapshot-load + suffix-replay.
//!
//! # What a reopen costs
//!
//! Recovery reads text, so its cost is per token. The `.qdp` reader
//! builds each column once and resolves every tuple and price token to
//! the value its column already holds, checking membership as it reads
//! ([`qbdp_catalog::qdp`]); the ledger keeps one copy of each distinct
//! query text sold, so a restored or replayed sale of a query already
//! sold allocates no string ([`crate::ledger`]). Each recovery times its
//! layers — the snapshot load and CRC, the `.qdp` read, the pricer with
//! its consistency check, the ledger restore, the log scan and the
//! replay — into a [`RecoveryProfile`]
//! ([`DurableMarket::recovery_profile`]).
//!
//! The log is read and decoded **once** per recovery: opening it
//! ([`Wal::open_with`]) scans every record from offset 0 — checking each
//! CRC, finding the clean end, truncating a torn tail — and returns the
//! decoded records, and the replay takes the suffix past the snapshot's
//! `wal_pos` from those ([`records_from`]). A damaged record fails the
//! open at its offset, also when the snapshot already covers it.
//!
//! # Write protocol
//!
//! Every mutating call takes the WAL mutex, appends the event, and only
//! then applies it to the in-memory market (which takes the state write
//! lock internally, so the apply itself invalidates the quote cache and
//! bumps its generation under that lock, as a live write does). Holding
//! the WAL mutex across append + apply makes log order equal apply
//! order, so replay reproduces the live sequence. The
//! apply runs the market's `*_at` forms with the WAL's lock token
//! ([`crate::lock::Wal`]); the state lock taken under it yields
//! [`crate::lock::StateUnderWal`], and neither may price: pricing
//! happens before the WAL is taken.
//!
//! A mutation that fails *validation* during apply (unknown relation,
//! value outside its column, an arbitrage-inducing price revision) has
//! already been logged; that is harmless, because validation is a pure
//! function of market state and replay — seeing the identical state —
//! skips it with the identical verdict. What can never happen is the
//! converse: an applied-but-unlogged mutation, the one that would make
//! recovery forget acknowledged state.
//!
//! # Compaction
//!
//! Recovery reads the snapshot and the log, so its cost is bounded by
//! keeping the log no larger than the snapshot. After each durable write
//! is appended and applied, still under the WAL mutex, the market
//! compacts (writes a snapshot of its state and truncates the log) once
//! the log has grown by the size of the snapshot last written or
//! loaded. So the log stays under the snapshot's size plus one record,
//! and a recovery reads at most about twice the snapshot's bytes.
//! Compaction writes two snapshots per snapshot's size of log, and
//! each compaction also pays a fixed five fsyncs (the log, then each
//! snapshot's temp file and directory) whatever the [`FsyncPolicy`]:
//! a market with a small snapshot compacts every few dozen writes, and
//! under `Never` or `EveryN` those fsyncs are most of its write cost.
//! The rule reads only sizes the market observes. Opening and
//! replaying never compact: a recovered log longer than its snapshot
//! is compacted by the first write after.
//!
//! A compaction that fails never fails the write that triggered it:
//! that write is logged (and fsynced under [`FsyncPolicy::Always`]) and
//! applied. A fault that voids the durability contract degrades the
//! market to read-only, as an explicit [`DurableMarket::compact`] does,
//! and every write checks the market's health under the WAL mutex, so
//! neither a writer queued behind the compaction nor the next tuple of
//! the same insert appends to the truncated log; any other fault leaves
//! it healthy and counts the next snapshot's size of log from where
//! the log ends. [`DurableMarket::compact`] documents the crash
//! protocol both share.
//!
//! # Recovery invariants
//!
//! * **Prefix consistency**: for any byte the log was cut at, recovery
//!   produces the state of a market that applied exactly the durable
//!   prefix (the torn tail is truncated by [`Wal::open`]).
//! * **Checked books**: ledger replay uses checked revenue arithmetic;
//!   an overflowing history surfaces [`MarketError::RevenueOverflow`]
//!   instead of wrapping.
//! * **Cold cache at generation 0**: replay bumps the quote-cache
//!   generation once per mutation like live traffic would, and the
//!   epilogue resets the (empty) cache to generation 0 — a recovered
//!   market is indistinguishable from a freshly opened one and cannot
//!   serve pre-crash entries.

use crate::error::MarketError;
use crate::ledger::Ledger;
use crate::lock::{self, Locked, OrderedMutex};
use crate::market::{Market, MarketPolicy, MarketQuote, Purchase, Served};
use qbdp_catalog::{Tuple, Value};
use qbdp_core::Price;
use qbdp_store::scrub::ScrubReport;
use qbdp_store::{
    records_from, FsyncPolicy, MarketEvent, RealFs, RetryPolicy, Snapshot, StoreError, Vfs, Wal,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Snapshot filename inside a durable market directory.
pub const SNAPSHOT_FILE: &str = "snapshot.qdps";
/// WAL filename inside a durable market directory.
pub const WAL_FILE: &str = "market.wal";

/// One step of a recovery replay, as seen by an observer callback.
#[derive(Debug)]
pub enum ReplayStep<'a> {
    /// The snapshot has been loaded; no log events applied yet.
    SnapshotLoaded,
    /// One log event has just been applied.
    Applied(&'a MarketEvent),
}

/// Whether the durable market is accepting mutations. See
/// [`DurableMarket::health`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MarketHealth {
    /// Mutations and reads both served.
    Healthy,
    /// The durability layer can no longer acknowledge writes (disk
    /// full, or an fsync failure poisoned the log). Quotes keep serving
    /// from the last consistent state; mutations return
    /// [`MarketError::Degraded`]. Reopening the market after the fault
    /// clears recovers cleanly.
    ReadOnly {
        /// The store-layer diagnosis that triggered the degradation.
        reason: String,
    },
}

/// The write-ahead log and its compaction trigger, under one mutex.
struct Log {
    wal: Wal,
    /// Size in bytes of the snapshot last written or loaded.
    snapshot_bytes: u64,
    /// The log position the trigger counts from: 0, or the log's end
    /// when the last automatic compaction failed.
    since: u64,
}

impl Log {
    fn new(wal: Wal, snapshot_bytes: u64) -> Log {
        Log {
            wal,
            snapshot_bytes,
            since: 0,
        }
    }

    /// The log has grown by at least the snapshot's size.
    fn outgrew_snapshot(&self) -> bool {
        self.wal.position().saturating_sub(self.since) >= self.snapshot_bytes
    }
}

/// A market with a write-ahead log and snapshots under a directory.
pub struct DurableMarket {
    market: Market,
    log: OrderedMutex<Log, lock::Wal>,
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    /// Set once, with the first degrade reason: the market is read-only
    /// from then on (see [`DurableMarket::health`]).
    degraded: OnceLock<String>,
    dir: PathBuf,
    /// Where the open's time went, when the market was recovered.
    recovery: Option<RecoveryProfile>,
}

/// Where a recovery's time went, layer by layer, in the order recovery
/// runs them (see [`DurableMarket::recovery_profile`]). The layers are
/// the whole of the recovery but for a stat of the snapshot and the
/// handle's assembly.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryProfile {
    /// Reading the snapshot file and checking its CRC.
    pub snapshot: Duration,
    /// Reading its `market` section ([`qbdp_catalog::QdpFile::parse`]).
    pub qdp: Duration,
    /// Building the pricer over it, with the price list's consistency
    /// check.
    pub pricer: Duration,
    /// Restoring the ledger and the policy from their sections.
    pub ledger: Duration,
    /// Opening the log: reading, checking and decoding every record.
    pub wal_scan: Duration,
    /// Replaying the records the snapshot does not cover, and resetting
    /// the quote cache.
    pub replay: Duration,
}

impl RecoveryProfile {
    /// The sum of the layers.
    pub fn total(&self) -> Duration {
        self.snapshot + self.qdp + self.pricer + self.ledger + self.wal_scan + self.replay
    }
}

/// Times the layers of a recovery: each [`Lap::lap`] returns the time
/// since the previous one.
struct Lap(Instant);

impl Lap {
    fn start() -> Lap {
        Lap(Instant::now())
    }

    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.0;
        self.0 = now;
        d
    }
}

impl std::fmt::Debug for DurableMarket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableMarket")
            .field("dir", &self.dir)
            .field(
                "wal_position",
                &self.log.lock(&mut Locked::root()).0.wal.position(),
            )
            .finish_non_exhaustive()
    }
}

fn corrupt(offset: u64, reason: impl Into<String>) -> MarketError {
    MarketError::Store(StoreError::CorruptRecord {
        offset,
        reason: reason.into(),
    })
}

fn policy_text(p: &MarketPolicy) -> String {
    let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
    format!(
        "deadline_ms {}\nfuel {}\nsell_degraded {}\nmax_in_flight {}\nbatch_workers {}\n",
        opt(p.deadline.map(|d| d.as_millis() as u64)),
        opt(p.fuel),
        u8::from(p.sell_degraded),
        p.max_in_flight,
        p.batch_workers,
    )
}

fn parse_policy(text: &str) -> Result<MarketPolicy, StoreError> {
    let bad = |m: &str| StoreError::CorruptSnapshot(format!("policy section: {m}"));
    let mut lines = text.lines();
    let mut field = |key: &str| -> Result<String, StoreError> {
        lines
            .next()
            .and_then(|l| l.strip_prefix(key))
            .map(|v| v.trim().to_string())
            .ok_or_else(|| bad(&format!("missing `{key}`")))
    };
    let opt = |v: &str| -> Result<Option<u64>, StoreError> {
        if v == "-" {
            Ok(None)
        } else {
            v.parse().map(Some).map_err(|_| bad("bad number"))
        }
    };
    let deadline = opt(&field("deadline_ms ")?)?.map(Duration::from_millis);
    let fuel = opt(&field("fuel ")?)?;
    let sell_degraded = field("sell_degraded ")? == "1";
    let max_in_flight = field("max_in_flight ")?
        .parse::<u64>()
        .map_err(|_| bad("bad max_in_flight"))? as usize;
    let batch_workers = field("batch_workers ")?
        .parse::<u64>()
        .map_err(|_| bad("bad batch_workers"))? as usize;
    Ok(MarketPolicy {
        deadline,
        fuel,
        sell_degraded,
        max_in_flight,
        batch_workers,
        // An in-process serving knob, deliberately not persisted:
        // telemetry is an operator decision about *this* process, not
        // market state.
        telemetry: false,
    })
}

fn policy_event(p: &MarketPolicy) -> MarketEvent {
    MarketEvent::PolicyChange {
        deadline_ms: p.deadline.map(|d| d.as_millis() as u64),
        fuel: p.fuel,
        sell_degraded: p.sell_degraded,
        max_in_flight: p.max_in_flight as u64,
        batch_workers: p.batch_workers as u64,
    }
}

/// How [`DurableMarket::open_with`] opens — or, given a seed, creates —
/// a durable market. Start from [`DurableOptions::new`] and override
/// fields with struct-update syntax.
pub struct DurableOptions<'a> {
    /// When the write-ahead log reaches stable storage.
    pub fsync: FsyncPolicy,
    /// The filesystem the snapshot and log live on (a [`qbdp_store::FaultFs`]
    /// in the chaos harness; the seam a replicated store would plug into).
    pub vfs: Arc<dyn Vfs>,
    /// Bounded retries for transient I/O faults.
    pub retry: RetryPolicy,
    /// Seed `.qdp` text: initialize the directory from it when it holds
    /// no snapshot yet. Without a seed, an uninitialized directory is
    /// [`StoreError::SnapshotMissing`].
    pub seed: Option<&'a str>,
    /// Called once after the snapshot loads and once after each replayed
    /// event — the hook the CLI `replay` verb uses to record §2.7 price
    /// trajectories without duplicating recovery logic.
    pub observer: Option<&'a mut ReplayObserver<'a>>,
}

/// A recovery replay callback (see [`DurableOptions::observer`]).
pub type ReplayObserver<'a> = dyn FnMut(ReplayStep<'_>, &Market) + 'a;

impl DurableOptions<'_> {
    /// The real filesystem, default retries, no seed, no observer.
    pub fn new(fsync: FsyncPolicy) -> Self {
        DurableOptions {
            fsync,
            vfs: Arc::new(RealFs),
            retry: RetryPolicy::default(),
            seed: None,
            observer: None,
        }
    }
}

impl DurableMarket {
    /// Initialize `dir` as a durable market seeded from `.qdp` text:
    /// write the genesis snapshot (covering log position 0) and an empty
    /// log. Fails with [`StoreError::AlreadyInitialized`] if a snapshot
    /// already exists.
    pub fn create(
        dir: impl AsRef<Path>,
        qdp: &str,
        fsync: FsyncPolicy,
    ) -> Result<DurableMarket, MarketError> {
        Self::create_in(dir.as_ref(), qdp, DurableOptions::new(fsync))
    }

    /// Open an initialized durable market: load the snapshot, replay the
    /// log suffix it does not cover, reset the quote cache to epoch 0.
    pub fn open(dir: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<DurableMarket, MarketError> {
        Self::open_with(dir, DurableOptions::new(fsync))
    }

    /// Open `dir` if it is initialized; otherwise, when `options` carry
    /// a seed, initialize it from the seed (the CLI `serve-dir` verb's
    /// semantics). Recovery always reopens Healthy: whatever poisoned
    /// the previous handle, the reopened log starts from a repaired,
    /// verified prefix.
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: DurableOptions<'_>,
    ) -> Result<DurableMarket, MarketError> {
        let dir = dir.as_ref();
        if options.vfs.exists(&dir.join(SNAPSHOT_FILE)) {
            Self::recover(&mut Locked::root(), dir, options)
        } else if let Some(qdp) = options.seed {
            Self::create_in(dir, qdp, options)
        } else {
            Err(MarketError::Store(StoreError::SnapshotMissing))
        }
    }

    /// [`DurableMarket::create`] under explicit options (the seed field
    /// is ignored: `qdp` is the seed).
    fn create_in(
        dir: &Path,
        qdp: &str,
        options: DurableOptions<'_>,
    ) -> Result<DurableMarket, MarketError> {
        let DurableOptions {
            fsync, vfs, retry, ..
        } = options;
        let dir = dir.to_path_buf();
        vfs.create_dir_all(&dir).map_err(StoreError::from)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if vfs.exists(&snapshot_path) {
            return Err(MarketError::Store(StoreError::AlreadyInitialized));
        }
        // Validate the seed (consistency check included) before touching
        // disk, and serialize the *parsed* form so the snapshot is
        // canonical from day one.
        let market = Market::open_qdp(qdp)?;
        // A stale log without a snapshot is not a market; drop it
        // *before* the genesis snapshot exists, so a crash anywhere in
        // create() leaves an uninitialized directory (no snapshot)
        // rather than a genesis snapshot beside an orphaned old log
        // whose events the next open() would replay into the freshly
        // seeded market. Deleting (rather than truncating) also lets
        // create() succeed over a corrupt leftover log.
        let wal_path = dir.join(WAL_FILE);
        match vfs.remove_file(&wal_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(MarketError::Store(e.into())),
        }
        let (wal, _) = Wal::open_with(Arc::clone(&vfs), &wal_path, fsync, retry)?;
        let mut snapshot = Snapshot::new(0);
        snapshot.push_section("market", market.to_qdp());
        snapshot.push_section("ledger", Ledger::new().to_snapshot_text());
        snapshot.push_section("policy", policy_text(&market.policy()));
        let snapshot_bytes = snapshot.write_with(vfs.as_ref(), &snapshot_path, &retry)?;
        Ok(DurableMarket {
            market,
            log: OrderedMutex::new(Log::new(wal, snapshot_bytes)),
            vfs,
            retry,
            degraded: OnceLock::new(),
            dir,
            recovery: None,
        })
    }

    /// Load the snapshot under `dir` and replay the log suffix it does
    /// not cover, reporting each step to the options' observer.
    fn recover(
        token: &mut Locked<'_, lock::Unlocked>,
        dir: &Path,
        options: DurableOptions<'_>,
    ) -> Result<DurableMarket, MarketError> {
        let DurableOptions {
            fsync,
            vfs,
            retry,
            mut observer,
            ..
        } = options;
        let mut observe = |step: ReplayStep<'_>, market: &Market| {
            if let Some(f) = observer.as_mut() {
                f(step, market);
            }
        };
        let dir = dir.to_path_buf();
        let mut lap = Lap::start();
        let (mut snapshot, mut snapshot_bytes) =
            Snapshot::load_with(vfs.as_ref(), dir.join(SNAPSHOT_FILE))?;
        let qdp = snapshot
            .section("market")
            .ok_or_else(|| StoreError::CorruptSnapshot("missing `market` section".into()))?;
        let snapshot_took = lap.lap();
        let file = Market::read_qdp(qdp)?;
        let qdp_took = lap.lap();
        let market = Market::open_file(file)?;
        let pricer_took = lap.lap();
        let ledger_text = snapshot
            .section("ledger")
            .ok_or_else(|| StoreError::CorruptSnapshot("missing `ledger` section".into()))?;
        let ledger = Ledger::from_snapshot_text(ledger_text)
            .map_err(|m| StoreError::CorruptSnapshot(format!("ledger section: {m}")))?;
        market.restore_ledger(token, ledger);
        if let Some(text) = snapshot.section("policy") {
            market.set_policy_at(token, parse_policy(text)?);
        }
        let ledger_took = lap.lap();
        let (wal, records) = Wal::open_with(Arc::clone(&vfs), dir.join(WAL_FILE), fsync, retry)?;
        // Compaction crash window: a crash between `wal.reset()` and the
        // final snapshot rewrite in `compact()` leaves the snapshot
        // claiming a position past the now-empty log. The *state* is
        // correct (the snapshot covers every truncated event), but the
        // stale position must be rebased on disk before any new append
        // lands at a smaller offset — otherwise the next open's
        // `records_from(wal_pos)` would silently drop those appends (log
        // still shorter than `wal_pos`) or refuse them as corrupt
        // (`wal_pos` inside a record once the log outgrows it). An
        // ordinary crash can never produce `wal_pos > position`: the
        // torn-tail truncation in `Wal::open` only cuts *incomplete*
        // frames appended after the snapshot's record boundary.
        if snapshot.wal_pos > wal.position() {
            snapshot.wal_pos = wal.position();
            snapshot_bytes = snapshot.write_with(vfs.as_ref(), dir.join(SNAPSHOT_FILE), &retry)?;
        }
        let wal_took = lap.lap();
        observe(ReplayStep::SnapshotLoaded, &market);
        for record in records_from(&records, snapshot.wal_pos)? {
            apply_event(&market, token, &record.event, record.start)?;
            observe(ReplayStep::Applied(&record.event), &market);
        }
        market.reset_cache(token);
        let recovery = RecoveryProfile {
            snapshot: snapshot_took,
            qdp: qdp_took,
            pricer: pricer_took,
            ledger: ledger_took,
            wal_scan: wal_took,
            replay: lap.lap(),
        };
        Ok(DurableMarket {
            market,
            log: OrderedMutex::new(Log::new(wal, snapshot_bytes)),
            vfs,
            retry,
            degraded: OnceLock::new(),
            dir,
            recovery: Some(recovery),
        })
    }

    /// Whether the market is accepting mutations or has degraded to
    /// read-only serving. Degradation is one-way for a given handle —
    /// recovery (reopening the directory) is the repair path.
    pub fn health(&self) -> MarketHealth {
        match self.degraded.get() {
            None => MarketHealth::Healthy,
            Some(reason) => MarketHealth::ReadOnly {
                reason: reason.clone(),
            },
        }
    }

    /// Refuse mutations once degraded. Checked *under* the WAL mutex:
    /// a writer that queued on it while the holder's compaction
    /// degraded the market must not append to a log the snapshot on
    /// disk no longer covers.
    fn ensure_writable(&self) -> Result<(), MarketError> {
        match self.degraded.get() {
            None => Ok(()),
            Some(reason) => Err(MarketError::Degraded(reason.clone())),
        }
    }

    /// Classify a store failure: faults that void the durability
    /// contract ([`StoreError::degrades_to_read_only`]) flip the market
    /// to read-only serving; everything else (transient exhaustion,
    /// validation-adjacent corruption) passes through typed, leaving
    /// the market healthy.
    fn degrade_on(&self, e: StoreError) -> MarketError {
        if e.degrades_to_read_only() {
            self.degrade(e.to_string());
        }
        MarketError::Store(e)
    }

    /// Flip the market to read-only serving, whatever the fault's class.
    fn degrade(&self, reason: String) {
        if self.degraded.set(reason).is_ok() {
            qbdp_obs::record(qbdp_obs::Ctr::MarketHealthFlips, 1);
            qbdp_obs::record_gauge(qbdp_obs::Gauge::HealthReadOnly, 1);
        }
    }

    /// Walk the snapshot and WAL verifying every checksum, reporting
    /// damage before it is load-bearing. Read-only and background-free:
    /// safe against a live market between syncs.
    pub fn scrub(&self) -> ScrubReport {
        qbdp_store::scrub(
            self.vfs.as_ref(),
            &self.dir.join(SNAPSHOT_FILE),
            &self.dir.join(WAL_FILE),
        )
    }

    /// Where this handle's open spent its time, layer by layer; `None`
    /// when it created the market rather than recovering one.
    pub fn recovery_profile(&self) -> Option<RecoveryProfile> {
        self.recovery
    }

    /// The wrapped in-memory market, for read-side access (quotes,
    /// explains, introspection). Mutations **must** go through the
    /// durable methods or they will not survive a restart.
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// The directory this market persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current end-of-log position (bytes).
    pub fn wal_position(&self) -> u64 {
        self.log.lock(&mut Locked::root()).0.wal.position()
    }

    /// Durable seller-side tuple insertion (§2.7). Logged and applied
    /// one tuple at a time so replay reproduces the exact ledger
    /// sequence; returns the number of tuples actually added (duplicates
    /// are logged but add 0, same as the in-memory market).
    pub fn insert(
        &self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, MarketError> {
        let mut root = Locked::root();
        let (mut log, mut at_wal) = self.log.lock(&mut root);
        self.ensure_writable()?;
        let mut added = 0usize;
        for tuple in tuples {
            // The compaction after the previous tuple may have degraded
            // the market; that tuple stands, this one is refused.
            self.ensure_writable()?;
            let event = MarketEvent::InsertTuple {
                relation: relation.to_string(),
                values: tuple.iter().map(Value::render_literal).collect(),
            };
            log.wal.append(&event).map_err(|e| self.degrade_on(e))?;
            let applied = self.market.insert_at(&mut at_wal, relation, [tuple]);
            self.compact_if_outgrown(&mut log, &mut at_wal);
            added += applied?;
        }
        Ok(added)
    }

    /// Durable seller-side price revision (`R.X=a` selector syntax).
    pub fn set_price(&self, view: &str, price: Price) -> Result<(), MarketError> {
        let mut root = Locked::root();
        let (mut log, mut at_wal) = self.log.lock(&mut root);
        self.ensure_writable()?;
        log.wal
            .append(&MarketEvent::SetPrice {
                view: view.to_string(),
                cents: price.as_cents(),
            })
            .map_err(|e| self.degrade_on(e))?;
        let applied = self.market.set_price_at(&mut at_wal, view, price);
        self.compact_if_outgrown(&mut log, &mut at_wal);
        applied
    }

    /// Durable purchase: price and evaluate *outside* the WAL mutex (the
    /// WAL's lock token cannot price, see [`crate::lock`]), then take
    /// the lock and revalidate before logging. The cache epoch
    /// names the data/price snapshot the quote was derived from: every
    /// mutation bumps it, and durable mutations serialize on the WAL
    /// mutex, so an unchanged epoch observed *under* the lock proves the
    /// quoted terms still hold when the event is appended. An epoch that
    /// moved means an update landed mid-purchase; the stale quote is
    /// discarded and the purchase re-priced (bounded retries, then
    /// [`MarketError::Contended`]). Overflowing revenue is refused
    /// *before* the event is logged, so the log never contains an
    /// unreplayable purchase.
    pub fn purchase_str(&self, query: &str) -> Result<Purchase, MarketError> {
        const RETRIES: usize = 8;
        let sw = qbdp_obs::Stopwatch::start();
        let mut root = Locked::root();
        self.ensure_writable()?;
        // audit: bounded(fixed retry cap; each round does one pricing call)
        for _ in 0..RETRIES {
            let epoch = self.market.cache_epoch_at(&mut root);
            let Served { out, spans, .. } = self.market.evaluate_purchase(&mut root, query);
            let out =
                out.and_then(|(quote, answer)| self.log_purchase(&mut root, epoch, quote, answer));
            if let Some(out) = out.transpose() {
                return Served { out, sw, spans }.observe_purchase(query);
            }
            qbdp_obs::record(qbdp_obs::Ctr::MarketPurchaseRetries, 1);
        }
        qbdp_obs::record(qbdp_obs::Ctr::MarketPurchaseContended, 1);
        qbdp_obs::flight::capture(
            qbdp_obs::flight::Why::Contended,
            query,
            sw.elapsed_us().unwrap_or(0),
            format!("{RETRIES} revalidation retries exhausted"),
            Vec::new(),
        );
        Err(MarketError::Contended)
    }

    /// Log and record a purchase priced while the cache epoch was
    /// `epoch`, or `Ok(None)` when a mutation slipped in since: the quote
    /// may no longer match the market and must be re-priced.
    fn log_purchase(
        &self,
        token: &mut Locked<'_, lock::Unlocked>,
        epoch: u64,
        quote: MarketQuote,
        answer: Vec<Tuple>,
    ) -> Result<Option<Purchase>, MarketError> {
        let (mut log, mut at_wal) = self.log.lock(token);
        self.ensure_writable()?;
        if self.market.cache_epoch_at(&mut at_wal) != epoch {
            return Ok(None);
        }
        if self
            .market
            .revenue_at(&mut at_wal)
            .checked_add(quote.price)
            .is_none()
        {
            return Err(MarketError::RevenueOverflow);
        }
        log.wal
            .append(&MarketEvent::Purchase {
                query: quote.query.clone(),
                price_cents: quote.price.as_cents(),
                answer_tuples: answer.len() as u64,
                views: quote.views().len() as u64,
            })
            .map_err(|e| self.degrade_on(e))?;
        let transaction_id = self.market.apply_recorded_sale(
            &mut at_wal,
            &quote.query,
            quote.price,
            answer.len(),
            quote.views().len(),
        );
        self.compact_if_outgrown(&mut log, &mut at_wal);
        Ok(Some(Purchase {
            transaction_id: transaction_id?,
            quote,
            answer,
        }))
    }

    /// Durable policy change.
    pub fn set_policy(&self, policy: MarketPolicy) -> Result<(), MarketError> {
        let mut root = Locked::root();
        let (mut log, mut at_wal) = self.log.lock(&mut root);
        self.ensure_writable()?;
        log.wal
            .append(&policy_event(&policy))
            .map_err(|e| self.degrade_on(e))?;
        self.market.set_policy_at(&mut at_wal, policy);
        self.compact_if_outgrown(&mut log, &mut at_wal);
        Ok(())
    }

    /// Force the log to stable storage regardless of the fsync policy.
    pub fn sync(&self) -> Result<(), MarketError> {
        self.log
            .lock(&mut Locked::root())
            .0
            .wal
            .sync()
            .map_err(|e| self.degrade_on(e))
    }

    /// Write a fresh snapshot covering the whole log, then truncate the
    /// log. Every durable write also compacts on its own once the log
    /// has grown by the snapshot's size (see the module docs); this is
    /// the explicit form, for the CLI `compact` verb and a graceful
    /// shutdown. Two-phase so a crash at any point recovers correctly:
    /// the snapshot covering position `P` lands atomically *before* the
    /// log is truncated (crash between the two → replay-from-`P` of a
    /// shorter log is empty), and the final snapshot rewrite just
    /// rebases the recorded position to the now-empty log. A crash
    /// between the truncation and that rebasing rewrite leaves
    /// `wal_pos = P` over an empty log; [`DurableMarket::open`] detects
    /// `wal_pos` past the log end and rewrites the snapshot before
    /// accepting new appends, so no post-recovery mutation can land at
    /// an offset the recorded position would skip.
    ///
    /// Returns the log position the snapshot covers (bytes compacted).
    ///
    /// Failure typing: a transient fault that outlives its retries while
    /// building the temp snapshot (create/write/fsync of `.tmp`)
    /// surfaces as the typed [`StoreError::Transient`] and leaves the
    /// market **healthy** — nothing past the temp file was touched, the
    /// previous snapshot still covers the full log, and the caller may
    /// simply compact again later. Contract-voiding faults (`ENOSPC`,
    /// fsync-poison) degrade the market to read-only. Once the log is
    /// truncated, *every* failure degrades it until the rebased snapshot
    /// is durable: the snapshot on disk still records `P`, so a write
    /// appended to the empty log would be cut off by the next open's
    /// rebase and lost.
    pub fn compact(&self) -> Result<u64, MarketError> {
        let mut root = Locked::root();
        let (mut log, mut at_wal) = self.log.lock(&mut root);
        self.ensure_writable()?;
        self.compact_locked(&mut log, &mut at_wal)
    }

    /// Compact when the log has grown by the snapshot's size since the
    /// trigger was armed, right after a durable write was appended and
    /// applied. That write stands whatever the compaction does, so its
    /// caller is acknowledged: a failure that degraded the market makes
    /// later writes refuse, and any other failure re-arms the trigger
    /// at the log's end, so a lasting fault costs one attempt per
    /// snapshot's size of log, not one per write.
    fn compact_if_outgrown(&self, log: &mut Log, at_wal: &mut Locked<'_, lock::Wal>) {
        if !log.outgrew_snapshot() {
            return;
        }
        if let Err(e) = self.compact_locked(log, at_wal) {
            qbdp_obs::log_debug!("automatic compaction of {} failed: {e}", self.dir.display());
            log.since = log.wal.position();
        }
    }

    /// [`DurableMarket::compact`] under the held WAL mutex: the one
    /// implementation behind it and the automatic trigger.
    fn compact_locked(
        &self,
        log: &mut Log,
        at_wal: &mut Locked<'_, lock::Wal>,
    ) -> Result<u64, MarketError> {
        let sw = qbdp_obs::Stopwatch::start();
        let covered = log.wal.position();
        log.wal
            .append(&MarketEvent::SnapshotMark { wal_pos: covered })
            .map_err(|e| self.degrade_on(e))?;
        log.wal.sync().map_err(|e| self.degrade_on(e))?;
        let mut snapshot = Snapshot::new(log.wal.position());
        snapshot.push_section("market", self.market.to_qdp_at(at_wal));
        snapshot.push_section(
            "ledger",
            self.market.with_ledger_at(at_wal, Ledger::to_snapshot_text),
        );
        snapshot.push_section("policy", policy_text(&self.market.policy_at(at_wal)));
        let path = self.dir.join(SNAPSHOT_FILE);
        snapshot
            .write_with(self.vfs.as_ref(), &path, &self.retry)
            .map_err(|e| self.degrade_on(e))?;
        log.wal.reset().map_err(|e| self.degrade_on(e))?;
        snapshot.wal_pos = 0;
        log.snapshot_bytes = snapshot
            .write_with(self.vfs.as_ref(), &path, &self.retry)
            .map_err(|e| {
                self.degrade(format!(
                    "the log was truncated but its snapshot was not rebased: {e}"
                ));
                MarketError::Store(e)
            })?;
        log.since = 0;
        qbdp_obs::record(qbdp_obs::Ctr::StoreCompactions, 1);
        sw.stop(qbdp_obs::Hst::CompactionUs);
        Ok(covered)
    }
}

/// Apply one logged event to a recovering market. Validation failures
/// are skipped (they were returned to the live caller as errors and
/// mutated nothing — see the module docs); undecodable literals and
/// overflowing books are hard errors.
fn apply_event(
    market: &Market,
    token: &mut Locked<'_, lock::Unlocked>,
    event: &MarketEvent,
    offset: u64,
) -> Result<(), MarketError> {
    match event {
        MarketEvent::SetPrice { view, cents } => {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a logged refusal mutated nothing live; replay skips it the same way"
            )]
            let _ = market.revise_at(token, view, Price::cents(*cents), |_, _| ());
        }
        MarketEvent::InsertTuple { relation, values } => {
            let parsed: Option<Vec<Value>> =
                values.iter().map(|v| Value::parse_literal(v)).collect();
            let Some(parsed) = parsed else {
                return Err(corrupt(offset, "unparseable tuple literal"));
            };
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a logged refusal mutated nothing live; replay skips it the same way"
            )]
            let _ = market.insert_at(token, relation, [Tuple::new(parsed)]);
        }
        MarketEvent::Purchase {
            query,
            price_cents,
            answer_tuples,
            views,
        } => {
            market.apply_recorded_sale(
                token,
                query,
                Price::cents(*price_cents),
                *answer_tuples as usize,
                *views as usize,
            )?;
        }
        MarketEvent::PolicyChange {
            deadline_ms,
            fuel,
            sell_degraded,
            max_in_flight,
            batch_workers,
        } => {
            market.set_policy_at(
                token,
                MarketPolicy {
                    deadline: deadline_ms.map(Duration::from_millis),
                    fuel: *fuel,
                    sell_degraded: *sell_degraded,
                    max_in_flight: *max_in_flight as usize,
                    batch_workers: *batch_workers as usize,
                    // Not carried by the event; see `parse_policy`.
                    telemetry: false,
                },
            );
        }
        MarketEvent::SnapshotMark { .. } => {}
    }
    Ok(())
}

#[cfg(test)]
#[expect(
    clippy::unused_result_ok,
    reason = "test temp files and directories are removed best-effort"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const QDP: &str = r#"
schema R(X)
schema S(X, Y)
schema T(Y)
column R.X = {a1, a2, a3, a4}
column S.X = {a1, a2, a3, a4}
column S.Y = {b1, b2, b3}
column T.Y = {b1, b2, b3}
tuple R(a1)
tuple R(a2)
tuple S(a1, b1)
tuple S(a1, b2)
tuple S(a2, b2)
tuple S(a4, b1)
tuple T(b1)
tuple T(b3)
price R.X=a1 100
price R.X=a2 100
price R.X=a3 100
price R.X=a4 100
price S.X=a1 100
price S.X=a2 100
price S.X=a3 100
price S.X=a4 100
price S.Y=b1 100
price S.Y=b2 100
price S.Y=b3 100
price T.Y=b1 100
price T.Y=b2 100
price T.Y=b3 100
"#;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "qbdp_durable_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn drive(dm: &DurableMarket) {
        dm.insert("R", [Tuple::new([Value::text("a3")])]).unwrap();
        dm.set_price("T.Y=b2", Price::cents(250)).unwrap();
        dm.purchase_str("Q(x) :- R(x)").unwrap();
        dm.purchase_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let mut policy = dm.market().policy();
        policy.fuel = Some(1_000_000);
        dm.set_policy(policy).unwrap();
    }

    fn assert_same(a: &Market, b: &Market) {
        assert_eq!(a.to_qdp(), b.to_qdp());
        assert_eq!(a.revenue(), b.revenue());
        assert_eq!(
            a.with_ledger(Ledger::to_snapshot_text),
            b.with_ledger(Ledger::to_snapshot_text)
        );
        assert_eq!(a.policy(), b.policy());
        let q = "Q(x, y) :- R(x), S(x, y)";
        let qa = a.quote_str(q).unwrap();
        let qb = b.quote_str(q).unwrap();
        assert_eq!(qa.price, qb.price);
        assert_eq!(qa.quality, qb.quality);
    }

    #[test]
    fn reopen_replays_to_identical_state() {
        let dir = temp_dir("reopen");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        drive(&dm);
        let live_qdp = dm.market().to_qdp();
        drop(dm);
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.market().to_qdp(), live_qdp);
        assert_eq!(back.market().cache_epoch(), 0, "recovered cache is cold");
        let fresh = Market::open_qdp(&live_qdp).unwrap();
        assert_eq!(fresh.to_qdp(), back.market().to_qdp());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_then_reopen_matches_wal_reopen() {
        let dir_a = temp_dir("compact_a");
        let dir_b = temp_dir("compact_b");
        let a = DurableMarket::create(&dir_a, QDP, FsyncPolicy::Never).unwrap();
        let b = DurableMarket::create(&dir_b, QDP, FsyncPolicy::Never).unwrap();
        drive(&a);
        drive(&b);
        let compacted = a.compact().unwrap();
        assert!(compacted > 0);
        assert_eq!(a.wal_position(), 0, "compaction truncates the log");
        // Post-compaction mutations land in the fresh log.
        a.insert("T", [Tuple::new([Value::text("b2")])]).unwrap();
        b.insert("T", [Tuple::new([Value::text("b2")])]).unwrap();
        drop(a);
        drop(b);
        let a = DurableMarket::open(&dir_a, FsyncPolicy::Never).unwrap();
        let b = DurableMarket::open(&dir_b, FsyncPolicy::Never).unwrap();
        assert_same(a.market(), b.market());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn compact_crash_window_rebases_stale_snapshot_position() {
        let dir = temp_dir("compact_crash");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        drive(&dm);
        let covered = dm.compact().unwrap();
        assert!(covered > 0);
        let live_qdp = dm.market().to_qdp();
        drop(dm);
        // Reproduce a crash between `wal.reset()` and the rebasing
        // snapshot rewrite inside compact(): the on-disk state is the
        // compacted snapshot, but its recorded position is still the
        // pre-truncation offset over a now-empty log.
        let path = dir.join(SNAPSHOT_FILE);
        let mut snap = Snapshot::load(&path).unwrap();
        snap.wal_pos = covered;
        snap.write(&path).unwrap();
        // Recovery must load the full state, repair the stale position…
        let dm = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(dm.market().to_qdp(), live_qdp);
        assert_eq!(
            Snapshot::load(&path).unwrap().wal_pos,
            0,
            "open() rewrites the stale snapshot position before accepting appends"
        );
        // …so acknowledged post-recovery mutations land at offsets the
        // snapshot no longer skips, and the *next* open replays them.
        dm.insert("T", [Tuple::new([Value::text("b2")])]).unwrap();
        dm.purchase_str("Q(x) :- R(x)").unwrap();
        let qdp = dm.market().to_qdp();
        let revenue = dm.market().revenue();
        let ledger = dm.market().with_ledger(Ledger::to_snapshot_text);
        drop(dm);
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.market().to_qdp(), qdp);
        assert_eq!(back.market().revenue(), revenue);
        assert_eq!(back.market().with_ledger(Ledger::to_snapshot_text), ledger);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The one scan runs from offset 0: a CRC-damaged record the snapshot
    /// already covers still fails the open, at the record's offset,
    /// whether the snapshot covers part of the log or all of it (the
    /// shape a crash inside `compact()` leaves).
    #[test]
    fn corrupt_record_before_the_snapshot_position_fails_the_open() {
        let dir = temp_dir("corrupt_covered");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        drive(&dm);
        drop(dm);
        let wal_path = dir.join(WAL_FILE);
        let clean = std::fs::read(&wal_path).unwrap();
        let (wal, records) = Wal::open(&wal_path, FsyncPolicy::Never).unwrap();
        assert!(records.len() >= 4);
        let end = wal.position();
        drop(wal);
        let snap_path = dir.join(SNAPSHOT_FILE);
        let victim = &records[1];
        for wal_pos in [records[2].start, end] {
            let mut snap = Snapshot::load(&snap_path).unwrap();
            snap.wal_pos = wal_pos;
            snap.write(&snap_path).unwrap();
            // Undamaged, the directory opens.
            std::fs::write(&wal_path, &clean).unwrap();
            assert!(DurableMarket::open(&dir, FsyncPolicy::Never).is_ok());
            // One flipped payload bit in a covered record fails it.
            let mut bytes = clean.clone();
            bytes[victim.start as usize + 9] ^= 0x10;
            std::fs::write(&wal_path, &bytes).unwrap();
            match DurableMarket::open(&dir, FsyncPolicy::Never) {
                Err(MarketError::Store(StoreError::CorruptRecord { offset, reason })) => {
                    assert_eq!(offset, victim.start, "wal_pos {wal_pos}");
                    assert!(reason.contains("CRC"), "{reason}");
                }
                other => panic!("wal_pos {wal_pos}: expected CorruptRecord, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_discards_stale_wal_before_writing_the_snapshot() {
        let dir = temp_dir("stale_wal");
        // Leave behind a log from a "previous market instance" — no
        // snapshot next to it, as after a crash mid-create.
        std::fs::create_dir_all(&dir).unwrap();
        {
            let (mut wal, _) = Wal::open(dir.join(WAL_FILE), FsyncPolicy::Never).unwrap();
            wal.append(&MarketEvent::SetPrice {
                view: "R.X=a1".into(),
                cents: 9999,
            })
            .unwrap();
        }
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        assert_eq!(dm.wal_position(), 0, "stale log is gone before genesis");
        let seeded_qdp = dm.market().to_qdp();
        drop(dm);
        // Reopening replays nothing: the orphaned event never leaks into
        // the freshly seeded market.
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.market().to_qdp(), seeded_qdp);
        assert_eq!(
            back.market().quote_str("Q(x) :- R(x)").unwrap().price,
            Market::open_qdp(QDP)
                .unwrap()
                .quote_str("Q(x) :- R(x)")
                .unwrap()
                .price
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_directory() {
        let dir = temp_dir("exists");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        drop(dm);
        match DurableMarket::create(&dir, QDP, FsyncPolicy::Never) {
            Err(MarketError::Store(StoreError::AlreadyInitialized)) => {}
            other => panic!("expected AlreadyInitialized, got {other:?}"),
        }
        // open_with falls through to open, seed or not.
        let seeded = DurableOptions {
            seed: Some(QDP),
            ..DurableOptions::new(FsyncPolicy::Never)
        };
        assert!(DurableMarket::open_with(&dir, seeded).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_uninitialized_is_snapshot_missing() {
        let dir = temp_dir("missing");
        match DurableMarket::open(&dir, FsyncPolicy::Never) {
            Err(MarketError::Store(StoreError::SnapshotMissing)) => {}
            other => panic!("expected SnapshotMissing, got {other:?}"),
        }
        match DurableMarket::open_with(&dir, DurableOptions::new(FsyncPolicy::Never)) {
            Err(MarketError::Store(StoreError::SnapshotMissing)) => {}
            other => panic!("expected SnapshotMissing, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejected_mutations_replay_as_no_ops() {
        let dir = temp_dir("rejected");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        dm.insert("R", [Tuple::new([Value::text("a3")])]).unwrap();
        // Outside the declared column: refused live, logged, and must be
        // skipped identically on replay.
        assert!(dm.insert("R", [Tuple::new([Value::text("zz")])]).is_err());
        assert!(dm.set_price("R.X=zz", Price::cents(5)).is_err());
        dm.purchase_str("Q(x) :- R(x)").unwrap();
        let live_qdp = dm.market().to_qdp();
        let live_revenue = dm.market().revenue();
        drop(dm);
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.market().to_qdp(), live_qdp);
        assert_eq!(back.market().revenue(), live_revenue);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Options opening on `fs` with no retries and no fsync.
    fn faulty(fs: &qbdp_store::FaultFs) -> DurableOptions<'static> {
        DurableOptions {
            vfs: Arc::new(fs.clone()),
            retry: RetryPolicy::none(),
            ..DurableOptions::new(FsyncPolicy::Never)
        }
    }

    fn fault_setup(
        tag: &str,
        script: Vec<qbdp_store::ScriptedFault>,
    ) -> (PathBuf, qbdp_store::FaultFs, DurableMarket) {
        let dir = temp_dir(tag);
        let fs = qbdp_store::FaultFs::new(qbdp_store::FaultPlan {
            script,
            seeded: None,
        });
        let retry = RetryPolicy {
            attempts: 3,
            base_delay_micros: 1,
            max_delay_micros: 2,
            jitter_seed: 7,
        };
        let dm = DurableMarket::open_with(
            &dir,
            DurableOptions {
                vfs: Arc::new(fs.clone()),
                retry,
                seed: Some(QDP),
                ..DurableOptions::new(FsyncPolicy::Always)
            },
        )
        .unwrap();
        (dir, fs, dm)
    }

    #[test]
    fn enospc_degrades_to_read_only_and_reopen_recovers() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        let (dir, fs, dm) = fault_setup(
            "enospc",
            vec![ScriptedFault {
                op: FaultOp::Write,
                path_contains: "market.wal".into(),
                skip: 1,
                kind: FaultKind::Enospc { keep: 3 },
            }],
        );
        dm.purchase_str("Q(x) :- R(x)").unwrap();
        let revenue = dm.market().revenue();
        let quote_before = dm.market().quote_str("Q(x, y) :- R(x), S(x, y)").unwrap();
        // The scripted ENOSPC hits this append: mutation refused, market
        // flips to read-only.
        let err = dm.set_price("T.Y=b2", Price::cents(250)).unwrap_err();
        assert!(matches!(err, MarketError::Store(ref e) if e.degrades_to_read_only()));
        assert!(matches!(dm.health(), MarketHealth::ReadOnly { .. }));
        // Quotes keep serving the last consistent state; further
        // mutations are refused with the typed Degraded error.
        let quote_after = dm.market().quote_str("Q(x, y) :- R(x), S(x, y)").unwrap();
        assert_eq!(quote_before.price, quote_after.price);
        assert!(quote_after.lower_bound <= quote_after.price);
        assert!(matches!(
            dm.purchase_str("Q(x) :- R(x)"),
            Err(MarketError::Degraded(_))
        ));
        assert!(matches!(dm.compact(), Err(MarketError::Degraded(_))));
        assert_eq!(dm.market().revenue(), revenue, "no phantom sale recorded");
        // Reopening (fault cleared) recovers the acknowledged state and
        // a healthy market.
        drop(dm);
        let back = DurableMarket::open_with(&dir, faulty(&fs)).unwrap();
        assert_eq!(back.health(), MarketHealth::Healthy);
        assert_eq!(back.market().revenue(), revenue);
        back.set_price("T.Y=b2", Price::cents(250)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_poison_degrades_and_loses_at_most_the_unacked_tail() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        // skip=2: the genesis create fsyncs once (snapshot tmp) on a
        // different file; target the WAL path so only its fsyncs count.
        let (dir, fs, dm) = fault_setup(
            "fsyncpoison",
            vec![ScriptedFault {
                op: FaultOp::Fsync,
                path_contains: "market.wal".into(),
                skip: 1,
                kind: FaultKind::FsyncFail,
            }],
        );
        dm.purchase_str("Q(x) :- R(x)").unwrap();
        let revenue = dm.market().revenue();
        let err = dm.purchase_str("Q(x) :- R(x)").unwrap_err();
        assert!(
            matches!(err, MarketError::Store(StoreError::Poisoned { .. })),
            "{err:?}"
        );
        assert!(matches!(dm.health(), MarketHealth::ReadOnly { .. }));
        assert!(dm.market().quote_str("Q(x) :- R(x)").is_ok());
        drop(dm);
        let back = DurableMarket::open_with(&dir, faulty(&fs)).unwrap();
        // The acked purchase survives; the refused one may or may not
        // have reached disk (fsyncgate uncertainty) but never partially.
        let doubled = revenue.checked_add(revenue);
        assert!(
            back.market().revenue() == revenue || Some(back.market().revenue()) == doubled,
            "revenue {:?} vs acked {revenue:?}",
            back.market().revenue()
        );
        assert_eq!(back.health(), MarketHealth::Healthy);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_transient_fsync_is_typed_and_non_degrading() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        let dir = temp_dir("compact_transient");
        let fs = qbdp_store::FaultFs::new(qbdp_store::FaultPlan {
            script: Vec::new(),
            seeded: None,
        });
        // Zero retries: a single transient immediately exhausts the
        // budget and must surface as the typed Transient error.
        let dm = DurableMarket::open_with(
            &dir,
            DurableOptions {
                seed: Some(QDP),
                ..faulty(&fs)
            },
        )
        .unwrap();
        dm.purchase_str("Q(x) :- R(x)").unwrap();
        fs.set_plan(qbdp_store::FaultPlan {
            script: vec![ScriptedFault {
                op: FaultOp::Fsync,
                path_contains: "snapshot.tmp".into(),
                skip: 0,
                kind: FaultKind::Eintr,
            }],
            seeded: None,
        });
        let err = dm.compact().unwrap_err();
        match &err {
            MarketError::Store(StoreError::Transient { op, path, .. }) => {
                assert_eq!(*op, "snapshot-tmp");
                assert!(path.contains(".tmp"), "{path}");
            }
            other => panic!("expected typed Transient, got {other:?}"),
        }
        // Non-degrading: the market stays healthy and the retried
        // compaction succeeds.
        assert_eq!(dm.health(), MarketHealth::Healthy);
        dm.compact().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fault after the log reset, before the rebased snapshot is
    /// durable, must stop writes: the snapshot on disk still records the
    /// pre-reset position, so a write appended to the empty log would be
    /// cut off by the next open's rebase. Here the rebasing snapshot's
    /// fsync fails with `EINTR` and no retries.
    #[test]
    fn compact_fault_after_the_log_reset_degrades_and_loses_no_ack() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        let dir = temp_dir("compact_rebase");
        let fs = qbdp_store::FaultFs::new(qbdp_store::FaultPlan::none());
        let dm = DurableMarket::open_with(
            &dir,
            DurableOptions {
                seed: Some(QDP),
                ..faulty(&fs)
            },
        )
        .unwrap();
        dm.purchase_str("Q(x) :- R(x)").unwrap();
        dm.purchase_str("Q(x, y) :- R(x), S(x, y)").unwrap();
        fs.set_plan(qbdp_store::FaultPlan {
            script: vec![ScriptedFault {
                op: FaultOp::Fsync,
                path_contains: "snapshot.tmp".into(),
                skip: 1,
                kind: FaultKind::Eintr,
            }],
            seeded: None,
        });
        assert!(matches!(
            dm.compact(),
            Err(MarketError::Store(StoreError::Transient { .. }))
        ));
        let health = dm.health();
        let mut acked = 2;
        if dm.purchase_str("Q(x) :- R(x)").is_ok() {
            acked += 1;
        }
        dm.sync().unwrap();
        drop(dm);
        fs.clear_plan();
        let back = DurableMarket::open_with(&dir, faulty(&fs)).unwrap();
        assert_eq!(back.market().sales(), acked, "every acked sale recovers");
        assert!(
            matches!(health, MarketHealth::ReadOnly { .. }),
            "a failure after the log reset degrades the market"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The automatic compaction keeps the log under the snapshot's size
    /// plus one record, after every kind of durable write, and the
    /// reopened market is the live one.
    #[test]
    fn the_log_stays_within_a_snapshot_plus_one_record() {
        let dir = temp_dir("bound");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        let snapshot_bytes = || std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
        let queries = ["Q(x) :- R(x)", "Q(x, y) :- R(x), S(x, y)", "Q(y) :- T(y)"];
        let (xs, ys) = (["a1", "a2", "a3", "a4"], ["b1", "b2", "b3"]);
        let (mut compactions, mut refused) = (0, 0);
        for i in 0..300usize {
            let before = dm.wal_position();
            match i % 4 {
                0 => {
                    let view = format!("S.X={}", xs[i / 4 % 4]);
                    // Above the full cover of S.Y: refused, logged all the same.
                    if dm
                        .set_price(&view, Price::cents(50 + (i as u64 * 37) % 400))
                        .is_err()
                    {
                        refused += 1;
                    }
                }
                1 => {
                    dm.purchase_str(queries[i / 4 % 3]).unwrap();
                }
                2 => {
                    let tuple = [Value::text(xs[i % 4]), Value::text(ys[i % 3])];
                    dm.insert("S", [Tuple::new(tuple)]).unwrap();
                }
                _ => {
                    let mut policy = dm.market().policy();
                    policy.fuel = Some(1_000_000 + i as u64);
                    dm.set_policy(policy).unwrap();
                }
            }
            let after = dm.wal_position();
            if after < before {
                compactions += 1;
                assert_eq!(after, 0, "write {i}: a compaction empties the log");
            } else {
                let record = after - before;
                assert!(
                    after <= snapshot_bytes() + record,
                    "write {i}: log {after} B over snapshot {} B + record {record} B",
                    snapshot_bytes()
                );
            }
        }
        assert!(compactions >= 3, "only {compactions} compaction(s) ran");
        assert!(refused > 0, "no revision was refused");
        let live = crate::chaos::fingerprint(dm.market());
        drop(dm);
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(crate::chaos::fingerprint(back.market()), live);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fault in an automatic compaction never fails the write that
    /// triggered it. Before the log reset the market stays healthy and
    /// waits another snapshot's size of log before it tries again;
    /// after it the market degrades. Either way a reopen after a crash
    /// recovers the write.
    #[test]
    fn a_failed_automatic_compaction_keeps_its_ack() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        // `skip` 0 hits the snapshot that covers the log, 1 the rebasing
        // snapshot written after the reset.
        let cases = [
            (FaultKind::Eintr, 0, false),
            (FaultKind::FsyncFail, 0, false),
            (FaultKind::Eintr, 1, true),
            (FaultKind::FsyncFail, 1, true),
        ];
        for (seed, (kind, skip, degrades)) in cases.into_iter().enumerate() {
            let case = format!("{kind:?} skip {skip}");
            let dir = temp_dir("auto_fault");
            let fs = qbdp_store::FaultFs::new(qbdp_store::FaultPlan::none());
            let options = DurableOptions {
                seed: Some(QDP),
                fsync: FsyncPolicy::Always,
                ..faulty(&fs)
            };
            let dm = DurableMarket::open_with(&dir, options).unwrap();
            fs.set_plan(qbdp_store::FaultPlan {
                script: vec![ScriptedFault {
                    op: FaultOp::Fsync,
                    path_contains: "snapshot.tmp".into(),
                    skip,
                    kind,
                }],
                seeded: None,
            });
            // Revise until a compaction runs into the fault; every one
            // of those writes is acknowledged.
            let mut cents = 100;
            while fs.injected_count() == 0 {
                cents += 1;
                assert!(cents < 10_000, "{case}: no compaction ran");
                dm.set_price("T.Y=b2", Price::cents(cents)).unwrap();
            }
            let acked = crate::chaos::fingerprint(dm.market());
            if degrades {
                assert!(
                    matches!(dm.health(), MarketHealth::ReadOnly { .. }),
                    "{case}"
                );
                assert!(matches!(
                    dm.set_price("T.Y=b2", Price::cents(1)),
                    Err(MarketError::Degraded(_))
                ));
            } else {
                assert_eq!(dm.health(), MarketHealth::Healthy, "{case}");
                // Re-armed at the log's end: the next write appends…
                let pos = dm.wal_position();
                dm.set_price("T.Y=b2", Price::cents(cents)).unwrap();
                assert!(dm.wal_position() > pos, "{case}: retried at once");
                // …and a later one compacts.
                while dm.wal_position() > 0 {
                    cents += 1;
                    assert!(cents < 20_000, "{case}: the trigger never re-armed");
                    dm.set_price("T.Y=b2", Price::cents(cents)).unwrap();
                }
            }
            let live = crate::chaos::fingerprint(dm.market());
            drop(dm);
            fs.clear_plan();
            fs.simulate_crash(seed as u64).unwrap();
            let back = DurableMarket::open_with(&dir, faulty(&fs)).unwrap();
            let recovered = crate::chaos::fingerprint(back.market());
            assert_eq!(recovered, live, "{case}");
            if degrades {
                assert_eq!(recovered, acked, "{case}");
            }
            drop(back);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A multi-tuple insert whose first tuple triggers a compaction that
    /// degrades the market stops there: that tuple stands, the next is
    /// refused rather than appended to a log the snapshot on disk no
    /// longer covers, and a reopen after a crash holds every tuple the
    /// live market holds.
    #[test]
    fn an_insert_stops_at_a_compaction_that_degrades() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        for (seed, kind) in [FaultKind::Eintr, FaultKind::FsyncFail]
            .into_iter()
            .enumerate()
        {
            let case = format!("{kind:?}");
            let dir = temp_dir("insert_degrade");
            let fs = qbdp_store::FaultFs::new(qbdp_store::FaultPlan::none());
            let options = DurableOptions {
                seed: Some(QDP),
                fsync: FsyncPolicy::Always,
                ..faulty(&fs)
            };
            let dm = DurableMarket::open_with(&dir, options).unwrap();
            let snapshot_bytes = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
            // Fill the log with duplicates (logged, adding nothing) until
            // one more insert record reaches the snapshot's size.
            let tuple = |x: &str, y: &str| Tuple::new([Value::text(x), Value::text(y)]);
            let record = {
                let before = dm.wal_position();
                dm.insert("S", [tuple("a1", "b1")]).unwrap();
                dm.wal_position() - before
            };
            while dm.wal_position() + record < snapshot_bytes {
                dm.insert("S", [tuple("a1", "b1")]).unwrap();
            }
            fs.set_plan(qbdp_store::FaultPlan {
                script: vec![ScriptedFault {
                    op: FaultOp::Fsync,
                    path_contains: "snapshot.tmp".into(),
                    skip: 1,
                    kind,
                }],
                seeded: None,
            });
            let fresh = [("a2", "b1"), ("a3", "b1"), ("a3", "b2"), ("a4", "b3")];
            let out = dm.insert("S", fresh.map(|(x, y)| tuple(x, y)));
            assert_eq!(fs.injected_count(), 1, "{case}: no compaction ran");
            assert!(
                matches!(out, Err(MarketError::Degraded(_))),
                "{case}: {out:?}"
            );
            assert_eq!(dm.wal_position(), 0, "{case}: appended after the reset");
            let qdp = dm.market().to_qdp();
            assert!(qdp.contains("tuple S(a2, b1)"), "{case}: first tuple lost");
            assert!(!qdp.contains("tuple S(a3, b1)"), "{case}: second applied");
            let live = crate::chaos::fingerprint(dm.market());
            drop(dm);
            fs.clear_plan();
            fs.simulate_crash(seed as u64).unwrap();
            let back = DurableMarket::open_with(&dir, faulty(&fs)).unwrap();
            assert_eq!(crate::chaos::fingerprint(back.market()), live, "{case}");
            drop(back);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn failed_snapshot_dir_fsync_fails_compaction_and_keeps_the_log() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        // Each seed rolls the uncommitted snapshot rename differently at
        // the crash; every outcome must keep every acked purchase.
        for seed in 0..16 {
            let (dir, fs, dm) = fault_setup("dirsync", Vec::new());
            dm.purchase_str("Q(x) :- R(x)").unwrap();
            dm.purchase_str("Q(x, y) :- R(x), S(x, y)").unwrap();
            let (revenue, sales) = (dm.market().revenue(), dm.market().sales());
            // Both snapshot writes in `compact` sync the directory; fail
            // each, so the log reset cannot slip between them.
            let dir_sync = ScriptedFault {
                op: FaultOp::SyncDir,
                path_contains: String::new(),
                skip: 0,
                kind: FaultKind::FsyncFail,
            };
            fs.set_plan(qbdp_store::FaultPlan {
                script: vec![dir_sync.clone(), dir_sync],
                seeded: None,
            });
            let before = dm.wal_position();
            let err = dm.compact().unwrap_err();
            assert!(
                matches!(err, MarketError::Store(StoreError::Io(_))),
                "{err:?}"
            );
            assert!(dm.wal_position() > before, "the WAL must not be reset");
            drop(dm);
            fs.clear_plan();
            fs.simulate_crash(seed).unwrap();
            let back = DurableMarket::open_with(&dir, faulty(&fs)).unwrap();
            assert_eq!(back.market().revenue(), revenue, "seed {seed}");
            assert_eq!(back.market().sales(), sales, "seed {seed}");
            drop(back);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn scrub_reports_clean_then_detects_rot() {
        let dir = temp_dir("scrub");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Always).unwrap();
        dm.purchase_str("Q(x) :- R(x)").unwrap();
        let report = dm.scrub();
        assert!(report.is_clean(), "{report}");
        assert!(report.wal_records >= 1);
        // Rot one byte in the log body behind the market's back.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&wal_path, &bytes).unwrap();
        let report = dm.scrub();
        assert!(!report.is_clean());
        assert_eq!(report.findings[0].file, "wal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_text_roundtrips() {
        let p = MarketPolicy {
            deadline: Some(Duration::from_millis(1500)),
            fuel: Some(42),
            sell_degraded: true,
            batch_workers: 8,
            ..Default::default()
        };
        let back = parse_policy(&policy_text(&p)).unwrap();
        assert_eq!(back, p);
        assert!(parse_policy("garbage").is_err());
    }
}
