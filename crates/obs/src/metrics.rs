//! The static metrics registry: counters, gauges, and log₂-bucketed
//! histograms whose record path never waits.
//!
//! # No waiting on the record path
//!
//! The record path must never serialize two pricing workers. Counters
//! and histograms are therefore **sharded**: [`SHARDS`] independent,
//! cache-line-padded cells, and each thread picks one shard once (a
//! monotonically assigned thread-local index) and only ever touches
//! that shard with relaxed `fetch_add`s. Two threads on different
//! shards never contend; a read merges all shards. There is no lock
//! anywhere on the record path: `crates/obs/clippy.toml` disallows
//! `Mutex`/`RwLock` in this crate, and the flight ring, the one
//! `#[expect]`ed exception, is never reached from `record*`.
//!
//! # Catalog, not strings
//!
//! The metric set is a closed catalog ([`Ctr`], [`Gauge`], [`Hst`]):
//! recording indexes a fixed array, so there is no name hashing, no
//! registration race, and the exporters can enumerate everything
//! deterministically. The global registry is a `static`; tests build
//! private [`Registry`] values so goldens never see cross-test noise.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Number of per-thread counter shards. A power of two (thread index is
/// masked); 16 matches the pricing host's realistic worker counts, same
/// reasoning as the quote cache's shard count.
pub const SHARDS: usize = 16;

/// Number of histogram buckets: finite upper bounds `2^0 .. 2^30`, plus
/// a final overflow (`+Inf`) bucket.
pub const NBUCKETS: usize = 32;

/// The global on/off switch (`MarketPolicy::telemetry`). Off is the
/// default: a disabled record call is one relaxed load and a branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Flip telemetry recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is telemetry recording enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The shard this thread owns: assigned round-robin on first use, then
/// cached in a thread-local. Never waits (one `fetch_add` ever per
/// thread, then a plain `Cell` read).
#[inline]
fn shard_idx() -> usize {
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            v
        } else {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let v = NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
            c.set(v);
            v
        }
    })
}

/// One cache line per shard so two threads' `fetch_add`s never bounce
/// the same line.
#[repr(align(64))]
struct Slot(AtomicU64);

impl Slot {
    const fn new() -> Slot {
        Slot(AtomicU64::new(0))
    }
}

/// A monotone counter, sharded per thread. Record is one relaxed
/// `fetch_add` on a thread-private line; read merges the shards.
pub struct Counter {
    shards: [Slot; SHARDS],
}

impl Counter {
    /// A zeroed counter (const so registries can be `static`).
    pub const fn new() -> Counter {
        Counter {
            shards: [const { Slot::new() }; SHARDS],
        }
    }

    /// Add `n`. Never waits.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_idx()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Merged total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// A last-value-wins gauge. Single cell: gauges are set from already
/// serialized paths (admission, health flips), not from hot loops.
pub struct GaugeCell {
    value: AtomicU64,
}

impl GaugeCell {
    /// A zeroed gauge.
    pub const fn new() -> GaugeCell {
        GaugeCell {
            value: AtomicU64::new(0),
        }
    }

    /// Set the current value. Never waits.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Read the current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for GaugeCell {
    fn default() -> GaugeCell {
        GaugeCell::new()
    }
}

/// One thread-shard of a histogram: the per-bucket tallies plus the
/// running count and sum, padded to its own cache-line start.
#[repr(align(64))]
struct HistShard {
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    const fn new() -> HistShard {
        HistShard {
            buckets: [const { AtomicU64::new(0) }; NBUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in. Bucket `i` covers
/// `(2^(i-1), 2^i]` (bucket 0 covers `0..=1`), so a value that is an
/// exact power of two `2^k` lands in the bucket whose upper bound is
/// `2^k` — boundaries are exact, never off by one. Values past `2^30`
/// land in the final `+Inf` bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        let b = 64 - ((v - 1).leading_zeros() as usize);
        if b < NBUCKETS {
            b
        } else {
            NBUCKETS - 1
        }
    }
}

/// The inclusive upper bound of bucket `i`, or `None` for the final
/// `+Inf` bucket.
pub fn bucket_le(i: usize) -> Option<u64> {
    if i + 1 >= NBUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

/// A log₂-bucketed histogram, sharded per thread like [`Counter`].
/// Recording touches three relaxed atomics on a thread-private region;
/// reads merge the shards into a [`HistSnapshot`].
pub struct Hist {
    shards: [HistShard; SHARDS],
}

/// The merged, point-in-time view of a [`Hist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Non-cumulative per-bucket tallies ([`bucket_le`] gives bounds).
    pub buckets: [u64; NBUCKETS],
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping; microseconds in practice).
    pub sum: u64,
}

impl Hist {
    /// A zeroed histogram (const so registries can be `static`).
    pub const fn new() -> Hist {
        Hist {
            shards: [const { HistShard::new() }; SHARDS],
        }
    }

    /// Record one value. Never waits.
    #[inline]
    pub fn observe(&self, v: u64) {
        let s = &self.shards[shard_idx()];
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Merge every shard into one snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot {
            buckets: [0; NBUCKETS],
            count: 0,
            sum: 0,
        };
        for s in &self.shards {
            for (o, b) in out.buckets.iter_mut().zip(s.buckets.iter()) {
                *o = o.wrapping_add(b.load(Ordering::Relaxed));
            }
            out.count = out.count.wrapping_add(s.count.load(Ordering::Relaxed));
            out.sum = out.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
        }
        out
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

macro_rules! catalog {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($variant:ident => ($pname:expr, $help:expr),)+ }) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                #[doc = $help]
                $variant,
            )+
        }

        impl $name {
            /// Every metric in this catalog, in export order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The exported (Prometheus) metric name.
            pub fn name(self) -> &'static str {
                match self { $($name::$variant => $pname,)+ }
            }

            /// The one-line help string.
            pub fn help(self) -> &'static str {
                match self { $($name::$variant => $help,)+ }
            }
        }
    };
}

catalog! {
    /// The counter catalog. Closed set: adding a metric means adding a
    /// variant here (and it shows up in both exporters automatically).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Ctr {
        MarketQuotes => ("qbdp_market_quotes_total", "Quotes served (exact or degraded)"),
        MarketQuotesDegraded => ("qbdp_market_quotes_degraded_total", "Quotes served with a degraded [lower, upper] interval"),
        MarketPurchases => ("qbdp_market_purchases_total", "Completed purchases"),
        MarketCacheHits => ("qbdp_market_cache_hits_total", "Sharded quote-cache hits"),
        MarketCacheMisses => ("qbdp_market_cache_misses_total", "Sharded quote-cache misses (absent or invalidated)"),
        MarketInvalidations => ("qbdp_market_invalidations_total", "Cache invalidation sweeps (one per data/price mutation)"),
        MarketColumnsInvalidated => ("qbdp_market_columns_invalidated_total", "Columns touched across all invalidations"),
        MarketAdmissionRejects => ("qbdp_market_admission_rejects_total", "Quotes refused by max_in_flight admission control"),
        MarketHealthFlips => ("qbdp_market_health_flips_total", "MarketHealth transitions to ReadOnly"),
        MarketPanicsContained => ("qbdp_market_panics_contained_total", "Pricing panics caught and converted to MarketError::Internal"),
        MarketPurchaseRetries => ("qbdp_market_purchase_retries_total", "Durable purchase epoch-revalidation retries"),
        MarketPurchaseContended => ("qbdp_market_purchase_contended_total", "Durable purchases abandoned as Contended after the retry cap"),
        PlanCacheHits => ("qbdp_plan_cache_hits_total", "Plan-cache lookups served with an unchanged price vector"),
        PlanCacheMisses => ("qbdp_plan_cache_misses_total", "Plan-cache lookups that found no plan (a shape's first miss prices cold)"),
        PlanCacheBuilds => ("qbdp_plan_cache_builds_total", "Plans built for a repeated shape (or rebuilt after eviction)"),
        PlanCacheWarmReprices => ("qbdp_plan_cache_warm_reprices_total", "Plan-cache lookups repriced from a residual warm start"),
        PlanCacheFlowFallbacks => ("qbdp_plan_cache_flow_fallbacks_total", "Warm reprices that fell back to a cold flow solve"),
        PlanCacheEvictions => ("qbdp_plan_cache_evictions_total", "Plan-cache entries evicted (capacity or invalidation)"),
        BudgetExhaustedFlow => ("qbdp_budget_exhausted_flow_total", "Budget exhaustions surfaced inside the flow engines"),
        BudgetExhaustedSubset => ("qbdp_budget_exhausted_subset_total", "Budget exhaustions surfaced inside subset-search pricing"),
        BudgetExhaustedCerts => ("qbdp_budget_exhausted_certs_total", "Budget exhaustions surfaced inside certificate enumeration"),
        BudgetExhaustedStep3 => ("qbdp_budget_exhausted_step3_total", "Budget exhaustions surfaced inside Step-3 normalization"),
        FlowSolvesCold => ("qbdp_flow_solves_cold_total", "Cold Dinic max-flow solves"),
        FlowSolvesWarm => ("qbdp_flow_solves_warm_total", "Residual warm-start solves that repaired in place"),
        FlowWarmFallbacks => ("qbdp_flow_warm_fallbacks_total", "Warm starts that gave up and re-solved cold"),
        FlowFuelSpent => ("qbdp_flow_fuel_spent_total", "Fuel units charged by flow phase metering"),
        FlowArenaReuses => ("qbdp_flow_arena_reuses_total", "Dinic solves that recycled an arena residual buffer"),
        StoreWalAppends => ("qbdp_store_wal_appends_total", "WAL records appended"),
        StoreWalRetries => ("qbdp_store_wal_retries_total", "Transient WAL I/O faults retried away"),
        StoreSnapshots => ("qbdp_store_snapshots_total", "Snapshots written"),
        StoreCompactions => ("qbdp_store_compactions_total", "Two-phase compactions completed"),
        FlightCaptures => ("qbdp_flight_captures_total", "Span trees captured by the flight recorder"),
        ServeConnsAccepted => ("qbdp_serve_conns_accepted_total", "TCP connections accepted into the serving table"),
        ServeConnsRejected => ("qbdp_serve_conns_rejected_total", "TCP connections refused 503 at the max_conns cap"),
        ServeRequests => ("qbdp_serve_requests_total", "Complete HTTP requests handled by the quote server"),
        ServeHttpErrors => ("qbdp_serve_http_errors_total", "HTTP framing errors answered 400/413 and closed"),
    }
}

catalog! {
    /// The gauge catalog.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Gauge {
        InFlight => ("qbdp_market_in_flight", "Quotes currently admitted and being priced"),
        HealthReadOnly => ("qbdp_market_health_read_only", "1 while the durable market is degraded to read-only, else 0"),
        ServeOpenConns => ("qbdp_serve_open_conns", "Connections currently held by the quote server"),
    }
}

catalog! {
    /// The histogram catalog. All values are microseconds.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Hst {
        QuoteLatencyUs => ("qbdp_market_quote_latency_us", "End-to-end quote latency, microseconds"),
        PurchaseLatencyUs => ("qbdp_market_purchase_latency_us", "End-to-end purchase latency, microseconds"),
        WalAppendUs => ("qbdp_store_wal_append_us", "WAL append (write + frame) latency, microseconds"),
        WalFsyncUs => ("qbdp_store_wal_fsync_us", "WAL fsync latency, microseconds"),
        SnapshotWriteUs => ("qbdp_store_snapshot_write_us", "Snapshot write+rename duration, microseconds"),
        CompactionUs => ("qbdp_store_compaction_us", "Two-phase compaction duration, microseconds"),
        ServeQuoteLatencyUs => ("qbdp_serve_quote_latency_us", "HTTP /quote service time (parse-complete to response enqueued), microseconds"),
        ServePurchaseLatencyUs => ("qbdp_serve_purchase_latency_us", "HTTP /purchase service time, microseconds"),
        ServeAdminLatencyUs => ("qbdp_serve_admin_latency_us", "HTTP /health and /metrics service time, microseconds"),
    }
}

/// A complete metric set: one cell per catalog entry. The process-wide
/// instance is [`global`]; tests build private ones so goldens are
/// deterministic.
pub struct Registry {
    counters: [Counter; Ctr::ALL.len()],
    gauges: [GaugeCell; Gauge::ALL.len()],
    hists: [Hist; Hst::ALL.len()],
}

impl Registry {
    /// A zeroed registry (const so the global can be a `static`).
    pub const fn new() -> Registry {
        Registry {
            counters: [const { Counter::new() }; Ctr::ALL.len()],
            gauges: [const { GaugeCell::new() }; Gauge::ALL.len()],
            hists: [const { Hist::new() }; Hst::ALL.len()],
        }
    }

    /// The cell behind a counter id.
    #[inline]
    pub fn counter(&self, c: Ctr) -> &Counter {
        &self.counters[c as usize]
    }

    /// The cell behind a gauge id.
    #[inline]
    pub fn gauge(&self, g: Gauge) -> &GaugeCell {
        &self.gauges[g as usize]
    }

    /// The cell behind a histogram id.
    #[inline]
    pub fn hist(&self, h: Hst) -> &Hist {
        &self.hists[h as usize]
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry every `record*` call writes to.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Record `n` onto counter `c` (no-op while telemetry is disabled).
#[inline]
pub fn record(c: Ctr, n: u64) {
    if enabled() {
        GLOBAL.counter(c).add(n);
    }
}

/// Set gauge `g` to `v` (no-op while telemetry is disabled).
#[inline]
pub fn record_gauge(g: Gauge, v: u64) {
    if enabled() {
        GLOBAL.gauge(g).set(v);
    }
}

/// Record `v` onto histogram `h` (no-op while telemetry is disabled).
#[inline]
pub fn record_hist(h: Hst, v: u64) {
    if enabled() {
        GLOBAL.hist(h).observe(v);
    }
}

/// A latency probe that costs nothing when telemetry is off: `start`
/// reads the clock only if recording is enabled, and `stop` records
/// only if `start` did.
pub struct Stopwatch {
    t0: Option<Instant>,
}

impl Stopwatch {
    /// Start timing iff telemetry is enabled.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch {
            t0: if enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Microseconds since `start`, if timing.
    #[inline]
    pub fn elapsed_us(&self) -> Option<u64> {
        self.t0.map(|t| t.elapsed().as_micros() as u64)
    }

    /// Record the elapsed time onto histogram `h` and return it.
    #[inline]
    pub fn stop(self, h: Hst) -> Option<u64> {
        let us = self.elapsed_us()?;
        record_hist(h, us);
        Some(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_merges_shards() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 2^k must land in the bucket whose upper bound is exactly 2^k.
        for k in 0..30u32 {
            let v = 1u64 << k;
            let b = bucket_of(v);
            assert_eq!(bucket_le(b), Some(v), "2^{k} must land on its own boundary");
            // One more than a power of two spills into the next bucket.
            let b1 = bucket_of(v + 1);
            assert_eq!(b1, b + 1, "2^{k}+1 must spill over the boundary");
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1, "overflow bucket");
        assert_eq!(bucket_le(NBUCKETS - 1), None, "last bucket is +Inf");
    }

    #[test]
    fn histogram_snapshot_counts_and_sums() {
        let h = Hist::new();
        for v in [0u64, 1, 2, 3, 1024, 1 << 31] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 2 + 3 + 1024 + (1u64 << 31));
        assert_eq!(s.buckets[0], 2, "0 and 1 share the first bucket");
        assert_eq!(s.buckets[1], 1, "2 sits on the le=2 boundary");
        assert_eq!(s.buckets[2], 1, "3 is in (2,4]");
        assert_eq!(s.buckets[10], 1, "1024 = 2^10 on its boundary");
        assert_eq!(s.buckets[NBUCKETS - 1], 1, "2^31 overflows to +Inf");
    }

    #[test]
    fn concurrent_recording_merges_to_serial_sum() {
        // The satellite requirement: a multi-thread merge must equal the
        // serial sum exactly — sharding loses nothing.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let c = Arc::new(Counter::new());
        let h = Arc::new(Hist::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        c.add(1);
                        h.observe((t as u64) * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
        let s = h.snapshot();
        assert_eq!(s.count, THREADS as u64 * PER_THREAD);
        // Serial reference: same values recorded single-threaded.
        let serial = Hist::new();
        for t in 0..THREADS as u64 {
            for i in 0..PER_THREAD {
                serial.observe(t * PER_THREAD + i);
            }
        }
        assert_eq!(s, serial.snapshot(), "merge must equal the serial sum");
    }

    #[test]
    fn disabled_record_is_a_no_op_on_the_global() {
        let _g = crate::test_guard();
        set_enabled(false);
        let before = global().counter(Ctr::FlightCaptures).get();
        record(Ctr::FlightCaptures, 17);
        assert_eq!(global().counter(Ctr::FlightCaptures).get(), before);
        assert!(Stopwatch::start().elapsed_us().is_none());
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = Ctr::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .chain(Hst::ALL.iter().map(|h| h.name()))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name in the catalog");
    }
}
