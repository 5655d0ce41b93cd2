//! The sharded, column-epoch-validated quote cache.
//!
//! Quoting is idempotent between data/price updates, and markets see the
//! same queries repeatedly, so the common case should be a hash lookup.
//! The cache lives *outside* the market's state lock: lookups and inserts
//! take only a per-shard lock (level [`Shard`], the innermost), so a
//! batch of workers filling the cache never serializes on the state
//! lock, and two workers quoting different queries almost never touch
//! the same shard.
//!
//! # Coherence protocol
//!
//! Staleness is ruled out by epoch tagging rather than by lock ordering —
//! but the epochs are **per column** (per [`AttrRef`]), not global, so an
//! update invalidates only the quotes it can actually change:
//!
//! * Every column of the catalog owns an `AtomicU64` **epoch**. A writer
//!   (data insert, price revision) bumps the epochs of exactly the
//!   columns it touches, *while it still holds the market's state write
//!   lock* ([`ShardedQuoteCache::invalidate_columns`]).
//! * A quote's **footprint** is the set of columns its price is derived
//!   from (every attribute of every relation the query mentions — see
//!   `qbdp_core::query_footprint`). Its **stamp** is the sum of its
//!   footprint's column epochs.
//! * A reader computes the stamp *under the state read lock* — so the
//!   value it sees names exactly the data snapshot it prices against —
//!   and tags its insert with it. [`ShardedQuoteCache::get`] recomputes
//!   the stamp from the entry's stored footprint and serves the entry
//!   only if it matches; [`ShardedQuoteCache::insert`] re-checks the
//!   stamp under the shard write lock and discards the entry if any of
//!   its columns has moved on.
//!
//! Soundness of the sum: epochs only grow, so an unchanged sum means
//! every term is unchanged — no footprint column was bumped since the
//! quote was computed. (Sums use wrapping arithmetic; aliasing would
//! need 2⁶⁴ bumps.) Any interleaving therefore serves only quotes
//! computed against the live snapshot. The payoff over a global epoch is
//! that entries whose footprint is **disjoint** from an update stay
//! servable: repricing `R.X=a` does not evict cached quotes over `S`.
//!
//! [`ShardedQuoteCache::invalidate_columns`] additionally sweeps the
//! shards, removing entries whose footprint intersects the touched
//! columns (bump-then-sweep: a racing insert tagged with the old stamp
//! either lands before the sweep and is removed, or after and is
//! discarded by its own stamp re-check), so no dead entry lingers and
//! memory stays bounded by the live entries.
//!
//! The sweep only bounds memory — [`ShardedQuoteCache::get`] re-checks
//! every stamp — so it is skipped while nothing can be in the shards. A
//! `filled` flag says whether an insert has run since the last
//! [`ShardedQuoteCache::reset`]: an insert raises it under its shard lock
//! *before* its stamp re-check, `reset` lowers it *before* clearing the
//! shards, and `invalidate_columns` reads it *after* its bumps. An
//! insert whose re-check passed therefore raised the flag before the
//! bump, so the invalidation sees it and sweeps (raising it only once
//! the re-check passed would let a bump and a read of the still-lowered
//! flag slip in between); and an insert racing a reset either lands in a
//! shard still to be cleared or raises the flag again. A market replaying
//! its log at recovery prices nothing, so its invalidations bump epochs
//! and walk no shard; live serving fills the cache and sweeps as before.
//! `crates/market/tests/loom_cache.rs` checks both orders and catches
//! each one reversed.
//!
//! A separate **generation** counter is bumped once per mutation and
//! exposed as [`ShardedQuoteCache::epoch`]: the durable market's
//! purchase path revalidates quotes against it ("did *anything* change
//! between pricing and logging?"), and recovery rewinds it to 0.
//!
//! # Shard count
//!
//! 16 shards is deliberately modest: the point of sharding is to make
//! lock *hold times* irrelevant, not to scale to hundreds of cores.
//! With `W` workers the probability of two of them colliding on one of
//! 16 shards is small for the worker counts a pricing host realistically
//! runs (≤ 16 — pricing is CPU-bound), while the whole cache stays two
//! cache lines of lock words. Growing it costs nothing if hosts widen.

use crate::lock::{LockBefore, Locked, OrderedRwLock, Shard};
use crate::market::MarketQuote;
use qbdp_catalog::fxhash::FxHasher;
use qbdp_catalog::{AttrRef, FxHashMap};
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of independently locked shards. Must be a power of two (shard
/// selection masks the key hash).
pub(crate) const SHARDS: usize = 16;

struct Entry {
    /// Sum of the footprint's column epochs when the quote was computed;
    /// served only while every one of them is unchanged.
    stamp: u64,
    /// The columns the quote's price is derived from.
    footprint: Vec<AttrRef>,
    /// Served by clone: the query text and one `Arc` to the receipt this
    /// entry shares with every quote it serves, nothing per view.
    quote: MarketQuote,
}

/// A fixed array of lock-sharded maps from rendered (canonical) query
/// text to stamp-tagged quotes, validated against per-column epochs.
/// See the module docs for the protocol.
pub(crate) struct ShardedQuoteCache {
    /// Bumped once per mutation; the durable revalidation token.
    generation: AtomicU64,
    /// One epoch per catalog column, fixed at construction (the schema
    /// never changes after a market opens).
    columns: FxHashMap<AttrRef, AtomicU64>,
    /// Whether an insert has run since construction or the last
    /// [`ShardedQuoteCache::reset`]; while it has not, the shards are
    /// empty and invalidation skips their sweep (see the module docs).
    filled: AtomicBool,
    shards: [OrderedRwLock<FxHashMap<String, Entry>, Shard>; SHARDS],
}

impl ShardedQuoteCache {
    /// Build a cache over the given catalog columns (every [`AttrRef`]
    /// of the schema).
    pub(crate) fn new(columns: impl IntoIterator<Item = AttrRef>) -> Self {
        ShardedQuoteCache {
            generation: AtomicU64::new(0),
            columns: columns
                .into_iter()
                .map(|a| (a, AtomicU64::new(0)))
                .collect(),
            filled: AtomicBool::new(false),
            shards: std::array::from_fn(|_| OrderedRwLock::new(FxHashMap::default())),
        }
    }

    fn shard(&self, key: &str) -> &OrderedRwLock<FxHashMap<String, Entry>, Shard> {
        let mut h = FxHasher::default();
        h.write(key.as_bytes());
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// The stamp of a footprint: the (wrapping) sum of its column
    /// epochs. Compute it under the market's state **read lock** to pair
    /// it with the data snapshot being priced.
    // audit: bounded(footprint is one column list, fixed per query)
    pub(crate) fn stamp(&self, footprint: &[AttrRef]) -> u64 {
        footprint
            .iter()
            .map(|a| self.columns.get(a).map_or(0, |e| e.load(Ordering::SeqCst)))
            .fold(0u64, u64::wrapping_add)
    }

    /// The mutation generation. Bumped once per data/price update; the
    /// durable purchase path uses it to detect *any* intervening change.
    pub(crate) fn epoch(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Look up a quote; served only if none of the entry's footprint
    /// columns has been bumped since it was computed. Call under the
    /// market's state read lock so the comparison is against the live
    /// snapshot.
    pub(crate) fn get(
        &self,
        token: &mut Locked<'_, impl LockBefore<Shard>>,
        key: &str,
    ) -> Option<MarketQuote> {
        let hit = self.get_inner(token, key);
        // The registry is the single tally for cache effectiveness: a
        // stamp-invalidated entry counts as a miss (it must be repriced),
        // same as an absent one.
        qbdp_obs::record(
            if hit.is_some() {
                qbdp_obs::Ctr::MarketCacheHits
            } else {
                qbdp_obs::Ctr::MarketCacheMisses
            },
            1,
        );
        hit
    }

    fn get_inner(
        &self,
        token: &mut Locked<'_, impl LockBefore<Shard>>,
        key: &str,
    ) -> Option<MarketQuote> {
        let (shard, _) = self.shard(key).read(token);
        let entry = shard.get(key)?;
        if entry.stamp == self.stamp(&entry.footprint) {
            Some(entry.quote.clone())
        } else {
            None
        }
    }

    /// Insert a quote computed under `stamp` over `footprint`; silently
    /// discarded if any footprint column has been bumped since (caching
    /// it would serve a stale price until the *next* touching update).
    pub(crate) fn insert(
        &self,
        token: &mut Locked<'_, impl LockBefore<Shard>>,
        key: String,
        quote: MarketQuote,
        footprint: Vec<AttrRef>,
        stamp: u64,
    ) {
        let (mut shard, _) = self.shard(&key).write(token);
        // Raised before the re-check: an invalidation bumping after the
        // re-check read the old epochs must see it and sweep.
        self.filled.store(true, Ordering::SeqCst);
        // Re-check under the shard lock: an invalidation that has already
        // swept this shard must not see the entry reappear.
        if self.stamp(&footprint) == stamp {
            shard.insert(
                key,
                Entry {
                    stamp,
                    footprint,
                    quote,
                },
            );
        }
    }

    /// Invalidate every cached quote whose footprint intersects `attrs`.
    /// Call while holding the market's state **write lock** so the bumps
    /// are ordered with the data mutation. Bump-then-sweep: a racing
    /// insert tagged with the old stamp either lands before the sweep
    /// (and is removed) or after (and is discarded by its own stamp
    /// re-check), so no dead entry lingers. Entries disjoint from
    /// `attrs` keep their stamps valid and stay servable. A cache no
    /// insert has reached since the last reset has nothing to sweep, and
    /// the shard walk is skipped.
    pub(crate) fn invalidate_columns(
        &self,
        token: &mut Locked<'_, impl LockBefore<Shard>>,
        attrs: &[AttrRef],
    ) {
        qbdp_obs::record(qbdp_obs::Ctr::MarketInvalidations, 1);
        qbdp_obs::record(qbdp_obs::Ctr::MarketColumnsInvalidated, attrs.len() as u64);
        self.generation.fetch_add(1, Ordering::SeqCst);
        for a in attrs {
            if let Some(e) = self.columns.get(a) {
                e.fetch_add(1, Ordering::SeqCst);
            }
        }
        // Read after the bumps (see the module docs).
        if !self.filled.load(Ordering::SeqCst) {
            return;
        }
        for shard in &self.shards {
            shard
                .write(token)
                .0
                .retain(|_, e| !e.footprint.iter().any(|f| attrs.contains(f)));
        }
    }

    /// Total cached quotes across all shards (test/introspection aid).
    pub(crate) fn len(&self, token: &mut Locked<'_, impl LockBefore<Shard>>) -> usize {
        self.shards.iter().map(|s| s.read(token).0.len()).sum()
    }

    /// Clear the shards and rewind every epoch to 0. Recovery uses this
    /// after replay: the replayed mutations bumped the epochs many
    /// times, but a recovered market starts with an empty cache and
    /// should tag fresh quotes from zeroed epochs like a newly opened
    /// one (pre-crash cache entries died with the process; none can
    /// survive to here).
    pub(crate) fn reset(&self, token: &mut Locked<'_, impl LockBefore<Shard>>) {
        self.generation.store(0, Ordering::SeqCst);
        for e in self.columns.values() {
            e.store(0, Ordering::SeqCst);
        }
        // Lowered before the shards are cleared: an insert racing this
        // either lands in a shard still to be cleared or raises it again.
        self.filled.store(false, Ordering::SeqCst);
        for shard in &self.shards {
            shard.write(token).0.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receipt::Receipt;
    use qbdp_catalog::{RelId, Schema};
    use qbdp_core::dichotomy::QueryClass;
    use qbdp_core::price_points::PriceList;
    use qbdp_core::{Price, PricingMethod, QuoteQuality};
    use std::sync::Arc;

    fn quote(price: Price) -> MarketQuote {
        MarketQuote {
            query: "Q() :- R(x)".into(),
            price,
            receipt: Arc::new(Receipt::capture(
                Arc::new(Schema::new()),
                Vec::new(),
                &PriceList::new(),
            )),
            method: PricingMethod::Trivial,
            class: QueryClass::GeneralizedChain,
            quality: QuoteQuality::Exact,
            lower_bound: price,
        }
    }

    /// Two relations, two columns each: R.{0,1} and S.{0,1}.
    fn attrs() -> Vec<AttrRef> {
        vec![
            AttrRef::new(RelId(0), 0),
            AttrRef::new(RelId(0), 1),
            AttrRef::new(RelId(1), 0),
            AttrRef::new(RelId(1), 1),
        ]
    }

    fn cache() -> ShardedQuoteCache {
        ShardedQuoteCache::new(attrs())
    }

    #[test]
    fn serves_only_current_stamp() {
        let cache = cache();
        let fp = vec![AttrRef::new(RelId(0), 0)];
        let s = cache.stamp(&fp);
        cache.insert(
            &mut Locked::root(),
            "q1".into(),
            quote(Price::dollars(1)),
            fp.clone(),
            s,
        );
        assert_eq!(
            cache.get(&mut Locked::root(), "q1").unwrap().price,
            Price::dollars(1)
        );
        cache.invalidate_columns(&mut Locked::root(), &fp);
        assert!(
            cache.get(&mut Locked::root(), "q1").is_none(),
            "stale stamp must not serve"
        );
        assert_eq!(
            cache.len(&mut Locked::root()),
            0,
            "the sweep removed the touched entry"
        );
    }

    #[test]
    fn disjoint_entries_survive_invalidation() {
        let cache = cache();
        let over_r = vec![AttrRef::new(RelId(0), 0), AttrRef::new(RelId(0), 1)];
        let over_s = vec![AttrRef::new(RelId(1), 0), AttrRef::new(RelId(1), 1)];
        let sr = cache.stamp(&over_r);
        let ss = cache.stamp(&over_s);
        cache.insert(
            &mut Locked::root(),
            "qr".into(),
            quote(Price::dollars(1)),
            over_r,
            sr,
        );
        cache.insert(
            &mut Locked::root(),
            "qs".into(),
            quote(Price::dollars(2)),
            over_s,
            ss,
        );
        // Touching an R column kills the R quote but leaves the S quote
        // servable — the whole point of column-scoped epochs.
        cache.invalidate_columns(&mut Locked::root(), &[AttrRef::new(RelId(0), 1)]);
        assert!(cache.get(&mut Locked::root(), "qr").is_none());
        assert_eq!(
            cache.get(&mut Locked::root(), "qs").unwrap().price,
            Price::dollars(2)
        );
        assert_eq!(cache.len(&mut Locked::root()), 1);
    }

    #[test]
    fn stale_insert_is_discarded() {
        let cache = cache();
        let fp = vec![AttrRef::new(RelId(0), 0)];
        let s = cache.stamp(&fp);
        cache.invalidate_columns(&mut Locked::root(), &fp);
        cache.insert(
            &mut Locked::root(),
            "q1".into(),
            quote(Price::dollars(1)),
            fp,
            s,
        );
        assert!(cache.get(&mut Locked::root(), "q1").is_none());
        assert_eq!(cache.len(&mut Locked::root()), 0);
    }

    #[test]
    fn generation_counts_every_mutation() {
        let cache = cache();
        assert_eq!(cache.epoch(), 0);
        cache.invalidate_columns(&mut Locked::root(), &[AttrRef::new(RelId(0), 0)]);
        cache.invalidate_columns(&mut Locked::root(), &[AttrRef::new(RelId(1), 0)]);
        assert_eq!(cache.epoch(), 2, "one bump per mutation, any column");
        cache.reset(&mut Locked::root());
        assert_eq!(cache.epoch(), 0, "recovery rewinds to a cold cache");
    }

    #[test]
    fn reset_rewinds_column_epochs_too() {
        let cache = cache();
        let fp = vec![AttrRef::new(RelId(0), 0)];
        cache.invalidate_columns(&mut Locked::root(), &fp);
        let bumped = cache.stamp(&fp);
        assert_ne!(bumped, 0);
        cache.reset(&mut Locked::root());
        assert_eq!(cache.stamp(&fp), 0, "stamps restart from zero");
        assert_eq!(cache.len(&mut Locked::root()), 0);
    }

    /// Invalidating a cache no insert has reached still bumps every
    /// epoch, so a quote stamped before it is refused; the first insert
    /// brings the sweep back, and a reset takes it away again.
    #[test]
    fn an_unfilled_cache_skips_only_the_sweep() {
        let cache = cache();
        let fp = vec![AttrRef::new(RelId(0), 0)];
        let before = cache.stamp(&fp);
        cache.invalidate_columns(&mut Locked::root(), &fp);
        assert!(!cache.filled.load(Ordering::SeqCst));
        assert_eq!(cache.epoch(), 1);
        assert_ne!(cache.stamp(&fp), before);
        cache.insert(
            &mut Locked::root(),
            "stale".into(),
            quote(Price::dollars(1)),
            fp.clone(),
            before,
        );
        assert!(
            cache.filled.load(Ordering::SeqCst),
            "raised before the re-check"
        );
        assert_eq!(cache.len(&mut Locked::root()), 0);
        let s = cache.stamp(&fp);
        cache.insert(
            &mut Locked::root(),
            "q1".into(),
            quote(Price::dollars(1)),
            fp.clone(),
            s,
        );
        assert_eq!(cache.len(&mut Locked::root()), 1);
        cache.invalidate_columns(&mut Locked::root(), &fp);
        assert_eq!(cache.len(&mut Locked::root()), 0, "a filled cache is swept");
        cache.reset(&mut Locked::root());
        assert!(!cache.filled.load(Ordering::SeqCst));
    }

    #[test]
    fn keys_spread_over_shards() {
        let cache = cache();
        let fp = vec![AttrRef::new(RelId(0), 0)];
        let s = cache.stamp(&fp);
        for i in 0..256u64 {
            cache.insert(
                &mut Locked::root(),
                format!("Q{i}(x) :- R(x)"),
                quote(Price::cents(i)),
                fp.clone(),
                s,
            );
        }
        assert_eq!(cache.len(&mut Locked::root()), 256);
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.read(&mut Locked::root()).0.is_empty())
            .count();
        assert!(occupied > SHARDS / 2, "fx-hash should spread: {occupied}");
        for i in 0..256u64 {
            assert_eq!(
                cache
                    .get(&mut Locked::root(), &format!("Q{i}(x) :- R(x)"))
                    .unwrap()
                    .price,
                Price::cents(i)
            );
        }
    }
}
