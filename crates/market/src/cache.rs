//! The sharded quote cache.
//!
//! Quoting is idempotent between data/price updates, and markets see the
//! same queries repeatedly, so the common case should be a hash lookup.
//!
//! # Coherence
//!
//! A quote is a pure function of the instance and the price list
//! restricted to its **footprint** (Lemma 3.1): the columns its price is
//! derived from, every attribute of every relation the query mentions
//! (`qbdp_core::query_footprint`). A cached quote is sound exactly while
//! no write to its footprint has landed, and one rule keeps it so: the
//! cache is a field of the market's state, reached only through a guard
//! of the state lock.
//!
//! * A writer (data insert, price revision) holds the state write lock,
//!   so it has the cache by `&mut`:
//!   [`ShardedQuoteCache::invalidate_columns`] removes every entry whose
//!   footprint meets the columns it touched, and takes no lock. Entries
//!   whose footprint is disjoint from the write stay servable: repricing
//!   `R.X=a` does not evict cached quotes over `S`.
//! * A reader holds the state lock from lookup through pricing to fill.
//!   A lookup that misses returns a [`Miss`] that borrows the cache, and
//!   only a `Miss` can be filled, so a quote is filled under the same
//!   state-lock acquisition it was priced under: no write can land in
//!   between.
//!
//! Readers share the state lock, so the shards keep locks of their own
//! (level [`Shard`], the innermost): a batch of workers filling the
//! cache with different queries almost never touches the same shard.
//!
//! A **generation** counter is bumped once per mutation and exposed as
//! [`ShardedQuoteCache::epoch`]: the durable market's purchase path
//! revalidates quotes against it ("did *anything* change between
//! pricing and logging?"), and recovery rewinds it to 0.
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

/// Number of independently locked shards. Must be a power of two (shard
/// selection masks the key hash).
pub(crate) const SHARDS: usize = 16;

type ShardMap = FxHashMap<String, Entry>;

struct Entry {
    /// The columns the quote's price is derived from.
    footprint: Vec<AttrRef>,
    /// Served by clone: the query text and one `Arc` to the receipt this
    /// entry shares with every quote it serves, nothing per view.
    quote: MarketQuote,
}

/// A fixed array of lock-sharded maps from rendered (canonical) query
/// text to quotes and their footprints. See the module docs for the
/// coherence rule.
pub(crate) struct ShardedQuoteCache {
    /// Bumped once per mutation; the durable revalidation token.
    generation: u64,
    shards: [OrderedRwLock<ShardMap, Shard>; SHARDS],
}

/// A lookup that missed: the only way to fill its key. It borrows the
/// cache, and with it the state guard the lookup ran under.
pub(crate) struct Miss<'c> {
    shard: &'c OrderedRwLock<ShardMap, Shard>,
    key: String,
}

impl Miss<'_> {
    /// The rendered query that missed.
    pub(crate) fn key(&self) -> &str {
        &self.key
    }

    /// Cache `quote`, priced over `footprint` since the lookup missed.
    pub(crate) fn fill(
        self,
        token: &mut Locked<'_, impl LockBefore<Shard>>,
        quote: MarketQuote,
        footprint: Vec<AttrRef>,
    ) {
        self.shard
            .write(token)
            .0
            .insert(self.key, Entry { footprint, quote });
    }
}

impl ShardedQuoteCache {
    /// An empty cache at generation 0.
    pub(crate) fn new() -> Self {
        ShardedQuoteCache {
            generation: 0,
            shards: std::array::from_fn(|_| OrderedRwLock::new(FxHashMap::default())),
        }
    }

    fn shard(&self, key: &str) -> &OrderedRwLock<ShardMap, Shard> {
        let mut h = FxHasher::default();
        h.write(key.as_bytes());
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// The mutation generation. Bumped once per data/price update; the
    /// durable purchase path uses it to detect *any* intervening change.
    pub(crate) fn epoch(&self) -> u64 {
        self.generation
    }

    /// Look up the quote cached under `key`, or the [`Miss`] that fills
    /// it.
    pub(crate) fn get(
        &self,
        token: &mut Locked<'_, impl LockBefore<Shard>>,
        key: String,
    ) -> Result<MarketQuote, Miss<'_>> {
        let shard = self.shard(&key);
        let hit = shard.read(token).0.get(&key).map(|e| e.quote.clone());
        qbdp_obs::record(
            if hit.is_some() {
                qbdp_obs::Ctr::MarketCacheHits
            } else {
                qbdp_obs::Ctr::MarketCacheMisses
            },
            1,
        );
        hit.ok_or(Miss { shard, key })
    }

    /// Remove every cached quote whose footprint intersects `attrs`, and
    /// bump the generation. Entries disjoint from `attrs` stay servable.
    pub(crate) fn invalidate_columns(&mut self, attrs: &[AttrRef]) {
        qbdp_obs::record(qbdp_obs::Ctr::MarketInvalidations, 1);
        qbdp_obs::record(qbdp_obs::Ctr::MarketColumnsInvalidated, attrs.len() as u64);
        self.generation += 1;
        for shard in &mut self.shards {
            shard
                .get_mut()
                .retain(|_, e| !e.footprint.iter().any(|f| attrs.contains(f)));
        }
    }

    /// Total cached quotes across all shards (test/introspection aid).
    pub(crate) fn len(&self, token: &mut Locked<'_, impl LockBefore<Shard>>) -> usize {
        self.shards.iter().map(|s| s.read(token).0.len()).sum()
    }

    /// Clear the shards and rewind the generation to 0. Recovery uses
    /// this after replay, so a recovered market starts like a newly
    /// opened one.
    pub(crate) fn reset(&mut self) {
        self.generation = 0;
        for shard in &mut self.shards {
            shard.get_mut().clear();
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

    /// Look `key` up, which must miss, and fill it.
    fn fill(cache: &ShardedQuoteCache, key: &str, price: Price, footprint: Vec<AttrRef>) {
        let Err(miss) = cache.get(&mut Locked::root(), key.into()) else {
            panic!("{key} was already cached");
        };
        miss.fill(&mut Locked::root(), quote(price), footprint);
    }

    fn get(cache: &ShardedQuoteCache, key: &str) -> Option<Price> {
        cache
            .get(&mut Locked::root(), key.into())
            .ok()
            .map(|q| q.price)
    }

    #[test]
    fn serves_until_a_footprint_column_is_invalidated() {
        let mut cache = ShardedQuoteCache::new();
        let fp = vec![AttrRef::new(RelId(0), 0)];
        fill(&cache, "q1", Price::dollars(1), fp.clone());
        assert_eq!(get(&cache, "q1"), Some(Price::dollars(1)));
        cache.invalidate_columns(&fp);
        assert_eq!(
            get(&cache, "q1"),
            None,
            "an invalidated entry must not serve"
        );
        assert_eq!(
            cache.len(&mut Locked::root()),
            0,
            "the sweep removed the touched entry"
        );
    }

    #[test]
    fn disjoint_entries_survive_invalidation() {
        let mut cache = ShardedQuoteCache::new();
        let over_r = vec![AttrRef::new(RelId(0), 0), AttrRef::new(RelId(0), 1)];
        let over_s = vec![AttrRef::new(RelId(1), 0), AttrRef::new(RelId(1), 1)];
        fill(&cache, "qr", Price::dollars(1), over_r);
        fill(&cache, "qs", Price::dollars(2), over_s);
        // Touching an R column kills the R quote but leaves the S quote
        // servable — the whole point of column-scoped invalidation.
        cache.invalidate_columns(&[AttrRef::new(RelId(0), 1)]);
        assert_eq!(get(&cache, "qr"), None);
        assert_eq!(get(&cache, "qs"), Some(Price::dollars(2)));
        assert_eq!(cache.len(&mut Locked::root()), 1);
    }

    #[test]
    fn generation_counts_every_mutation() {
        let mut cache = ShardedQuoteCache::new();
        assert_eq!(cache.epoch(), 0);
        fill(
            &cache,
            "q1",
            Price::dollars(1),
            vec![AttrRef::new(RelId(1), 1)],
        );
        cache.invalidate_columns(&[AttrRef::new(RelId(0), 0)]);
        cache.invalidate_columns(&[AttrRef::new(RelId(1), 0)]);
        assert_eq!(cache.epoch(), 2, "one bump per mutation, any column");
        assert_eq!(cache.len(&mut Locked::root()), 1);
        cache.reset();
        assert_eq!(cache.epoch(), 0, "recovery rewinds to a cold cache");
        assert_eq!(cache.len(&mut Locked::root()), 0);
    }

    #[test]
    fn keys_spread_over_shards() {
        let cache = ShardedQuoteCache::new();
        let fp = vec![AttrRef::new(RelId(0), 0)];
        for i in 0..256u64 {
            fill(
                &cache,
                &format!("Q{i}(x) :- R(x)"),
                Price::cents(i),
                fp.clone(),
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
                get(&cache, &format!("Q{i}(x) :- R(x)")),
                Some(Price::cents(i))
            );
        }
    }
}
