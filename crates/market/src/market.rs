//! The [`Market`]: quotes, purchases, and live updates over the pricing
//! engine, behind a `parking_lot::RwLock`.
//!
//! # Resource governance
//!
//! A [`MarketPolicy`] bounds every quote: an optional wall-clock deadline
//! and/or fuel budget per pricing call, whether budget-degraded
//! (upper-bound) quotes may be sold at all, and an admission cap on
//! concurrent in-flight quotes. Pricing runs inside `catch_unwind`, so a
//! panicking engine surfaces as [`MarketError::Internal`] and the market
//! keeps serving subsequent requests.

// The workspace-wide lock hierarchy, outermost first. `wal` lives in the
// durable layer, the rest here; any path acquiring against this order is
// an R7 cycle at the next audit run.
// audit: lock-order(wal < state < plan < cache-shard)
use crate::cache::ShardedQuoteCache;
use crate::error::MarketError;
use crate::ledger::Ledger;
use parking_lot::{Mutex, RwLock};
use qbdp_catalog::{AttrRef, Catalog, Instance, QdpFile, RelId, Tuple};
use qbdp_core::dichotomy::QueryClass;
use qbdp_core::price_points::PriceList;
use qbdp_core::{
    query_footprint, Budget, PlanCache, PlanStats, Price, Pricer, PricingMethod, QuoteQuality,
};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::ast::{ConjunctiveQuery, Ucq};
use qbdp_query::bundle::Bundle;
use qbdp_query::parser::parse_rule;
use qbdp_query::pretty;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Per-market resource policy, applied to every pricing call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarketPolicy {
    /// Wall-clock deadline per quote; `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Work-unit fuel per quote; `None` = unlimited.
    pub fuel: Option<u64>,
    /// Whether budget-degraded (sound upper-bound) quotes may be sold.
    /// When `false`, a quote whose budget ran out is refused with
    /// [`MarketError::DeadlineExceeded`] instead.
    pub sell_degraded: bool,
    /// Maximum concurrently in-flight quote/purchase/explain requests;
    /// excess requests are refused with [`MarketError::Overloaded`]. A
    /// batch of `k` queries counts as `k` in-flight requests, not 1.
    pub max_in_flight: usize,
    /// Worker threads used by [`Market::quote_batch`]; `0` means one per
    /// available core.
    pub batch_workers: usize,
    /// Serve serial quotes through the incremental pricing engine (the
    /// shape-keyed [`PlanCache`]): a repeated query shape under a changed
    /// price vector is repriced by a residual warm start instead of a
    /// cold solve, with bit-identical results. Only unlimited-budget
    /// quotes go through the plan cache (a fuel or deadline policy prices
    /// cold, so degraded `[lower, upper]` intervals are unaffected by
    /// this flag). An in-process serving knob: it is not persisted by the
    /// durable market, and recovery resets it to `false`.
    pub incremental: bool,
    /// Turn on the process-wide telemetry pipeline (`qbdp-obs`): metric
    /// recording, per-quote trace spans, and the degraded-quote flight
    /// recorder. Off, every probe is a single relaxed atomic load. Like
    /// [`MarketPolicy::incremental`] this is an in-process serving knob:
    /// it is not persisted by the durable market, and recovery resets it
    /// to `false`.
    pub telemetry: bool,
}

impl Default for MarketPolicy {
    fn default() -> Self {
        MarketPolicy {
            deadline: None,
            fuel: None,
            sell_degraded: false,
            max_in_flight: usize::MAX,
            batch_workers: 0,
            incremental: false,
            telemetry: false,
        }
    }
}

impl MarketPolicy {
    /// A fresh [`Budget`] implementing this policy for `jobs` pricing
    /// calls: each job's fuel share equals the per-quote fuel (the batch
    /// pool splits the total), while the wall-clock deadline is shared —
    /// jobs run concurrently, so one deadline bounds them all.
    fn budget_for(&self, jobs: u64) -> Budget {
        match (self.fuel, self.deadline) {
            (None, None) => Budget::unlimited(),
            (Some(f), None) => Budget::with_fuel(f.saturating_mul(jobs)),
            (None, Some(d)) => Budget::with_deadline(d),
            (Some(f), Some(d)) => Budget::with_fuel_and_deadline(f.saturating_mul(jobs), d),
        }
    }

    /// A fresh [`Budget`] implementing this policy for one pricing call.
    fn budget(&self) -> Budget {
        self.budget_for(1)
    }
}

/// A buyer-facing quote.
#[derive(Clone, Debug)]
pub struct MarketQuote {
    /// The query, rendered back in datalog syntax.
    pub query: String,
    /// The arbitrage-price (or, for `UpperBound` quality, a sound
    /// arbitrage-free over-estimate of it).
    pub price: Price,
    /// Itemized receipt: the explicit views this price stands for, rendered.
    pub receipt: Vec<String>,
    /// The raw views (for programmatic consumers).
    pub views: Vec<SelectionView>,
    /// Which engine priced it.
    pub method: PricingMethod,
    /// The query's dichotomy class.
    pub class: QueryClass,
    /// Whether the price is exact or a budget-degraded upper bound.
    pub quality: QuoteQuality,
    /// Sound lower bound on the true arbitrage-price.
    pub lower_bound: Price,
}

/// A completed purchase: the quote plus the delivered answer.
#[derive(Clone, Debug)]
pub struct Purchase {
    /// Ledger transaction id.
    pub transaction_id: u64,
    /// The quote honoured.
    pub quote: MarketQuote,
    /// The answer tuples, sorted for determinism.
    pub answer: Vec<Tuple>,
}

struct State {
    pricer: Pricer,
    ledger: Ledger,
    policy: MarketPolicy,
}

/// A thread-safe, query-priced data marketplace.
pub struct Market {
    state: RwLock<State>,
    /// Quote cache keyed by the *rendered* query (canonical form). Lives
    /// outside the state lock — lookups and fills take only a per-shard
    /// lock — and is kept coherent with the data via per-column epoch
    /// tagging (see [`crate::cache`]). Only `Exact`-quality quotes are
    /// cached — a degraded quote is an artifact of one budget run, not
    /// of the data.
    cache: ShardedQuoteCache,
    /// The incremental pricing engine: shape-keyed normalized plans plus
    /// solved flow networks, repriced by residual warm starts
    /// ([`MarketPolicy::incremental`]). Guarded by its own mutex, locked
    /// *after* the state lock (never the other way around); pricing
    /// through it happens while the caller holds the state read lock, so
    /// the plans it patches always describe the live catalog/instance.
    plan: Mutex<PlanCache>,
    in_flight: AtomicUsize,
}

/// Releases its admission slots on drop.
struct InFlightGuard<'a> {
    in_flight: &'a AtomicUsize,
    slots: usize,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let prev = self.in_flight.fetch_sub(self.slots, Ordering::Relaxed);
        qbdp_obs::record_gauge(
            qbdp_obs::Gauge::InFlight,
            prev.saturating_sub(self.slots) as u64,
        );
    }
}

/// Run a pricing or evaluation call with panics contained at the market
/// boundary. The lock is not poisoned (parking_lot) and nothing was
/// mutated, so the market keeps serving after reporting the failure.
fn contain_panic<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<T, MarketError>
where
    MarketError: From<E>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => Ok(result?),
        Err(payload) => {
            qbdp_obs::record(qbdp_obs::Ctr::MarketPanicsContained, 1);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "pricing engine panicked".to_string());
            Err(MarketError::Internal(msg))
        }
    }
}

/// Telemetry epilogue for the serial serving paths: close the trace,
/// record the latency histogram and outcome counters, and hand the span
/// tree to the flight recorder when the quote went wrong (degraded,
/// refused-degraded, panicked) or crossed the slow threshold. Free when
/// telemetry is off: the stopwatch never read the clock and the trace
/// was never begun.
fn observe_served(
    query: &str,
    sw: qbdp_obs::Stopwatch,
    hist: qbdp_obs::Hst,
    served: qbdp_obs::Ctr,
    quote: Option<&MarketQuote>,
    err: Option<&MarketError>,
) {
    use qbdp_obs::flight::{self, Why};
    let spans = qbdp_obs::trace::finish();
    let Some(us) = sw.stop(hist) else { return };
    match (quote, err) {
        (Some(q), _) => {
            qbdp_obs::record(served, 1);
            if !q.quality.is_exact() {
                qbdp_obs::record(qbdp_obs::Ctr::MarketQuotesDegraded, 1);
                flight::capture(
                    Why::Degraded,
                    query,
                    us,
                    format!(
                        "sold upper bound; true price in [{}, {}]",
                        q.lower_bound, q.price
                    ),
                    spans,
                );
            } else if us >= flight::slow_threshold_us() {
                flight::capture(Why::Slow, query, us, String::new(), spans);
            }
        }
        (None, Some(MarketError::Internal(msg))) => {
            flight::capture(Why::Panicked, query, us, msg.clone(), spans);
        }
        (None, Some(MarketError::DeadlineExceeded)) => {
            qbdp_obs::record(qbdp_obs::Ctr::MarketQuotesDegraded, 1);
            flight::capture(
                Why::Degraded,
                query,
                us,
                "refused: budget exhausted and sell_degraded is off".to_string(),
                spans,
            );
        }
        _ => {}
    }
}

impl Market {
    /// Open a market. Rejects price lists that admit arbitrage among the
    /// explicit price points (Proposition 3.2) — by Theorem 2.15 no valid
    /// pricing function would exist.
    pub fn open(
        catalog: Catalog,
        instance: Instance,
        prices: PriceList,
    ) -> Result<Market, MarketError> {
        let pricer = Pricer::new(catalog, instance, prices)?;
        let violations = pricer.check_consistency();
        if !violations.is_empty() {
            let rendered: Vec<String> = violations
                .iter()
                .take(3)
                .map(|v| v.display(pricer.catalog()))
                .collect();
            return Err(MarketError::InconsistentPrices(rendered.join("; ")));
        }
        let columns = pricer.catalog().schema().all_attrs();
        Ok(Market {
            state: RwLock::new(State {
                pricer,
                ledger: Ledger::new(),
                policy: MarketPolicy::default(),
            }),
            cache: ShardedQuoteCache::new(columns),
            plan: Mutex::new(PlanCache::new()),
            in_flight: AtomicUsize::new(0),
        })
    }

    /// Replace the market's resource policy. The `telemetry` flag is
    /// applied to the process-wide `qbdp-obs` switch here — the one
    /// place serving policy and recording policy meet.
    // audit: holds-lock(state)
    pub fn set_policy(&self, policy: MarketPolicy) {
        qbdp_obs::set_enabled(policy.telemetry);
        self.state.write().policy = policy;
    }

    /// The current resource policy.
    // audit: holds-lock(state)
    pub fn policy(&self) -> MarketPolicy {
        self.state.read().policy
    }

    /// Claim one admission slot, or refuse with [`MarketError::Overloaded`].
    fn admit(&self, max: usize) -> Result<InFlightGuard<'_>, MarketError> {
        self.admit_many(1, max)
    }

    /// Claim `slots` admission slots atomically, or refuse with
    /// [`MarketError::Overloaded`]. A batch of `k` queries is `k` units of
    /// concurrent pricing work, so it must claim `k` slots — counting it
    /// as one would let `max_in_flight` be exceeded `k`-fold.
    fn admit_many(&self, slots: usize, max: usize) -> Result<InFlightGuard<'_>, MarketError> {
        let prev = self.in_flight.fetch_add(slots, Ordering::Relaxed);
        if prev.checked_add(slots).is_none_or(|total| total > max) {
            self.in_flight.fetch_sub(slots, Ordering::Relaxed);
            qbdp_obs::record(qbdp_obs::Ctr::MarketAdmissionRejects, 1);
            return Err(MarketError::Overloaded);
        }
        qbdp_obs::record_gauge(qbdp_obs::Gauge::InFlight, (prev + slots) as u64);
        Ok(InFlightGuard {
            in_flight: &self.in_flight,
            slots,
        })
    }

    /// Open a market from a `.qdp` document (schema, columns, tuples, and
    /// `price R.X=a <cents>` directives).
    pub fn open_qdp(text: &str) -> Result<Market, MarketError> {
        let file = QdpFile::parse(text).map_err(|e| MarketError::Update(e.to_string()))?;
        let mut prices = PriceList::new();
        for (attr, value, cents) in file.prices {
            prices.set(SelectionView::new(attr, value), Price::cents(cents));
        }
        Market::open(file.catalog, file.instance, prices)
    }

    /// Open (recover) a durable market persisted under `dir` — snapshot
    /// load plus write-ahead-log suffix replay. See [`crate::durable`].
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        fsync: qbdp_store::FsyncPolicy,
    ) -> Result<crate::durable::DurableMarket, MarketError> {
        crate::durable::DurableMarket::open(dir, fsync)
    }

    /// Quote a query given in datalog syntax
    /// (`"Q(x, y) :- R(x), S(x, y)"`). Exact quotes are cached until the
    /// next data update.
    // audit: holds-lock(state)
    pub fn quote_str(&self, query: &str) -> Result<MarketQuote, MarketError> {
        let sw = qbdp_obs::Stopwatch::start();
        if qbdp_obs::enabled() {
            qbdp_obs::trace::begin();
        }
        let out = self.quote_str_inner(query);
        observe_served(
            query,
            sw,
            qbdp_obs::Hst::QuoteLatencyUs,
            qbdp_obs::Ctr::MarketQuotes,
            out.as_ref().ok(),
            out.as_ref().err(),
        );
        out
    }

    /// The uninstrumented body of [`Market::quote_str`].
    // audit: holds-lock(state)
    fn quote_str_inner(&self, query: &str) -> Result<MarketQuote, MarketError> {
        let state = self.state.read();
        let _slot = self.admit(state.policy.max_in_flight)?;
        let q = parse_rule(state.pricer.catalog().schema(), query)?;
        let key = pretty::render(&q, state.pricer.catalog().schema());
        let hit = {
            let mut span = qbdp_obs::trace::span("cache_lookup");
            let hit = self.cache.get(&key);
            span.detail(if hit.is_some() { "hit" } else { "miss" });
            hit
        };
        if let Some(hit) = hit {
            return Ok(hit);
        }
        // Compute the footprint stamp *under the read lock*: it names
        // exactly the data snapshot this quote is derived from, and the
        // cache will discard the insert if an update touching one of the
        // footprint's columns lands in between (caching it then would
        // serve stale prices until the *next* touching update).
        let footprint = query_footprint(state.pricer.catalog(), &q);
        let stamp = self.cache.stamp(&footprint);
        let quote = self.quote_inner(&state, &q)?;
        drop(state);
        if quote.quality.is_exact() {
            self.cache.insert(key, quote.clone(), footprint, stamp);
        }
        Ok(quote)
    }

    /// Quote a batch of datalog-syntax queries in one call, pricing cache
    /// misses in parallel on a scoped worker pool
    /// ([`MarketPolicy::batch_workers`] threads; `0` = one per core).
    ///
    /// Results are positionally aligned with `queries`; each slot fails
    /// independently (a parse error or contained engine panic poisons
    /// only its own slot). The whole batch is admitted as
    /// `queries.len()` in-flight requests against
    /// [`MarketPolicy::max_in_flight`] — all-or-nothing: an overloaded
    /// market refuses every slot with [`MarketError::Overloaded`]. Each
    /// job gets the policy's per-quote fuel; the wall-clock deadline is
    /// shared across the batch. Exact quotes (cache hits and fresh ones)
    /// are served from / fill the sharded cache.
    // audit: holds-lock(state)
    pub fn quote_batch(&self, queries: &[&str]) -> Vec<Result<MarketQuote, MarketError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let state = self.state.read();
        let slot = self.admit_many(queries.len(), state.policy.max_in_flight);
        if slot.is_err() {
            return queries
                .iter()
                .map(|_| Err(MarketError::Overloaded))
                .collect();
        }
        let schema = state.pricer.catalog().schema();
        let mut slots: Vec<Option<Result<MarketQuote, MarketError>>> = Vec::new();
        slots.resize_with(queries.len(), || None);
        // Parse every query and serve what the cache already has. Each
        // slot carries its *own* footprint stamp, computed at its own
        // lookup under the state read lock — one whole-batch stamp would
        // be wrong at both granularities (different queries have
        // different footprints, and a single load taken before the loop
        // could tag a late slot with an epoch older than the lookup that
        // missed for it).
        let mut misses: Vec<(usize, String, ConjunctiveQuery, Vec<AttrRef>, u64)> = Vec::new();
        for (i, text) in queries.iter().enumerate() {
            match parse_rule(schema, text) {
                Ok(q) => {
                    let key = pretty::render(&q, schema);
                    match self.cache.get(&key) {
                        Some(hit) => slots[i] = Some(Ok(hit)),
                        None => {
                            let footprint = query_footprint(state.pricer.catalog(), &q);
                            let stamp = self.cache.stamp(&footprint);
                            misses.push((i, key, q, footprint, stamp));
                        }
                    }
                }
                Err(e) => slots[i] = Some(Err(e.into())),
            }
        }
        // Fan the misses over the worker pool. Panic containment is per
        // job inside the pool, so `contain_panic` is not needed here.
        if !misses.is_empty() {
            let budget = state.policy.budget_for(misses.len() as u64);
            let workers = match state.policy.batch_workers {
                0 => qbdp_core::batch::default_workers(),
                n => n,
            };
            let bundles: Vec<Bundle> = misses
                .iter()
                .map(|(_, _, q, _, _)| Bundle::single(Ucq::single(q.clone())))
                .collect();
            let priced = state
                .pricer
                .price_batch_with_workers(&bundles, &budget, workers);
            for ((i, key, q, footprint, stamp), result) in misses.into_iter().zip(priced) {
                let finished = result
                    .map_err(|e| match e {
                        // The pool contains per-job panics as
                        // `PricingError::Internal`; surface them the same
                        // way `contain_panic` does on the serial path.
                        qbdp_core::PricingError::Internal(m) => MarketError::Internal(m),
                        other => MarketError::Pricing(other),
                    })
                    .and_then(|quote| Self::finish_quote(&state, &q, quote));
                if let Ok(mq) = &finished {
                    if mq.quality.is_exact() {
                        self.cache.insert(key, mq.clone(), footprint, stamp);
                    }
                }
                slots[i] = Some(finished);
            }
        }
        if qbdp_obs::enabled() {
            for q in slots.iter().flatten().flatten() {
                qbdp_obs::record(qbdp_obs::Ctr::MarketQuotes, 1);
                if !q.quality.is_exact() {
                    qbdp_obs::record(qbdp_obs::Ctr::MarketQuotesDegraded, 1);
                }
            }
        }
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    Err(MarketError::Internal(
                        "batch slot was never filled".to_string(),
                    ))
                })
            })
            .collect()
    }

    /// Quote a parsed query (uncached path).
    // audit: holds-lock(state)
    pub fn quote(&self, q: &ConjunctiveQuery) -> Result<MarketQuote, MarketError> {
        let state = self.state.read();
        let _slot = self.admit(state.policy.max_in_flight)?;
        self.quote_inner(&state, q)
    }

    /// Price one query under the current policy. The incremental path
    /// (plan cache + warm start) serves only unlimited-budget quotes:
    /// under a fuel or deadline policy every quote is priced cold, so
    /// degraded `[lower, upper]` intervals come from exactly the same
    /// computation whether `incremental` is set or not.
    // audit: holds-lock(plan)
    fn quote_inner(&self, state: &State, q: &ConjunctiveQuery) -> Result<MarketQuote, MarketError> {
        let policy = state.policy;
        let quote = if policy.incremental && policy.fuel.is_none() && policy.deadline.is_none() {
            let mut plan = self.plan.lock();
            // A panic mid-reprice is contained: `PlanCache::quote` takes
            // the entry out of the map before mutating it, so the
            // poisonable state unwinds away with the panic.
            contain_panic(|| state.pricer.price_cq_with_plan(q, &mut plan))?
        } else {
            let budget = policy.budget();
            contain_panic(|| state.pricer.price_cq_within(q, &budget))?
        };
        Self::finish_quote(state, q, quote)
    }

    /// Apply market policy to a raw engine quote and dress it up for the
    /// buyer (shared by the serial and batch paths, so a batched quote is
    /// indistinguishable from a serial one).
    fn finish_quote(
        state: &State,
        q: &ConjunctiveQuery,
        quote: qbdp_core::Quote,
    ) -> Result<MarketQuote, MarketError> {
        if quote.price.is_infinite() {
            return Err(MarketError::NotForSale);
        }
        if !quote.quality.is_exact() && !state.policy.sell_degraded {
            return Err(MarketError::DeadlineExceeded);
        }
        let schema = state.pricer.catalog().schema();
        let receipt = quote
            .views
            .iter()
            .map(|v| format!("{} @ {}", v.display(schema), state.pricer.prices().get(v)))
            .collect();
        Ok(MarketQuote {
            query: pretty::render(q, schema),
            price: quote.price,
            receipt,
            views: quote.views,
            method: quote.method,
            class: quote.class,
            quality: quote.quality,
            lower_bound: quote.lower_bound,
        })
    }

    /// Purchase a query (datalog syntax): quote, evaluate, record, deliver.
    // audit: holds-lock(state)
    pub fn purchase_str(&self, query: &str) -> Result<Purchase, MarketError> {
        let sw = qbdp_obs::Stopwatch::start();
        if qbdp_obs::enabled() {
            qbdp_obs::trace::begin();
        }
        let out = self.purchase_str_inner(query);
        observe_served(
            query,
            sw,
            qbdp_obs::Hst::PurchaseLatencyUs,
            qbdp_obs::Ctr::MarketPurchases,
            out.as_ref().ok().map(|p| &p.quote),
            out.as_ref().err(),
        );
        out
    }

    /// The uninstrumented body of [`Market::purchase_str`].
    // audit: holds-lock(state)
    fn purchase_str_inner(&self, query: &str) -> Result<Purchase, MarketError> {
        let mut state = self.state.write();
        let _slot = self.admit(state.policy.max_in_flight)?;
        let q = parse_rule(state.pricer.catalog().schema(), query)?;
        let quote = self.quote_inner(&state, &q)?;
        // Evaluation runs the same buyer-controlled query the pricing
        // engine just priced; a panic here must not unwind through the
        // serving thread any more than a pricing panic may (the quote
        // paths already contain those).
        let mut answer: Vec<Tuple> =
            contain_panic(|| qbdp_query::eval::eval_cq(&q, state.pricer.instance()))?
                .into_iter()
                .collect();
        answer.sort();
        let transaction_id = state.ledger.record_sale(
            quote.query.clone(),
            quote.price,
            answer.len(),
            quote.views.len(),
        );
        Ok(Purchase {
            transaction_id,
            quote,
            answer,
        })
    }

    /// Seller-side data insertion (§2.7). Prices stay fixed; consistency is
    /// automatic for selection-view lists.
    // audit: holds-lock(state)
    pub fn insert(
        &self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, MarketError> {
        let mut state = self.state.write();
        let rel: RelId = state
            .pricer
            .catalog()
            .schema()
            .rel_id(relation)
            .ok_or_else(|| MarketError::Update(format!("unknown relation {relation}")))?;
        let added = state
            .pricer
            // audit: allow(R7: core's instance-data insert — a name collision with the durable market's `insert`, no lock behind it)
            .insert(rel, tuples)
            .map_err(|e| MarketError::Update(e.to_string()))?;
        // Invalidate while still holding the write lock, so the epoch
        // bumps are ordered with the data mutation (see `crate::cache`).
        // Scope: every column of the inserted relation — a quote's
        // footprint contains all columns of every relation it mentions,
        // so this reaches exactly the quotes that could see the new
        // tuples; quotes over disjoint relations stay cached. Plans are
        // evicted rather than patched: new tuples change the flow
        // network's topology, not just its capacities.
        let arity = state.pricer.catalog().schema().relation(rel).arity();
        let touched: Vec<AttrRef> = (0..arity).map(|i| AttrRef::new(rel, i as u32)).collect();
        self.cache.invalidate_columns(&touched);
        self.plan.lock().invalidate_rels(&[rel]);
        state.ledger.record_update(relation.to_string(), added);
        Ok(added)
    }

    /// Number of quotes currently held in the sharded cache (inspection
    /// aid; the count is momentary under concurrency).
    pub fn cached_quotes(&self) -> usize {
        self.cache.len()
    }

    /// The quote cache's current mutation generation: 0 for a fresh (or
    /// freshly recovered) market, bumped by every data/price mutation.
    /// Exposed so the durable purchase path can revalidate a quote
    /// against *any* intervening change, and so durability tests can
    /// assert a recovered market starts from 0 rather than inheriting
    /// replay bumps.
    pub fn cache_epoch(&self) -> u64 {
        self.cache.epoch()
    }

    /// Counters from the incremental pricing engine: plan-cache hits,
    /// misses, warm reprices, flow fallbacks, and evictions. All zero
    /// unless [`MarketPolicy::incremental`] is set.
    // audit: holds-lock(plan)
    pub fn plan_stats(&self) -> PlanStats {
        self.plan.lock().stats()
    }

    /// Clear the quote and plan caches and rewind every epoch to 0
    /// (recovery epilogue). Plans are rebuilt lazily from the recovered
    /// catalog/instance on the first incremental quote of each shape.
    // audit: holds-lock(plan)
    pub(crate) fn reset_cache(&self) {
        self.cache.reset();
        self.plan.lock().clear();
    }

    /// Quote and evaluate a purchase without recording it — the durable
    /// path splits purchasing into (price, log, apply) so the WAL entry
    /// is written *between* pricing and the ledger mutation.
    // audit: holds-lock(state)
    pub(crate) fn evaluate_purchase(
        &self,
        query: &str,
    ) -> Result<(MarketQuote, Vec<Tuple>), MarketError> {
        let state = self.state.read();
        let _slot = self.admit(state.policy.max_in_flight)?;
        let q = parse_rule(state.pricer.catalog().schema(), query)?;
        let quote = self.quote_inner(&state, &q)?;
        // Same containment as `purchase_str_inner`: the durable path's
        // evaluation must not unwind through `purchase_str`.
        let mut answer: Vec<Tuple> =
            contain_panic(|| qbdp_query::eval::eval_cq(&q, state.pricer.instance()))?
                .into_iter()
                .collect();
        answer.sort();
        Ok((quote, answer))
    }

    /// Record a sale whose terms are already known (durable live path
    /// and WAL replay), with checked revenue arithmetic.
    // audit: holds-lock(state)
    pub(crate) fn apply_recorded_sale(
        &self,
        query: String,
        price: Price,
        answer_tuples: usize,
        views: usize,
    ) -> Result<u64, MarketError> {
        let mut state = self.state.write();
        state
            .ledger
            .record_sale_checked(query, price, answer_tuples, views)
            .ok_or(MarketError::RevenueOverflow)
    }

    /// Replace the ledger wholesale (snapshot restore).
    // audit: holds-lock(state)
    pub(crate) fn restore_ledger(&self, ledger: Ledger) {
        self.state.write().ledger = ledger;
    }

    /// Snapshot of the running revenue.
    // audit: holds-lock(state)
    pub fn revenue(&self) -> Price {
        self.state.read().ledger.revenue()
    }

    /// Number of completed sales.
    // audit: holds-lock(state)
    pub fn sales(&self) -> usize {
        self.state.read().ledger.sales()
    }

    /// Run a closure over the ledger (snapshot access without cloning).
    // audit: holds-lock(state)
    pub fn with_ledger<R>(&self, f: impl FnOnce(&Ledger) -> R) -> R {
        f(&self.state.read().ledger)
    }

    /// Run a closure over the pricer (schema/catalog introspection).
    // audit: holds-lock(state)
    pub fn with_pricer<R>(&self, f: impl FnOnce(&Pricer) -> R) -> R {
        f(&self.state.read().pricer)
    }

    /// A full explanation of a quote (class, engine, itemized receipt).
    // audit: holds-lock(state)
    pub fn explain_str(&self, query: &str) -> Result<String, MarketError> {
        let state = self.state.read();
        let _slot = self.admit(state.policy.max_in_flight)?;
        let q = parse_rule(state.pricer.catalog().schema(), query)?;
        let budget = state.policy.budget();
        let quote = contain_panic(|| state.pricer.price_cq_within(&q, &budget))?;
        Ok(quote.explain(state.pricer.catalog(), state.pricer.prices()))
    }

    /// Seller-side price revision: set (or add) the price of one selection
    /// view, in place. The revised list must remain arbitrage-free
    /// (Proposition 3.2, checked on the view's relation only) or the
    /// update is rejected and nothing changes. Quotes whose footprint
    /// holds the revised column are re-derived from the new list.
    // audit: holds-lock(state)
    pub fn set_price(&self, view: &str, price: Price) -> Result<(), MarketError> {
        let mut state = self.state.write();
        // `view` syntax: `R.X=a`.
        let (attr, value) = view.split_once('=').ok_or_else(|| {
            MarketError::Update(format!("price selector must be `R.X=a`, got `{view}`"))
        })?;
        let aref = state
            .pricer
            .catalog()
            .schema()
            .resolve_attr(attr.trim())
            .map_err(|e| MarketError::Update(e.to_string()))?;
        let value = qbdp_catalog::Value::parse_literal(value)
            .ok_or_else(|| MarketError::Update(format!("bad value in `{view}`")))?;
        if !state.pricer.catalog().column(aref).contains(&value) {
            return Err(MarketError::Update(format!(
                "value {value} is outside the column of {attr}"
            )));
        }
        // Re-check Prop 3.2 on the revised relation only; a rejected
        // revision leaves the list untouched.
        state
            .pricer
            .revise_price(SelectionView::new(aref, value), price)
            .map_err(|v| MarketError::InconsistentPrices(v.display(state.pricer.catalog())))?;
        // Only quotes whose footprint contains the revised column can
        // change; everything disjoint stays cached. The plan cache needs
        // no eviction here — it diffs its stored price vector against
        // the live one on every lookup and warm-starts (or rebuilds)
        // itself when they differ.
        self.cache.invalidate_columns(&[aref]);
        Ok(())
    }

    /// Serialize the market's current state (catalog, data, prices) back to
    /// `.qdp` text — reopening it reproduces the same prices.
    // audit: holds-lock(state)
    pub fn to_qdp(&self) -> String {
        let state = self.state.read();
        let pricer = &state.pricer;
        let prices = pricer
            .prices()
            .iter()
            .map(|(v, p)| (v.attr, v.value, p.as_cents()))
            .collect();
        let file = QdpFile {
            catalog: pricer.catalog().clone(),
            instance: pricer.instance().clone(),
            prices,
        };
        file.to_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::tuple;

    const FIG1_QDP: &str = r#"
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

    #[test]
    fn figure1_market_end_to_end() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let quote = market.quote_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        assert_eq!(quote.price, Price::dollars(6));
        assert_eq!(quote.receipt.len(), 6);
        let purchase = market
            .purchase_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap();
        assert_eq!(purchase.answer, vec![tuple!["a1", "b1"]]);
        assert_eq!(market.revenue(), Price::dollars(6));
        assert_eq!(market.sales(), 1);
    }

    #[test]
    fn unsellable_query_rejected() {
        // Remove all T prices: queries over T are not for sale.
        let qdp: String = FIG1_QDP
            .lines()
            .filter(|l| !l.starts_with("price T"))
            .collect::<Vec<_>>()
            .join("\n");
        let market = Market::open_qdp(&qdp).unwrap();
        let err = market.quote_str("Q(y) :- T(y)");
        assert!(matches!(err, Err(MarketError::NotForSale)));
        // But R-only queries still work.
        assert!(market.quote_str("Q(x) :- R(x)").is_ok());
    }

    #[test]
    fn arbitrage_priced_lists_rejected_at_open() {
        // σ_{S.X=a1} at $100 vs full cover of S.Y at... raise S.X=a1 price
        // beyond Σ_{S.Y} = $3.
        let qdp = FIG1_QDP.replace("price S.X=a1 100", "price S.X=a1 99999");
        let err = Market::open_qdp(&qdp);
        assert!(matches!(err, Err(MarketError::InconsistentPrices(_))));
    }

    #[test]
    fn insertions_update_prices_monotonically() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let before = market
            .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap()
            .price;
        market.insert("T", [tuple!["b2"]]).unwrap();
        let after = market
            .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap()
            .price;
        assert!(after >= before, "price dropped: {before} -> {after}");
        // Two new answers appear: (a1, b2) and (a2, b2).
        let p = market
            .purchase_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap();
        assert_eq!(p.answer.len(), 3);
    }

    #[test]
    fn seller_price_revisions_validated() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let q = "Q(x, y) :- R(x), S(x, y), T(y)";
        assert_eq!(market.quote_str(q).unwrap().price, Price::dollars(6));
        // A discount on σ_{S.Y=b1} flows into the derived price.
        market.set_price("S.Y=b1", Price::cents(25)).unwrap();
        assert_eq!(market.quote_str(q).unwrap().price, Price::cents(525));
        // An inconsistent revision is rejected atomically: σ_{S.X=a1}
        // above the full cover of S.Y ($2.25 now).
        let err = market.set_price("S.X=a1", Price::dollars(3));
        assert!(matches!(err, Err(MarketError::InconsistentPrices(_))));
        assert_eq!(market.quote_str(q).unwrap().price, Price::cents(525));
        // Garbage selectors rejected.
        assert!(market.set_price("S.X", Price::ZERO).is_err());
        assert!(market.set_price("S.X=zz", Price::ZERO).is_err());
        assert!(market.set_price("Nope.X=a1", Price::ZERO).is_err());
    }

    #[test]
    fn quote_cache_hits_and_invalidates() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let q = "Q(x, y) :- R(x), S(x, y), T(y)";
        let first = market.quote_str(q).unwrap();
        // Cached: same (equivalent) query, different whitespace.
        let second = market.quote_str("Q(x,y) :- R(x), S(x,y), T(y)").unwrap();
        assert_eq!(first.price, second.price);
        assert_eq!(first.views, second.views);
        // Insertion invalidates: price may change (and here does).
        market.insert("T", [tuple!["b2"]]).unwrap();
        let third = market.quote_str(q).unwrap();
        assert!(
            third.price > first.price,
            "{} !> {}",
            third.price,
            first.price
        );
    }

    #[test]
    fn quote_batch_matches_serial_and_fills_cache() {
        let queries = [
            "Q(x, y) :- R(x), S(x, y), T(y)",
            "Q(x) :- R(x)",
            "Q(y) :- T(y)",
            "Q(x, y) :- S(x, y)",
        ];
        // Serial reference prices from an identical, separate market so
        // the batched market starts with a cold cache.
        let reference = Market::open_qdp(FIG1_QDP).unwrap();
        let serial: Vec<Price> = queries
            .iter()
            .map(|q| reference.quote_str(q).unwrap().price)
            .collect();
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        assert_eq!(market.cached_quotes(), 0);
        let batch = market.quote_batch(&queries);
        let batch_prices: Vec<Price> = batch.into_iter().map(|r| r.unwrap().price).collect();
        // S(a3, b3) joins nothing priced here, so prices are unchanged.
        assert_eq!(batch_prices, serial);
        assert_eq!(market.cached_quotes(), queries.len());
        // Second batch is served from the cache (same prices).
        let again: Vec<Price> = market
            .quote_batch(&queries)
            .into_iter()
            .map(|r| r.unwrap().price)
            .collect();
        assert_eq!(again, serial);
    }

    #[test]
    fn quote_batch_isolates_per_slot_failures() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let out = market.quote_batch(&["Q(x) :- R(x)", "not a rule at all", "Q(y) :- T(y)"]);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(MarketError::Query(_))), "{:?}", out[1]);
        assert!(out[2].is_ok());
    }

    /// Regression: a batch of `k` queries must count as `k` in-flight
    /// jobs against `max_in_flight`, not 1 — otherwise one batch call
    /// could run `k` concurrent pricing jobs past the admission cap.
    #[test]
    fn batch_admission_counts_every_query() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        market.set_policy(MarketPolicy {
            max_in_flight: 2,
            ..MarketPolicy::default()
        });
        let queries = ["Q(x) :- R(x)", "Q(y) :- T(y)", "Q(x, y) :- S(x, y)"];
        let refused = market.quote_batch(&queries);
        assert_eq!(refused.len(), 3);
        for slot in &refused {
            assert!(matches!(slot, Err(MarketError::Overloaded)), "{slot:?}");
        }
        // A batch within the cap is admitted, and the refused batch
        // released its (tentative) slots.
        let ok = market.quote_batch(&queries[..2]);
        assert!(ok.iter().all(|r| r.is_ok()));
        // Serial quoting still works afterwards: no slots leaked.
        assert!(market.quote_str("Q(x) :- R(x)").is_ok());
    }

    #[test]
    fn empty_batch_is_empty() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        assert!(market.quote_batch(&[]).is_empty());
    }

    #[test]
    fn explain_narrates_the_quote() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let text = market
            .explain_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap();
        assert!(text.contains("GeneralizedChain"), "{text}");
        assert!(text.contains("price           : $6.00"), "{text}");
        assert!(text.contains("σ[S.Y=b1] @ $1.00"), "{text}");
        assert!(text.contains("arbitrage-freeness"), "{text}");
    }

    #[test]
    fn qdp_roundtrip_preserves_prices() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        market.insert("T", [tuple!["b2"]]).unwrap();
        let before = market
            .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap()
            .price;
        let saved = market.to_qdp();
        let reopened = Market::open_qdp(&saved).unwrap();
        let after = reopened
            .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap()
            .price;
        assert_eq!(before, after);
    }

    #[test]
    fn bad_updates_rejected() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        assert!(market.insert("Nope", [tuple!["a1"]]).is_err());
        assert!(market.insert("R", [tuple!["outside-column"]]).is_err());
        // State unchanged: the query still quotes at $6.
        assert_eq!(
            market
                .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
                .unwrap()
                .price,
            Price::dollars(6)
        );
    }
}
