//! The [`Market`]: quotes, purchases, and live updates over the pricing
//! engine, behind an ordered reader-writer lock (see [`crate::lock`]).
//!
//! # One quote pipeline
//!
//! Every quote — [`Market::quote_str`] (a batch of one),
//! [`Market::quote_batch`], and the pricing half of both purchase paths —
//! runs through one private pipeline: admit the requests against
//! [`MarketPolicy::max_in_flight`], parse each query and look it up in
//! the sharded quote cache, price each miss in one job function
//! (`Market::price_miss`, the only place the market prices) on the
//! batch worker pool, then finish each quote, fill the cache, and hand
//! it to the caller. Each request is traced on its own — the trace
//! follows a miss onto its pool worker — so every served quote records
//! `QuoteLatencyUs`, and a slow, degraded, or panicked one hands its span
//! tree to the flight recorder.
//!
//! # Resource governance
//!
//! A [`MarketPolicy`] bounds every quote: an optional wall-clock deadline
//! and/or fuel budget per pricing call, whether budget-degraded
//! (upper-bound) quotes may be sold at all, and an admission cap on
//! concurrent in-flight quotes. Pricing runs inside `catch_unwind`, so a
//! panicking engine surfaces as [`MarketError::Internal`] and the market
//! keeps serving subsequent requests.
//!
//! # Locks
//!
//! The state lock comes first, then the plan mutex, then a cache shard;
//! the durable layer's WAL comes before all three. Each lock carries its
//! level from [`crate::lock`], and the pricer is reachable only through
//! a token that may price, so the order and the rule against pricing
//! under the WAL, the plan mutex or a shard are checked by the
//! compiler. The state lock taken under the WAL yields a token that may
//! not price, so the pipeline (which wants a [`lock::State`] token) and
//! the pricer are out of reach of every durable write. Crate-internal
//! `*_at` forms take the caller's token; their public forms mint a root
//! token.

use crate::error::MarketError;
use crate::ledger::Ledger;
use crate::lock::{self, LockBefore, Locked, MayPrice, OrderedMutex, OrderedRwLock};
use crate::receipt::Receipt;
use qbdp_catalog::qdp::CheckedQdp;
use qbdp_catalog::{AttrRef, Catalog, Instance, QdpFile, RelId, Tuple};
use qbdp_core::batch::{default_workers, fan_out, panic_message};
use qbdp_core::consistency::ListArbitrage;
use qbdp_core::dichotomy::QueryClass;
use qbdp_core::price_points::PriceList;
use qbdp_core::{
    price_planned, query_footprint, shape_key, Budget, PlanCache, PlanStats, Price, Pricer,
    PricingError, PricingMethod, QuoteQuality,
};
use qbdp_determinacy::selection::SelectionView;
use qbdp_obs::trace::{self, Span};
use qbdp_obs::{Ctr, Hst, Stopwatch};
use qbdp_query::ast::ConjunctiveQuery;
use qbdp_query::parser::parse_rule;
use qbdp_query::pretty;
use state::State;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
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
    /// Worker threads used to price a batch's cache misses; `0` means
    /// one per available core.
    pub batch_workers: usize,
    /// Turn on the process-wide telemetry pipeline (`qbdp-obs`): metric
    /// recording, per-quote trace spans, and the degraded-quote flight
    /// recorder. Off, every probe is a single relaxed atomic load. An
    /// in-process serving knob: it is not persisted by the durable
    /// market, and recovery resets it to `false`.
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
}

/// A buyer-facing quote.
#[derive(Clone, Debug)]
pub struct MarketQuote {
    /// The query, rendered back in datalog syntax.
    pub query: String,
    /// The arbitrage-price (or, for `UpperBound` quality, a sound
    /// arbitrage-free over-estimate of it).
    pub price: Price,
    /// The views this price stands for, at the prices they were quoted
    /// at; shared by every copy of the quote and its cache entry.
    pub(crate) receipt: Arc<Receipt>,
    /// Which engine priced it.
    pub method: PricingMethod,
    /// The query's dichotomy class.
    pub class: QueryClass,
    /// Whether the price is exact or a budget-degraded upper bound.
    pub quality: QuoteQuality,
    /// Sound lower bound on the true arbitrage-price.
    pub lower_bound: Price,
}

impl MarketQuote {
    /// Itemized receipt: one `σ[R.X=a] @ $1.00` line per view this price
    /// stands for, at the view's price when the quote was made. Rendered
    /// on the first call and shared with every copy of the quote.
    pub fn receipt(&self) -> &[String] {
        self.receipt.lines()
    }

    /// The views this price stands for (for programmatic consumers), in
    /// [`MarketQuote::receipt`]'s order.
    pub fn views(&self) -> &[SelectionView] {
        self.receipt.views()
    }
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

mod state {
    use super::MarketPolicy;
    use crate::cache::ShardedQuoteCache;
    use crate::ledger::Ledger;
    use crate::lock::{Locked, MayPrice};
    use qbdp_catalog::{Catalog, Instance, RelId, Tuple};
    use qbdp_core::consistency::ListArbitrage;
    use qbdp_core::price_points::PriceList;
    use qbdp_core::{Price, Pricer, PricingError};
    use qbdp_determinacy::selection::SelectionView;

    /// What the state lock guards. The pricer is private to this
    /// module: reaching it takes a token that may price, and the
    /// reference borrows that token, so it cannot stay alive across a
    /// plan or shard lock taken under it. Inserts and price revisions,
    /// which do not price, go through their own ungated methods, so a
    /// write applied under the WAL never holds a `&mut Pricer`.
    pub(super) struct State {
        pricer: Pricer,
        /// Quote cache keyed by the *rendered* query (canonical form).
        /// Held here so only a state guard reaches it: a write
        /// invalidates it by `&mut`, and a reader fills it under the
        /// guard it priced under (see [`crate::cache`]). Only
        /// `Exact`-quality quotes are cached — a degraded quote is an
        /// artifact of one budget run, not of the data.
        pub(super) cache: ShardedQuoteCache,
        pub(super) ledger: Ledger,
        pub(super) policy: MarketPolicy,
    }

    impl State {
        pub(super) fn new(pricer: Pricer) -> State {
            State {
                pricer,
                cache: ShardedQuoteCache::new(),
                ledger: Ledger::new(),
                policy: MarketPolicy::default(),
            }
        }

        /// The pricer, for a thread that may price.
        pub(super) fn pricer<'x>(&'x self, _token: &'x Locked<'_, impl MayPrice>) -> &'x Pricer {
            &self.pricer
        }

        /// Insert tuples into one relation ([`Pricer::insert`]).
        pub(super) fn insert(
            &mut self,
            rel: RelId,
            tuples: impl IntoIterator<Item = Tuple>,
        ) -> Result<usize, PricingError> {
            self.pricer.insert(rel, tuples)
        }

        /// Revise one view's price ([`Pricer::revise_price`]).
        pub(super) fn revise_price(
            &mut self,
            view: SelectionView,
            price: Price,
        ) -> Result<(), ListArbitrage> {
            self.pricer.revise_price(view, price)
        }

        /// The catalog, for schema lookups.
        pub(super) fn catalog(&self) -> &Catalog {
            self.pricer.catalog()
        }

        /// The instance, for serialization.
        pub(super) fn instance(&self) -> &Instance {
            self.pricer.instance()
        }

        /// The price list, for receipts.
        pub(super) fn prices(&self) -> &PriceList {
            self.pricer.prices()
        }
    }
}

/// A thread-safe, query-priced data marketplace.
pub struct Market {
    state: OrderedRwLock<State, lock::State>,
    /// The incremental pricing engine: shape-keyed normalized plans plus
    /// solved flow networks, repriced by residual warm starts. Its mutex
    /// is locked *after* the state lock (never the other way around) and
    /// only to check a plan out or in; pricing with a plan happens while
    /// the pipeline holds the state lock, so the plans it patches always
    /// describe the live catalog/instance.
    plan: OrderedMutex<PlanCache, lock::Plan>,
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
/// boundary. Nothing was mutated, and the ordered locks take a lock the
/// panic poisoned as whole (`lock::OrderedRwLock`), so the market keeps
/// serving after reporting the failure.
fn contain_panic<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<T, MarketError>
where
    MarketError: From<E>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => Ok(result?),
        Err(payload) => {
            qbdp_obs::record(Ctr::MarketPanicsContained, 1);
            Err(MarketError::Internal(panic_message(payload)))
        }
    }
}

/// One request out of the pipeline: its outcome, plus the latency clock
/// and span tree the caller closes with [`Served::observe`].
pub(crate) struct Served<T> {
    pub(crate) out: Result<T, MarketError>,
    pub(crate) sw: Stopwatch,
    pub(crate) spans: Vec<Span>,
}

impl<T> Served<T> {
    /// Telemetry epilogue: record the latency histogram and outcome
    /// counters, and hand the span tree to the flight recorder when the
    /// quote went wrong (degraded, refused-degraded, panicked) or
    /// crossed the slow threshold. Free when telemetry is off: the
    /// stopwatch never read the clock and the trace was never begun.
    pub(crate) fn observe(
        self,
        query: &str,
        hist: Hst,
        served: Ctr,
        quote_of: impl Fn(&T) -> &MarketQuote,
    ) -> Result<T, MarketError> {
        use qbdp_obs::flight::{self, Why};
        let Some(us) = self.sw.stop(hist) else {
            return self.out;
        };
        let spans = self.spans;
        match &self.out {
            Ok(t) => {
                qbdp_obs::record(served, 1);
                let q = quote_of(t);
                if !q.quality.is_exact() {
                    qbdp_obs::record(Ctr::MarketQuotesDegraded, 1);
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
            Err(MarketError::Internal(msg)) => {
                flight::capture(Why::Panicked, query, us, msg.clone(), spans);
            }
            Err(MarketError::DeadlineExceeded) => {
                qbdp_obs::record(Ctr::MarketQuotesDegraded, 1);
                flight::capture(
                    Why::Degraded,
                    query,
                    us,
                    "refused: budget exhausted and sell_degraded is off".to_string(),
                    spans,
                );
            }
            Err(_) => {}
        }
        self.out
    }
}

impl Served<Purchase> {
    /// [`Served::observe`] for a purchase.
    pub(crate) fn observe_purchase(self, query: &str) -> Result<Purchase, MarketError> {
        self.observe(query, Hst::PurchaseLatencyUs, Ctr::MarketPurchases, |p| {
            &p.quote
        })
    }
}

/// The one slot of a single-query pipeline run.
fn only<T>(mut served: Vec<Served<T>>) -> Served<T> {
    served.pop().unwrap_or_else(|| Served {
        out: Err(MarketError::Internal(
            "pipeline returned no slot".to_string(),
        )),
        sw: Stopwatch::start(),
        spans: Vec::new(),
    })
}

impl Market {
    /// Open a market. Rejects price lists that admit arbitrage among the
    /// explicit price points (Proposition 3.2) — by Theorem 2.15 no valid
    /// pricing function would exist — and catalogs with a column text
    /// whose `.qdp` literal does not read back
    /// ([`CatalogError::UnwritableText`]), which [`Market::to_qdp`] could
    /// not write for a reopen.
    ///
    /// [`CatalogError::UnwritableText`]: qbdp_catalog::CatalogError::UnwritableText
    pub fn open(
        catalog: Catalog,
        instance: Instance,
        prices: PriceList,
    ) -> Result<Market, MarketError> {
        catalog.check_literals().map_err(PricingError::from)?;
        Market::open_pricer(Pricer::new(catalog, instance, prices)?)
    }

    /// Open a market over a pricer: check its list's consistency.
    fn open_pricer(pricer: Pricer) -> Result<Market, MarketError> {
        let violations = pricer.check_consistency();
        if !violations.is_empty() {
            let rendered: Vec<String> = violations
                .iter()
                .take(3)
                .map(|v| v.display(pricer.catalog()))
                .collect();
            return Err(MarketError::InconsistentPrices(rendered.join("; ")));
        }
        Ok(Market {
            state: OrderedRwLock::new(State::new(pricer)),
            plan: OrderedMutex::new(PlanCache::new()),
            in_flight: AtomicUsize::new(0),
        })
    }

    /// Replace the market's resource policy. The `telemetry` flag is
    /// applied to the process-wide `qbdp-obs` switch here — the one
    /// place serving policy and recording policy meet.
    pub fn set_policy(&self, policy: MarketPolicy) {
        self.set_policy_at(&mut Locked::root(), policy);
    }

    pub(crate) fn set_policy_at(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State>>,
        policy: MarketPolicy,
    ) {
        qbdp_obs::set_enabled(policy.telemetry);
        self.state.write(token).0.policy = policy;
    }

    /// The current resource policy.
    pub fn policy(&self) -> MarketPolicy {
        self.policy_at(&mut Locked::root())
    }

    pub(crate) fn policy_at(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State>>,
    ) -> MarketPolicy {
        self.state.read(token).0.policy
    }

    /// Claim `slots` admission slots atomically, or refuse with
    /// [`MarketError::Overloaded`]. A batch of `k` queries is `k` units of
    /// concurrent pricing work, so it must claim `k` slots — counting it
    /// as one would let `max_in_flight` be exceeded `k`-fold.
    fn admit(&self, slots: usize, max: usize) -> Result<InFlightGuard<'_>, MarketError> {
        let prev = self.in_flight.fetch_add(slots, Ordering::Relaxed);
        if prev.checked_add(slots).is_none_or(|total| total > max) {
            self.in_flight.fetch_sub(slots, Ordering::Relaxed);
            qbdp_obs::record(Ctr::MarketAdmissionRejects, 1);
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
        Market::open_file(Market::read_qdp(text)?)
    }

    /// Read a `.qdp` document ([`QdpFile::read`]), the first half of
    /// [`Market::open_qdp`].
    pub(crate) fn read_qdp(text: &str) -> Result<CheckedQdp, MarketError> {
        QdpFile::read(text).map_err(|e| MarketError::Update(e.to_string()))
    }

    /// Open a market over a read `.qdp` document, the second half of
    /// [`Market::open_qdp`]: build the pricer and check the list's
    /// consistency. The reader checked every tuple against its column and
    /// read every text from a literal, so neither check runs again.
    pub(crate) fn open_file((data, prices): CheckedQdp) -> Result<Market, MarketError> {
        let prices = prices
            .into_iter()
            .map(|(attr, value, cents)| (SelectionView::new(attr, value), Price::cents(cents)))
            .collect();
        Market::open_pricer(Pricer::checked(data, prices))
    }

    /// Quote a query given in datalog syntax
    /// (`"Q(x, y) :- R(x), S(x, y)"`): a batch of one. Exact quotes are
    /// cached until the next update touching the query's relations.
    pub fn quote_str(&self, query: &str) -> Result<MarketQuote, MarketError> {
        self.quote_batch(&[query])
            .pop()
            .unwrap_or_else(|| Err(MarketError::Internal("empty batch".to_string())))
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
    pub fn quote_batch(&self, queries: &[&str]) -> Vec<Result<MarketQuote, MarketError>> {
        let mut root = Locked::root();
        let (state, mut at_state) = self.state.read(&mut root);
        let served = self.pipeline(&state, &mut at_state, queries, |_, quote, _| Ok(quote));
        drop(state);
        served
            .into_iter()
            .zip(queries)
            .map(|(s, query)| s.observe(query, Hst::QuoteLatencyUs, Ctr::MarketQuotes, |q| q))
            .collect()
    }

    /// The quote pipeline (see the module docs), run under the state
    /// lock `at_state` proves. Slots are positionally aligned with
    /// `queries`; each finished quote is passed to `deliver`, still
    /// under admission.
    fn pipeline<T>(
        &self,
        state: &State,
        at_state: &mut Locked<'_, lock::State>,
        queries: &[&str],
        deliver: impl Fn(
            &ConjunctiveQuery,
            MarketQuote,
            &Locked<'_, lock::State>,
        ) -> Result<T, MarketError>,
    ) -> Vec<Served<T>> {
        let clocks: Vec<Stopwatch> = queries.iter().map(|_| Stopwatch::start()).collect();
        let Ok(_admitted) = self.admit(queries.len(), state.policy.max_in_flight) else {
            return clocks
                .into_iter()
                .map(|sw| Served {
                    out: Err(MarketError::Overloaded),
                    sw,
                    spans: Vec::new(),
                })
                .collect();
        };
        let schema = state.catalog().schema();
        // Parse every query and serve what the cache already has. Each
        // miss borrows the cache it missed in, so it is filled under
        // this same state lock.
        let mut slots: Vec<Result<(ConjunctiveQuery, MarketQuote), MarketError>> =
            Vec::with_capacity(queries.len());
        let mut spans: Vec<Vec<Span>> = Vec::with_capacity(queries.len());
        let mut misses = Vec::new();
        let mut jobs: Vec<(ConjunctiveQuery, trace::Suspended)> = Vec::new();
        for (i, text) in queries.iter().enumerate() {
            if qbdp_obs::enabled() {
                trace::begin();
            }
            let q = match parse_rule(schema, text) {
                Ok(q) => q,
                Err(e) => {
                    slots.push(Err(e.into()));
                    spans.push(trace::finish());
                    continue;
                }
            };
            let key = pretty::render(&q, schema);
            let lookup = {
                let mut span = trace::span("cache_lookup");
                let lookup = state.cache.get(at_state, key);
                span.detail(if lookup.is_ok() { "hit" } else { "miss" });
                lookup
            };
            match lookup {
                Ok(hit) => {
                    slots.push(Ok((q, hit)));
                    spans.push(trace::finish());
                    continue;
                }
                Err(miss) => misses.push((i, miss)),
            }
            // The trace follows the miss onto its pool worker.
            jobs.push((q, trace::suspend()));
            slots.push(Err(MarketError::Internal(
                "batch worker died before pricing this query".to_string(),
            )));
            spans.push(Vec::new());
        }
        if !jobs.is_empty() {
            let workers = match state.policy.batch_workers {
                0 => default_workers(),
                n => n,
            };
            let budgets = state.policy.budget_for(jobs.len() as u64).split(jobs.len());
            // Each job runs under this thread's state lock, so it gets a
            // state-level token of its own.
            let tokens = at_state.fork(jobs.len());
            let jobs: Vec<_> = jobs.into_iter().zip(budgets).zip(tokens).collect();
            let priced = fan_out(jobs, workers, |(((q, parked), budget), mut token)| {
                trace::resume(parked);
                let quote = self.price_miss(state, &mut token, &q, &budget);
                (q, quote, trace::finish())
            });
            for ((i, miss), done) in misses.into_iter().zip(priced) {
                let Some((q, quote, tree)) = done else {
                    continue;
                };
                spans[i] = tree;
                slots[i] = quote
                    .and_then(|quote| Self::finish_quote(state, miss.key().to_string(), quote))
                    .map(|quote| {
                        if quote.quality.is_exact() {
                            let footprint = query_footprint(state.catalog(), &q);
                            miss.fill(at_state, quote.clone(), footprint);
                        }
                        (q, quote)
                    });
            }
        }
        clocks
            .into_iter()
            .zip(slots)
            .zip(spans)
            .map(|((sw, slot), spans)| Served {
                out: slot.and_then(|(q, quote)| deliver(&q, quote, at_state)),
                sw,
                spans,
            })
            .collect()
    }

    /// Price one quote-cache miss under the state lock: the only place
    /// the market prices. A fuel or deadline policy prices cold under
    /// its budget, so degraded `[lower, upper]` intervals never depend
    /// on the plan cache. An unlimited budget goes through the plan
    /// cache — the shape's plan is checked out, priced with the plan
    /// mutex released, and checked back in. Panics are contained here,
    /// on whichever thread the job runs.
    fn price_miss(
        &self,
        state: &State,
        token: &mut Locked<'_, lock::State>,
        q: &ConjunctiveQuery,
        budget: &Budget,
    ) -> Result<qbdp_core::Quote, MarketError> {
        if budget.is_limited() {
            let pricer = state.pricer(token);
            return contain_panic(|| pricer.price_cq_within(q, budget));
        }
        let key = shape_key(q);
        let checkout = self.plan.lock(token).0.checkout(&key);
        let pricer = state.pricer(token);
        let (quote, plan) = contain_panic(|| price_planned(pricer, q, checkout))?;
        if let Some(plan) = plan {
            self.plan.lock(token).0.checkin(key, plan);
        }
        Ok(quote)
    }

    /// Apply market policy to a raw engine quote and dress it up for the
    /// buyer: `query` is its rendered (cache-key) text, and the receipt
    /// captures each view's price now and renders on first delivery.
    fn finish_quote(
        state: &State,
        query: String,
        quote: qbdp_core::Quote,
    ) -> Result<MarketQuote, MarketError> {
        if quote.price.is_infinite() {
            return Err(MarketError::NotForSale);
        }
        if !quote.quality.is_exact() && !state.policy.sell_degraded {
            return Err(MarketError::DeadlineExceeded);
        }
        let schema = Arc::clone(state.catalog().schema());
        Ok(MarketQuote {
            query,
            price: quote.price,
            receipt: Arc::new(Receipt::capture(schema, quote.views, state.prices())),
            method: quote.method,
            class: quote.class,
            quality: quote.quality,
            lower_bound: quote.lower_bound,
        })
    }

    /// The sorted answer a purchase of `q` delivers. Evaluation runs the
    /// same buyer-controlled query the pricing engine priced, so a panic
    /// here is contained exactly like a pricing panic.
    fn answer(
        state: &State,
        token: &Locked<'_, impl MayPrice>,
        q: &ConjunctiveQuery,
    ) -> Result<Vec<Tuple>, MarketError> {
        let instance = state.pricer(token).instance();
        let mut answer: Vec<Tuple> = contain_panic(|| qbdp_query::eval::eval_cq(q, instance))?
            .into_iter()
            .collect();
        answer.sort();
        Ok(answer)
    }

    /// Purchase a query (datalog syntax): quote, evaluate, record, deliver.
    pub fn purchase_str(&self, query: &str) -> Result<Purchase, MarketError> {
        let mut root = Locked::root();
        let (mut state, mut at_state) = self.state.write(&mut root);
        let Served { out, sw, spans } = only(self.pipeline(
            &state,
            &mut at_state,
            &[query],
            |q, quote, at_state| Ok((quote, Self::answer(&state, at_state, q)?)),
        ));
        let out = out.map(|(quote, answer)| {
            let transaction_id = state.ledger.record_sale(
                &quote.query,
                quote.price,
                answer.len(),
                quote.views().len(),
            );
            Purchase {
                transaction_id,
                quote,
                answer,
            }
        });
        drop(state);
        Served { out, sw, spans }.observe_purchase(query)
    }

    /// Seller-side data insertion (§2.7). Prices stay fixed; consistency is
    /// automatic for selection-view lists.
    pub fn insert(
        &self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, MarketError> {
        self.insert_at(&mut Locked::root(), relation, tuples)
    }

    pub(crate) fn insert_at(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State, Next: LockBefore<lock::Plan>>>,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, MarketError> {
        let (mut state, mut at_state) = self.state.write(token);
        let rel: RelId = state
            .catalog()
            .schema()
            .rel_id(relation)
            .ok_or_else(|| MarketError::Update(format!("unknown relation {relation}")))?;
        let added = state
            .insert(rel, tuples)
            .map_err(|e| MarketError::Update(e.to_string()))?;
        // Invalidate under the same write lock as the data mutation (see
        // `crate::cache`). Scope: every column of the inserted relation —
        // a quote's footprint contains all columns of every relation it
        // mentions, so this reaches exactly the quotes that could see the
        // new tuples; quotes over disjoint relations stay cached. Plans
        // are evicted rather than patched: new tuples change the flow
        // network's topology, not just its capacities.
        let arity = state.catalog().schema().relation(rel).arity();
        let touched: Vec<AttrRef> = (0..arity).map(|i| AttrRef::new(rel, i as u32)).collect();
        state.cache.invalidate_columns(&touched);
        self.plan.lock(&mut at_state).0.invalidate_rels(&[rel]);
        state.ledger.record_update(relation.to_string(), added);
        Ok(added)
    }

    /// Number of quotes currently held in the sharded cache (inspection
    /// aid; the count is momentary under concurrency).
    pub fn cached_quotes(&self) -> usize {
        let mut root = Locked::root();
        let (state, mut at_state) = self.state.read(&mut root);
        state.cache.len(&mut at_state)
    }

    /// The quote cache's current mutation generation: 0 for a fresh (or
    /// freshly recovered) market, bumped by every data/price mutation.
    /// Exposed so the durable purchase path can revalidate a quote
    /// against *any* intervening change, and so durability tests can
    /// assert a recovered market starts from 0 rather than inheriting
    /// replay bumps.
    pub fn cache_epoch(&self) -> u64 {
        self.cache_epoch_at(&mut Locked::root())
    }

    pub(crate) fn cache_epoch_at(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State>>,
    ) -> u64 {
        self.state.read(token).0.cache.epoch()
    }

    /// Counters from the incremental pricing engine: plan-cache hits,
    /// misses, builds, warm reprices, flow fallbacks, and evictions.
    pub fn plan_stats(&self) -> PlanStats {
        self.plan.lock(&mut Locked::root()).0.stats()
    }

    /// Clear the quote and plan caches and rewind the cache generation
    /// to 0 (recovery epilogue). Plans are rebuilt lazily from the
    /// recovered catalog/instance by the same first-miss-cold rule as a
    /// fresh market's.
    pub(crate) fn reset_cache(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State, Next: LockBefore<lock::Plan>>>,
    ) {
        let (mut state, mut at_state) = self.state.write(token);
        state.cache.reset();
        self.plan.lock(&mut at_state).0.clear();
    }

    /// Quote and evaluate a purchase without recording it — the durable
    /// path splits purchasing into (price, log, apply) so the WAL entry
    /// is written *between* pricing and the ledger mutation, then closes
    /// the telemetry with [`Served::observe`].
    pub(crate) fn evaluate_purchase(
        &self,
        token: &mut Locked<'_, lock::Unlocked>,
        query: &str,
    ) -> Served<(MarketQuote, Vec<Tuple>)> {
        let (state, mut at_state) = self.state.read(token);
        only(
            self.pipeline(&state, &mut at_state, &[query], |q, quote, at_state| {
                Ok((quote, Self::answer(&state, at_state, q)?))
            }),
        )
    }

    /// Record a sale whose terms are already known (durable live path
    /// and WAL replay), with checked revenue arithmetic.
    pub(crate) fn apply_recorded_sale(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State>>,
        query: &str,
        price: Price,
        answer_tuples: usize,
        views: usize,
    ) -> Result<u64, MarketError> {
        self.state
            .write(token)
            .0
            .ledger
            .record_sale_checked(query, price, answer_tuples, views)
            .ok_or(MarketError::RevenueOverflow)
    }

    /// Replace the ledger wholesale (snapshot restore).
    pub(crate) fn restore_ledger(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State>>,
        ledger: Ledger,
    ) {
        self.state.write(token).0.ledger = ledger;
    }

    /// Snapshot of the running revenue.
    pub fn revenue(&self) -> Price {
        self.revenue_at(&mut Locked::root())
    }

    pub(crate) fn revenue_at(&self, token: &mut Locked<'_, impl LockBefore<lock::State>>) -> Price {
        self.state.read(token).0.ledger.revenue()
    }

    /// Number of completed sales.
    pub fn sales(&self) -> usize {
        self.state.read(&mut Locked::root()).0.ledger.sales()
    }

    /// Run a closure over the ledger (snapshot access without cloning).
    pub fn with_ledger<R>(&self, f: impl FnOnce(&Ledger) -> R) -> R {
        self.with_ledger_at(&mut Locked::root(), f)
    }

    pub(crate) fn with_ledger_at<R>(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State>>,
        f: impl FnOnce(&Ledger) -> R,
    ) -> R {
        f(&self.state.read(token).0.ledger)
    }

    /// Run a closure over the pricer (schema/catalog introspection).
    pub fn with_pricer<R>(&self, f: impl FnOnce(&Pricer) -> R) -> R {
        let mut root = Locked::root();
        let (state, at_state) = self.state.read(&mut root);
        f(state.pricer(&at_state))
    }

    /// A full explanation of a quote (class, engine, itemized receipt).
    /// Priced like any cache miss, but neither served from nor added to
    /// the quote cache.
    pub fn explain_str(&self, query: &str) -> Result<String, MarketError> {
        let mut root = Locked::root();
        let (state, mut at_state) = self.state.read(&mut root);
        let _slot = self.admit(1, state.policy.max_in_flight)?;
        let q = parse_rule(state.catalog().schema(), query)?;
        let budget = state.policy.budget_for(1);
        let quote = self.price_miss(&state, &mut at_state, &q, &budget)?;
        Ok(quote.explain(state.catalog(), state.prices()))
    }

    /// Seller-side price revision: set (or add) the price of one selection
    /// view, in place. The revised list must remain arbitrage-free
    /// (Proposition 3.2, checked on the view's relation only) or the
    /// update is rejected and nothing changes. Quotes whose footprint
    /// holds the revised column are re-derived from the new list.
    pub fn set_price(&self, view: &str, price: Price) -> Result<(), MarketError> {
        self.set_price_at(&mut Locked::root(), view, price)
    }

    pub(crate) fn set_price_at(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State>>,
        view: &str,
        price: Price,
    ) -> Result<(), MarketError> {
        self.revise_at(token, view, price, |catalog, v| v.display(catalog))?
            .map_err(MarketError::InconsistentPrices)
    }

    /// [`Market::set_price_at`] with the Proposition 3.2 refusal handed
    /// to `refused`, with the catalog, while the state is still held:
    /// the outer error is a malformed selector, the inner one the
    /// refusal as `refused` made it. Replay only needs to know that a
    /// revision was refused, so it renders nothing.
    pub(crate) fn revise_at<R>(
        &self,
        token: &mut Locked<'_, impl LockBefore<lock::State>>,
        view: &str,
        price: Price,
        refused: impl FnOnce(&Catalog, ListArbitrage) -> R,
    ) -> Result<Result<(), R>, MarketError> {
        let mut state = self.state.write(token).0;
        // `view` syntax: `R.X=a`.
        let (attr, value) = view.split_once('=').ok_or_else(|| {
            MarketError::Update(format!("price selector must be `R.X=a`, got `{view}`"))
        })?;
        let aref = state
            .catalog()
            .schema()
            .resolve_attr(attr.trim())
            .map_err(|e| MarketError::Update(e.to_string()))?;
        let value = qbdp_catalog::Value::parse_literal(value)
            .ok_or_else(|| MarketError::Update(format!("bad value in `{view}`")))?;
        if !state.catalog().column(aref).contains(&value) {
            return Err(MarketError::Update(format!(
                "value {value} is outside the column of {attr}"
            )));
        }
        // Re-check Prop 3.2 on the revised relation only; a rejected
        // revision leaves the list untouched.
        if let Err(v) = state.revise_price(SelectionView::new(aref, value), price) {
            return Ok(Err(refused(state.catalog(), v)));
        }
        // Only quotes whose footprint contains the revised column can
        // change; everything disjoint stays cached. The plan cache needs
        // no eviction here — it diffs its stored price vector against
        // the live one on every lookup and warm-starts (or rebuilds)
        // itself when they differ.
        state.cache.invalidate_columns(&[aref]);
        Ok(Ok(()))
    }

    /// Serialize the market's current state (catalog, data, prices) back to
    /// `.qdp` text — reopening it reproduces the same prices.
    pub fn to_qdp(&self) -> String {
        self.to_qdp_at(&mut Locked::root())
    }

    pub(crate) fn to_qdp_at(&self, token: &mut Locked<'_, impl LockBefore<lock::State>>) -> String {
        let state = self.state.read(token).0;
        let prices = state
            .prices()
            .iter()
            .map(|(v, p)| (v.attr, v.value, p.as_cents()))
            .collect();
        let file = QdpFile {
            catalog: state.catalog().clone(),
            instance: state.instance().clone(),
            prices,
        };
        file.to_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{tuple, CatalogBuilder, CatalogError, Column};

    /// A text whose `.qdp` literal does not read back is refused when the
    /// market opens, so every open market's `to_qdp` reopens.
    #[test]
    fn open_refuses_a_text_that_does_not_read_back() {
        let catalog = |texts: &[&str]| {
            CatalogBuilder::new()
                .relation("R", &[("X", Column::texts(texts.iter().copied()))])
                .build()
                .unwrap()
        };
        let bad = catalog(&["a', b", "x')", "ok"]);
        let prices = PriceList::uniform(&bad, Price::dollars(1));
        let err = Market::open(bad.clone(), bad.empty_instance(), prices).err();
        match err {
            Some(MarketError::Pricing(PricingError::Catalog(CatalogError::UnwritableText {
                attr,
                value,
            }))) => assert_eq!((attr.as_str(), value.as_str()), ("R.X", r#""a', b""#)),
            other => panic!("expected UnwritableText, got {other:?}"),
        }
        // Without that text the same market opens and reopens from its text.
        let good = catalog(&["x')", "ok"]);
        let prices = PriceList::uniform(&good, Price::dollars(1));
        let market = Market::open(good.clone(), good.empty_instance(), prices).unwrap();
        let back = Market::open_qdp(&market.to_qdp()).unwrap();
        assert_eq!(back.to_qdp(), market.to_qdp());
    }

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

    /// The snapshot's `market` and `ledger` sections, byte for byte:
    /// both are rendered into one buffer, and a snapshot written before
    /// that must read the same as one written after.
    #[test]
    fn figure1_and_a_small_ledger_render_as_they_always_have() {
        let m = Market::open_qdp(FIG1_QDP).unwrap();
        m.purchase_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        m.insert("T", [tuple!["b2"]]).unwrap();
        m.purchase_str("Q(x) :- R(x)").unwrap();
        m.purchase_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        assert_eq!(
            m.to_qdp(),
            "\
schema R(X)\n\
schema S(X, Y)\n\
schema T(Y)\n\
column R.X = {a1, a2, a3, a4}\n\
column S.X = {a1, a2, a3, a4}\n\
column S.Y = {b1, b2, b3}\n\
column T.Y = {b1, b2, b3}\n\
tuple R(a1)\n\
tuple R(a2)\n\
tuple S(a1, b1)\n\
tuple S(a1, b2)\n\
tuple S(a2, b2)\n\
tuple S(a4, b1)\n\
tuple T(b1)\n\
tuple T(b2)\n\
tuple T(b3)\n\
price R.X=a1 100\n\
price R.X=a2 100\n\
price R.X=a3 100\n\
price R.X=a4 100\n\
price S.X=a1 100\n\
price S.X=a2 100\n\
price S.X=a3 100\n\
price S.X=a4 100\n\
price T.Y=b1 100\n\
price T.Y=b3 100\n\
price T.Y=b2 100\n\
price S.Y=b1 100\n\
price S.Y=b3 100\n\
price S.Y=b2 100\n\
"
        );
        assert_eq!(
            m.with_ledger(Ledger::to_snapshot_text),
            "\
revenue 1800\n\
next_id 5\n\
sale 1 600 1 6 Q(x, y) :- R(x), S(x, y), T(y)\n\
update 2 1 T\n\
sale 3 400 2 4 Q(x) :- R(x)\n\
sale 4 800 3 8 Q(x, y) :- R(x), S(x, y), T(y)\n\
"
        );
    }

    #[test]
    fn figure1_market_end_to_end() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let quote = market.quote_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        assert_eq!(quote.price, Price::dollars(6));
        assert_eq!(quote.receipt().len(), 6);
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
        assert_eq!(first.views(), second.views());
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

    /// A write reprices only the quotes whose footprint it touches
    /// (Lemma 3.1): a revision in `S` and an insert into `R` leave the
    /// cached `T` quote servable, and the `R` quote is priced again.
    #[test]
    fn writes_reprice_only_the_quotes_over_their_columns() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let (over_r, over_t) = ("Q(x) :- R(x)", "Q(y) :- T(y)");
        let r = market.quote_str(over_r).unwrap();
        let t = market.quote_str(over_t).unwrap();
        market.set_price("S.X=a3", Price::cents(50)).unwrap();
        let r_hit = market.quote_str(over_r).unwrap();
        assert!(
            Arc::ptr_eq(&r_hit.receipt, &r.receipt),
            "a revision in S evicted the R quote"
        );
        market.insert("R", [tuple!["a3"]]).unwrap();
        let t_hit = market.quote_str(over_t).unwrap();
        assert!(
            Arc::ptr_eq(&t_hit.receipt, &t.receipt),
            "a write to S and R evicted the T quote"
        );
        let repriced = market.quote_str(over_r).unwrap();
        assert!(
            !Arc::ptr_eq(&repriced.receipt, &r.receipt),
            "an insert into R left the R quote cached"
        );
        let cold = market.with_pricer(|p| {
            let q = parse_rule(p.catalog().schema(), over_r).unwrap();
            p.price_cq(&q).unwrap()
        });
        assert_eq!(repriced.price, cold.price);
        assert_eq!(repriced.views(), cold.views);
        assert_eq!(market.cached_quotes(), 2);
    }

    #[test]
    fn a_held_receipt_keeps_the_price_it_was_quoted_at() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let q = "Q(x, y) :- R(x), S(x, y), T(y)";
        // Not rendered before the revision: the price is captured at
        // quote time, not at first render.
        let held = market.quote_str(q).unwrap();
        market.set_price("S.Y=b1", Price::cents(25)).unwrap();
        let fresh = market.quote_str(q).unwrap();
        assert!(
            held.receipt().iter().any(|l| l == "σ[S.Y=b1] @ $1.00"),
            "{:?}",
            held.receipt()
        );
        assert!(
            fresh.receipt().iter().any(|l| l == "σ[S.Y=b1] @ $0.25"),
            "{:?}",
            fresh.receipt()
        );
    }

    #[test]
    fn cache_hits_share_one_receipt() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let q = "Q(x, y) :- R(x), S(x, y), T(y)";
        let miss = market.quote_str(q).unwrap();
        let hit = market.quote_str(q).unwrap();
        let again = market.quote_str(q).unwrap();
        assert!(Arc::ptr_eq(&hit.receipt, &again.receipt));
        assert!(
            Arc::ptr_eq(&miss.receipt, &hit.receipt),
            "the cache entry shares the receipt the miss handed out"
        );
        // Rendered once, through any copy.
        assert!(std::ptr::eq(miss.receipt(), again.receipt()));
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
    fn one_off_queries_build_no_plans() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let queries: Vec<String> = ["a1", "a2", "a3", "a4"]
            .iter()
            .flat_map(|a| {
                [
                    format!("Q(y) :- R('{a}'), S('{a}', y), T(y)"),
                    format!("Q(y) :- S('{a}', y)"),
                ]
            })
            .collect();
        for q in &queries {
            market.quote_str(q).unwrap();
        }
        let stats = market.plan_stats();
        assert_eq!(stats.misses, queries.len() as u64, "{stats:?}");
        assert_eq!(stats.builds, 0, "one-off shapes built plans: {stats:?}");
    }

    #[test]
    fn repeated_shape_builds_once_then_warm_reprices() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let q = "Q(x, y) :- R(x), S(x, y), T(y)";
        // First miss: priced cold, only the shape is recorded.
        market.quote_str(q).unwrap();
        assert_eq!(market.plan_stats().builds, 0);
        // A revision invalidates the cached quote; the second miss builds.
        market.set_price("S.Y=b1", Price::cents(25)).unwrap();
        assert_eq!(market.quote_str(q).unwrap().price, Price::cents(525));
        let stats = market.plan_stats();
        assert_eq!((stats.builds, stats.warm_reprices), (1, 0), "{stats:?}");
        // The third miss warm-reprices the plan.
        market.set_price("S.Y=b1", Price::cents(50)).unwrap();
        assert_eq!(market.quote_str(q).unwrap().price, Price::cents(550));
        let stats = market.plan_stats();
        assert_eq!((stats.builds, stats.warm_reprices), (1, 1), "{stats:?}");
    }

    #[test]
    fn purchase_of_a_cached_query_hits_the_cache() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let q = "Q(x, y) :- R(x), S(x, y), T(y)";
        market.quote_str(q).unwrap();
        let (cached, before) = (market.cached_quotes(), market.plan_stats());
        let purchase = market.purchase_str(q).unwrap();
        assert_eq!(market.cached_quotes(), cached);
        assert_eq!(
            market.plan_stats().misses,
            before.misses,
            "the purchase priced instead of hitting the quote cache"
        );
        let fresh = Market::open_qdp(&market.to_qdp())
            .unwrap()
            .quote_str(q)
            .unwrap();
        assert_eq!(purchase.quote.price, fresh.price);
        assert_eq!(purchase.quote.views(), fresh.views());
        assert_eq!(purchase.answer, vec![tuple!["a1", "b1"]]);
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
