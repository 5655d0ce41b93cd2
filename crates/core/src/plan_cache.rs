//! A shape-keyed plan cache for the GChQ pipeline: repeated query shapes
//! under a *changed price vector* pay only a warm-start min-cut delta.
//!
//! ## What is cached
//!
//! Pricing a generalized chain query runs one pipeline: reorder, Steps 1–3,
//! one min-cut per Step 3 branch, then the minimum over branches (cold
//! pricing skips the branches whose cover cost alone cannot win; a plan
//! solves every branch, since new prices may change the winner). Every
//! piece of that work except the final flow values is
//! **price-point-independent up to edge capacities**: the reduced branch
//! problems, the Step 4 networks, and the edge ↔ view correspondence
//! depend only on the query shape, the catalog, and the instance. A
//! [`PlanCache`] therefore keys entries by the canonicalized CQ skeleton
//! (variables renamed by first occurrence — see [`shape_key`]) and keeps
//! what the pipeline returns when asked to keep its branches: per branch,
//! the cover views, the provenance, the Step 4 network and the
//! [`MaxFlowResult`](qbdp_flow::MaxFlowResult) of its solve. The plan adds
//! per branch a map from *original* price-list views to the edge whose
//! capacity they control.
//!
//! ## Which shapes get a plan
//!
//! A shape's first miss prices cold and records only its key; its second
//! miss builds the plan: the same pipeline under an unlimited budget,
//! traced the same way, keeping each branch's network and flow instead of
//! recycling them. Kept networks cost memory, so one-off queries never
//! build (DESIGN.md §4.5 has the numbers). [`PlanCache::checkout`] takes a
//! shape's state out of the map, [`price_planned`] prices with it outside
//! the owner's lock, and [`PlanCache::checkin`] puts the plan back.
//!
//! ## Repricing protocol
//!
//! On a cache hit the current price list is diffed against the entry's
//! snapshot over the query's **footprint** (every attribute of every
//! mentioned relation — non-cut views in a mentioned column are still
//! price-relevant):
//!
//! * no change — the cached quote is returned verbatim;
//! * a changed view maps to graph edges and stays finite — each affected
//!   branch's flow is repaired in place by a warm start, branch base costs
//!   are re-summed from their recorded cover views, and the quote comes
//!   from the branch-minimum rule the cold path uses;
//! * a change touches a *transformed* attribute (Step 2 collapsed its
//!   relation, or the build recorded a non-invertible provenance), or a
//!   price crosses finite ↔ ∞ (which can flip Step 3's cover gating or the
//!   edge's presence in the network) — the entry is evicted and rebuilt
//!   cold.
//!
//! Warm and cold agree **bit-identically**: capacities after patching
//! equal the capacities a cold rebuild would assign, the max-flow value is
//! unique, and the reported cut is the canonical (residual-reachable)
//! minimum cut, identical for every maximum flow.
//!
//! Only exact, unlimited-budget quotes are cached — degraded quotes
//! depend on budget state that is not part of the shape key. Queries
//! outside the pure chain-flow path (boolean, disconnected, cycles,
//! NP-hard classes) delegate to the ordinary
//! [`Pricer`] entry points and bypass the cache.

use crate::budget::Budget;
use crate::chain::graph::with_dinic_arena;
use crate::dichotomy::{classify, QueryClass};
use crate::error::PricingError;
use crate::gchq::{price_branches, BranchMinimum, Purchase, SolvedBranch};
use crate::money::Price;
use crate::price_points::PriceList;
use crate::pricer::{Pricer, Quote};
use qbdp_catalog::{AttrRef, Catalog, FxHashMap, FxHashSet, RelId};
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::{EdgeId, Unmetered};
use qbdp_query::ast::{ConjunctiveQuery, Term, Var};

/// Counters describing what the cache has been doing (for benches and
/// tests; not part of any equivalence argument).
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanStats {
    /// Lookups whose plan was reused with an unchanged footprint: the
    /// cached quote returned verbatim.
    pub hits: u64,
    /// Lookups that found no plan: a shape's first miss prices cold,
    /// later ones build a plan.
    pub misses: u64,
    /// Plans built (a shape's repeat miss, or a rebuild after eviction).
    pub builds: u64,
    /// Hits repriced through warm-start capacity repair.
    pub warm_reprices: u64,
    /// Warm repairs that exceeded their fuel fraction and re-solved cold
    /// inside the flow layer (still cheaper than a full rebuild).
    pub flow_fallbacks: u64,
    /// Entries discarded because a change was not warm-patchable.
    pub evictions: u64,
}

impl PlanStats {
    /// Fold `d` into these tallies and the global registry — the one
    /// increment site, so the per-cache view (asserted exactly by tests)
    /// and the registry (`qbdp stats`) can never diverge.
    fn add(&mut self, d: PlanStats) {
        use qbdp_obs::{record, Ctr};
        self.hits += d.hits;
        self.misses += d.misses;
        self.builds += d.builds;
        self.warm_reprices += d.warm_reprices;
        self.flow_fallbacks += d.flow_fallbacks;
        self.evictions += d.evictions;
        record(Ctr::PlanCacheHits, d.hits);
        record(Ctr::PlanCacheMisses, d.misses);
        record(Ctr::PlanCacheBuilds, d.builds);
        record(Ctr::PlanCacheWarmReprices, d.warm_reprices);
        record(Ctr::PlanCacheFlowFallbacks, d.flow_fallbacks);
        record(Ctr::PlanCacheEvictions, d.evictions);
    }
}

/// A cached plan for one query shape. Opaque: it only travels between
/// [`PlanCache::checkout`], [`price_planned`] and [`PlanCache::checkin`].
pub struct PlanEntry {
    /// Relations the query mentions (entries die when one is inserted to).
    mentioned: Vec<RelId>,
    /// Every attribute of every mentioned relation (original coordinates):
    /// the set of price points the quote can depend on.
    footprint: Vec<AttrRef>,
    /// Attributes whose price changes cannot be patched onto the cached
    /// networks (Step 2 min-merges, non-invertible provenance): any change
    /// here evicts.
    transformed: FxHashSet<AttrRef>,
    /// Price-list snapshot the cached state was solved under.
    prices: PriceList,
    /// The Step 3 branches with their solved networks, each with the map
    /// from an original view to the edge whose capacity is its price.
    branches: Vec<(SolvedBranch, FxHashMap<SelectionView, EdgeId>)>,
    /// The quote those branches produced (returned verbatim while the
    /// footprint prices are unchanged).
    quote: Quote,
    /// What pricing did with this entry since its checkout, folded into
    /// the cache's [`PlanStats`] at check-in.
    tally: PlanStats,
}

/// A shape's state taken out of the cache by [`PlanCache::checkout`].
pub enum Checkout {
    /// The shape's first miss: price cold, build nothing.
    Cold,
    /// A repeat miss: build the shape's plan while pricing.
    Build,
    /// The shape's plan, out of the cache until it is checked back in.
    Plan(Box<PlanEntry>),
}

/// The plan cache: one per market (or per pricing session), behind its
/// owner's lock. Flow solver scratch comes from the pricing thread's
/// Dinic arena, so the cache holds no solver state of its own.
#[derive(Default)]
pub struct PlanCache {
    map: FxHashMap<String, PlanEntry>,
    /// Shapes that have missed once (see the module docs).
    seen: FxHashSet<String>,
    stats: PlanStats,
}

/// Canonical shape key of a CQ: variables renamed by first occurrence
/// across head, atoms, then predicates, so any two queries identical up to
/// variable renaming share a key. Constants, predicates, relation ids, and
/// atom order are all part of the key; the query *name* is not (prices are
/// name-independent).
pub fn shape_key(q: &ConjunctiveQuery) -> String {
    use std::fmt::Write as _;
    let mut ids: FxHashMap<Var, usize> = FxHashMap::default();
    let id_of = |v: Var, ids: &mut FxHashMap<Var, usize>| -> usize {
        let next = ids.len();
        *ids.entry(v).or_insert(next)
    };
    let mut key = String::new();
    key.push('h');
    // audit: bounded(one pass over the head variables of one query)
    for &v in q.head() {
        let _ = write!(key, ",{}", id_of(v, &mut ids));
    }
    // audit: bounded(one pass over the query's atoms)
    for a in q.atoms() {
        let _ = write!(key, "|r{}", a.rel.0);
        // audit: bounded(one slot per term of one atom)
        for t in &a.terms {
            match t {
                Term::Var(v) => {
                    let _ = write!(key, ",v{}", id_of(*v, &mut ids));
                }
                Term::Const(c) => {
                    let _ = write!(key, ",c{c:?}");
                }
            }
        }
    }
    // audit: bounded(one pass over the query's predicates)
    for p in q.preds() {
        let _ = write!(key, "|p{}:{:?}", id_of(p.var, &mut ids), p.pred);
    }
    key
}

/// Every attribute of every relation the query mentions, in original
/// catalog coordinates — the full set of price points (and columns) the
/// query's price can depend on. The market layer uses the same footprint
/// for column-scoped quote-cache invalidation.
pub fn query_footprint(catalog: &Catalog, q: &ConjunctiveQuery) -> Vec<AttrRef> {
    let mut out = Vec::new();
    for rel in mentioned_rels(q) {
        let arity = catalog.schema().relation(rel).arity();
        // audit: bounded(one slot per attribute of a mentioned relation)
        for pos in 0..arity {
            out.push(AttrRef::new(rel, pos as u32));
        }
    }
    out
}

/// Relations the query mentions, sorted and deduplicated.
fn mentioned_rels(q: &ConjunctiveQuery) -> Vec<RelId> {
    let mut rels: Vec<RelId> = q.atoms().iter().map(|a| a.rel).collect();
    rels.sort();
    rels.dedup();
    rels
}

/// Attributes whose prices feed Step 2 min-merges: every attribute of a
/// relation whose atom repeats a variable. The merged price is the
/// *minimum* of two originals, so the losing view is invisible in
/// provenance and a change to it cannot be patched — it must evict.
fn step2_transformed(catalog: &Catalog, q: &ConjunctiveQuery) -> FxHashSet<AttrRef> {
    let mut out = FxHashSet::default();
    for a in q.atoms() {
        let vars: Vec<Option<Var>> = a
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::Const(_) => None,
            })
            .collect();
        let repeats = vars
            .iter()
            .enumerate()
            .any(|(i, v)| v.is_some() && vars[i + 1..].contains(v));
        if repeats {
            let arity = catalog.schema().relation(a.rel).arity();
            // audit: bounded(one slot per attribute of the repeated-var relation)
            for pos in 0..arity {
                out.insert(AttrRef::new(a.rel, pos as u32));
            }
        }
    }
    out
}

/// Invert a built branch's view edges back to original price points: each
/// original view → the edge whose capacity is its price. An edge whose
/// reduced view does not stand for exactly one original view at an equal
/// price marks those originals' attributes `transformed`, so changes there
/// evict instead of mispatching.
fn edge_of_original(
    prices: &PriceList,
    branch: &SolvedBranch,
    transformed: &mut FxHashSet<AttrRef>,
) -> FxHashMap<SelectionView, EdgeId> {
    let network = &branch.network;
    let mut out: FxHashMap<SelectionView, EdgeId> = FxHashMap::default();
    let mut originals = Vec::new();
    // audit: bounded(one pass over the view edges of one built network)
    for (e, attr, value) in network.priced_views() {
        originals.clear();
        branch.provenance.resolve_into(attr, value, &mut originals);
        match originals.as_slice() {
            // Empty: a Step 3 freebie — capacity is pinned at zero
            // regardless of the original prices, so changes to them are
            // no-ops for this branch.
            [] => {}
            // View edges are finite, so equal capacities mean equal prices.
            [orig] if prices.get(orig).as_capacity() == network.graph.edge(e).2 => {
                if out.insert(orig.clone(), e).is_some() {
                    transformed.insert(orig.attr);
                }
            }
            many => {
                // audit: bounded(the originals of one reduced view)
                for orig in many {
                    transformed.insert(orig.attr);
                }
            }
        }
    }
    out
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Cache statistics.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no plan.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every plan and every recorded shape (e.g. after recovery
    /// replay).
    pub fn clear(&mut self) {
        self.map.clear();
        self.seen.clear();
    }

    /// Drop entries mentioning any of `rels` — required after an insert,
    /// because cached partial answers and networks embed the instance.
    /// Their shapes stay recorded, so the next miss rebuilds at once.
    pub fn invalidate_rels(&mut self, rels: &[RelId]) {
        let before = self.map.len();
        self.map
            .retain(|_, e| !e.mentioned.iter().any(|r| rels.contains(r)));
        self.stats.add(PlanStats {
            evictions: (before - self.map.len()) as u64,
            ..PlanStats::default()
        });
    }

    /// Take the state of shape `key` (see [`shape_key`]) out of the
    /// cache, to price with [`price_planned`] outside the owner's lock.
    pub fn checkout(&mut self, key: &str) -> Checkout {
        if let Some(entry) = self.map.remove(key) {
            return Checkout::Plan(Box::new(entry));
        }
        self.stats.add(PlanStats {
            misses: 1,
            ..PlanStats::default()
        });
        if self.seen.insert(key.to_string()) {
            Checkout::Cold
        } else {
            Checkout::Build
        }
    }

    /// Put a plan returned by [`price_planned`] back under `key`. A plan
    /// a concurrent pricing of the same shape checked in meanwhile is
    /// replaced; both describe the same live data.
    pub fn checkin(&mut self, key: String, mut entry: Box<PlanEntry>) {
        self.stats.add(std::mem::take(&mut entry.tally));
        self.map.insert(key, *entry);
    }
}

/// Whether this query takes the cached chain-flow path. Everything else
/// is priced by [`Pricer::price_cq`] unchanged.
fn cacheable(q: &ConjunctiveQuery, class: &QueryClass) -> bool {
    *class == QueryClass::GeneralizedChain && !q.atoms().is_empty() && !q.is_boolean()
}

/// Price `q` exactly (unlimited budget) with the state
/// [`PlanCache::checkout`] gave for its shape, returning the quote and
/// the plan to check back in, if there is one. The result is
/// bit-identical to [`Pricer::price_cq`] — prices, views, method, class,
/// quality — which the `incremental_equiv` differential battery
/// enforces. Runs with no lock held; a panic here loses only the
/// checked-out plan.
pub fn price_planned(
    pricer: &Pricer,
    q: &ConjunctiveQuery,
    checkout: Checkout,
) -> Result<(Quote, Option<Box<PlanEntry>>), PricingError> {
    let mut tally = PlanStats::default();
    match checkout {
        Checkout::Cold => {
            qbdp_obs::trace::event("plan_cache", "cold");
            return Ok((pricer.price_cq(q)?, None));
        }
        Checkout::Build => qbdp_obs::trace::event("plan_cache", "build"),
        Checkout::Plan(mut entry) => {
            crate::fault::maybe_panic();
            let mut span = qbdp_obs::trace::span("plan_cache");
            let changed = entry.diff(pricer);
            span.n(changed.len() as u64);
            if changed.is_empty() {
                span.detail("hit");
                entry.tally.hits += 1;
                return Ok((entry.quote.clone(), Some(entry)));
            }
            let patchable = changed.iter().all(|(view, old, new)| {
                old.is_finite() && new.is_finite() && !entry.transformed.contains(&view.attr)
            });
            if patchable {
                span.detail("warm");
                let quote = entry.reprice(pricer, &changed)?;
                entry.tally.warm_reprices += 1;
                return Ok((quote, Some(entry)));
            }
            span.detail("evict");
            tally.evictions = 1;
        }
    }
    // Build a plan — unless the class does not take the cached path.
    let class = classify(q);
    if !cacheable(q, &class) {
        return Ok((pricer.price_cq(q)?, None));
    }
    crate::fault::maybe_panic();
    let _span = qbdp_obs::trace::span("plan_build");
    let (mut entry, quote) = PlanEntry::build(pricer, q, class)?;
    entry.tally = PlanStats { builds: 1, ..tally };
    Ok((quote, Some(Box::new(entry))))
}

impl PlanEntry {
    /// Warm-reprice a cached entry under `changed` footprint prices (all
    /// finite → finite, none transformed): patch the changed capacities,
    /// warm-start each patched branch, re-sum each branch's base cost, and
    /// take the branch minimum again.
    fn reprice(
        &mut self,
        pricer: &Pricer,
        changed: &[(SelectionView, Price, Price)],
    ) -> Result<Quote, PricingError> {
        let prices = pricer.prices();
        let mut minimum = BranchMinimum::default();
        for (i, (branch, edge_of_original)) in self.branches.iter_mut().enumerate() {
            let patches: Vec<(EdgeId, u64)> = changed
                .iter()
                .filter_map(|(view, _, new)| {
                    edge_of_original.get(view).map(|&e| (e, new.as_capacity()))
                })
                .collect();
            if !patches.is_empty() {
                let SolvedBranch { network, flow, .. } = branch;
                let out = with_dinic_arena(|a| {
                    let (s, t) = (network.s, network.t);
                    a.warm_start(&mut network.graph, s, t, flow, &patches, &Unmetered)
                })
                .map_err(|_| PricingError::Internal("unmetered warm start interrupted".into()))?;
                if out.fell_back {
                    self.tally.flow_fallbacks += 1;
                }
            }
            // Base cost re-summed from the recorded cover views: equal to
            // the cold pipeline's accumulated cover prices because every
            // recorded view maps through identity or shifted-identity
            // provenance at an unchanged-structure price (Step 2 merges
            // were ruled out by the transformed-attr eviction).
            let base_cost = branch
                .base_views
                .iter()
                .fold(Price::ZERO, |acc, v| acc.saturating_add(prices.get(v)));
            minimum.offer(i, base_cost, &branch.flow, || i);
        }
        let quote = minimum.quote(self.quote.class.clone(), |i| self.branches[i].0.views());
        self.prices = prices.clone();
        self.quote = quote.clone();
        Ok(quote)
    }

    /// Build an entry: the GChQ pipeline under an unlimited budget,
    /// keeping every branch's network and flow for later warm starts.
    fn build(
        pricer: &Pricer,
        q: &ConjunctiveQuery,
        class: QueryClass,
    ) -> Result<(PlanEntry, Quote), PricingError> {
        let run = price_branches(pricer, q, &Budget::unlimited(), true)?;
        debug_assert!(
            run.complete && run.finished,
            "unlimited budgets never exhaust"
        );
        let mut transformed = step2_transformed(pricer.catalog(), q);
        let branches = run
            .kept
            .into_iter()
            .map(|branch| {
                let edges = edge_of_original(pricer.prices(), &branch, &mut transformed);
                (branch, edges)
            })
            .collect();
        let quote = run.minimum.quote(class, Purchase::views);
        let entry = PlanEntry {
            mentioned: mentioned_rels(q),
            footprint: query_footprint(pricer.catalog(), q),
            transformed,
            prices: pricer.prices().clone(),
            branches,
            quote: quote.clone(),
            tally: PlanStats::default(),
        };
        Ok((entry, quote))
    }

    /// Footprint price points whose value differs between the snapshot and
    /// the pricer's current list: `(view, old, new)`.
    fn diff(&self, pricer: &Pricer) -> Vec<(SelectionView, Price, Price)> {
        let catalog = pricer.catalog();
        let current = pricer.prices();
        let mut changed = Vec::new();
        // audit: bounded(footprint × column scan, once per cache hit)
        for &attr in &self.footprint {
            for value in catalog.column(attr).iter() {
                let old = self.prices.get_at(attr, value);
                let new = current.get_at(attr, value);
                if old != new {
                    changed.push((SelectionView::new(attr, value.clone()), old, new));
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{tuple, CatalogBuilder, Column, Value};
    use qbdp_query::parser::parse_rule;

    fn figure1_pricer() -> Pricer {
        let ax = Column::texts(["a1", "a2", "a3", "a4"]);
        let by = Column::texts(["b1", "b2", "b3"]);
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", ax.clone())])
            .relation("S", &[("X", ax), ("Y", by.clone())])
            .relation("T", &[("Y", by)])
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(
            cat.schema().rel_id("R").unwrap(),
            [tuple!["a1"], tuple!["a2"]],
        )
        .unwrap();
        d.insert_all(
            cat.schema().rel_id("S").unwrap(),
            [
                tuple!["a1", "b1"],
                tuple!["a1", "b2"],
                tuple!["a2", "b2"],
                tuple!["a4", "b1"],
            ],
        )
        .unwrap();
        d.insert_all(
            cat.schema().rel_id("T").unwrap(),
            [tuple!["b1"], tuple!["b3"]],
        )
        .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        Pricer::new(cat, d, prices).unwrap()
    }

    /// One lookup the way the market makes it: check out, price
    /// unlocked, check the plan back in.
    fn quote(
        plan: &mut PlanCache,
        p: &Pricer,
        q: &ConjunctiveQuery,
    ) -> Result<Quote, PricingError> {
        let key = shape_key(q);
        let (quote, entry) = price_planned(p, q, plan.checkout(&key))?;
        if let Some(entry) = entry {
            plan.checkin(key, entry);
        }
        Ok(quote)
    }

    /// A cache holding `q`'s plan: its first miss prices cold, its second
    /// builds.
    fn primed(p: &Pricer, q: &ConjunctiveQuery) -> PlanCache {
        let mut plan = PlanCache::new();
        quote(&mut plan, p, q).unwrap();
        assert!(plan.is_empty(), "a first miss builds no plan");
        quote(&mut plan, p, q).unwrap();
        assert_eq!(plan.len(), 1);
        plan
    }

    fn assert_quotes_equal(a: &Quote, b: &Quote) {
        assert_eq!(a.price, b.price);
        assert_eq!(a.views, b.views);
        assert_eq!(a.method, b.method);
        assert_eq!(a.class, b.class);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.lower_bound, b.lower_bound);
    }

    #[test]
    fn shape_key_ignores_names_and_variable_identity() {
        let p = figure1_pricer();
        let s = p.catalog().schema();
        let q1 = parse_rule(s, "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let q2 = parse_rule(s, "Other(u, w) :- R(u), S(u, w), T(w)").unwrap();
        assert_eq!(shape_key(&q1), shape_key(&q2));
        // Different constants → different shapes.
        let q3 = parse_rule(s, "Q(y) :- R('a1'), S('a1', y), T(y)").unwrap();
        let q4 = parse_rule(s, "Q(y) :- R('a2'), S('a2', y), T(y)").unwrap();
        assert_ne!(shape_key(&q3), shape_key(&q4));
    }

    #[test]
    fn cached_quote_matches_cold_and_hits() {
        let p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let mut plan = PlanCache::new();
        let cold = p.price_cq(&q).unwrap();
        for _ in 0..3 {
            assert_quotes_equal(&cold, &quote(&mut plan, &p, &q).unwrap());
        }
        let stats = plan.stats();
        assert_eq!((stats.misses, stats.builds, stats.hits), (2, 1, 1));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn price_change_warm_reprices_to_cold_answer() {
        let mut p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let mut plan = primed(&p, &q);
        // Raise one R.X view: the cut should route around it.
        let rx = p.catalog().schema().resolve_attr("R.X").unwrap();
        let mut prices = p.prices().clone();
        prices.set(
            SelectionView::new(rx, Value::text("a1")),
            Price::dollars(50),
        );
        p = Pricer::new(p.catalog().clone(), p.instance().clone(), prices).unwrap();
        let warm = quote(&mut plan, &p, &q).unwrap();
        let cold = p.price_cq(&q).unwrap();
        assert_quotes_equal(&cold, &warm);
        assert_eq!(plan.stats().warm_reprices, 1);
        assert_eq!(plan.stats().evictions, 0);
    }

    #[test]
    fn repeated_variable_changes_evict() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .build()
            .unwrap();
        let r = cat.schema().rel_id("R").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(r, [tuple![0, 0], tuple![1, 1]]).unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(2));
        let mut p = Pricer::new(cat, d, prices).unwrap();
        let q = parse_rule(p.catalog().schema(), "Q(x) :- R(x, x)").unwrap();
        let mut plan = primed(&p, &q);
        // Drop the price of the "loser" position below the winner: the min
        // flips, which only an eviction can observe.
        let ry = AttrRef::new(r, 1);
        let mut prices = p.prices().clone();
        prices.set(SelectionView::new(ry, Value::Int(0)), Price::dollars(1));
        p = Pricer::new(p.catalog().clone(), p.instance().clone(), prices).unwrap();
        let warm = quote(&mut plan, &p, &q).unwrap();
        let cold = p.price_cq(&q).unwrap();
        assert_quotes_equal(&cold, &warm);
        assert_eq!(plan.stats().evictions, 1);
        assert_eq!(plan.stats().warm_reprices, 0);
    }

    #[test]
    fn infinite_transitions_evict() {
        let mut p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let mut plan = primed(&p, &q);
        // Unprice a view: finite → ∞ must evict, and the rebuilt entry
        // must agree with cold.
        let rx = p.catalog().schema().resolve_attr("R.X").unwrap();
        let mut prices = p.prices().clone();
        prices.remove(&SelectionView::new(rx, Value::text("a1")));
        p = Pricer::new(p.catalog().clone(), p.instance().clone(), prices).unwrap();
        let warm = quote(&mut plan, &p, &q).unwrap();
        let cold = p.price_cq(&q).unwrap();
        assert_quotes_equal(&cold, &warm);
        assert_eq!(plan.stats().evictions, 1);
    }

    #[test]
    fn insert_invalidates_mentioning_entries() {
        let mut p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let mut plan = primed(&p, &q);
        let r = p.catalog().schema().rel_id("R").unwrap();
        plan.invalidate_rels(&[r]);
        assert!(plan.is_empty());
        p.insert(r, [tuple!["a3"]]).unwrap();
        let warm = quote(&mut plan, &p, &q).unwrap();
        let cold = p.price_cq(&q).unwrap();
        assert_quotes_equal(&cold, &warm);
        assert_eq!(plan.len(), 1, "a known shape rebuilds on its next miss");
    }

    #[test]
    fn hanging_branch_cover_costs_track_price_changes() {
        // Q(x, y, z) = R(x, y), S(y, z), T(z): x hangs on R.X; changing
        // R.X prices moves the cover branch's base cost.
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .uniform_relation("S", &["Y", "Z"], &col)
            .uniform_relation("T", &["Z"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("R").unwrap(), tuple![0, 1])
            .unwrap();
        d.insert(cat.schema().rel_id("S").unwrap(), tuple![1, 2])
            .unwrap();
        d.insert(cat.schema().rel_id("T").unwrap(), tuple![2])
            .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let mut p = Pricer::new(cat, d, prices).unwrap();
        let q = parse_rule(p.catalog().schema(), "Q(x, y, z) :- R(x, y), S(y, z), T(z)").unwrap();
        let mut plan = primed(&p, &q);
        let rx = p.catalog().schema().resolve_attr("R.X").unwrap();
        for cents in [40u64, 250, 700] {
            let mut prices = p.prices().clone();
            prices.set(SelectionView::new(rx, Value::Int(1)), Price::cents(cents));
            p = Pricer::new(p.catalog().clone(), p.instance().clone(), prices).unwrap();
            let warm = quote(&mut plan, &p, &q).unwrap();
            let cold = p.price_cq(&q).unwrap();
            assert_quotes_equal(&cold, &warm);
        }
        assert_eq!(plan.stats().evictions, 0);
        assert_eq!(plan.stats().warm_reprices, 3);
    }

    #[test]
    fn uncacheable_classes_delegate() {
        let p = figure1_pricer();
        let mut plan = PlanCache::new();
        // Boolean query: bypasses the cache entirely.
        let q = parse_rule(p.catalog().schema(), "B() :- R(x), S(x, y), T(y)").unwrap();
        for _ in 0..2 {
            let warm = quote(&mut plan, &p, &q).unwrap();
            let cold = p.price_cq(&q).unwrap();
            assert_quotes_equal(&cold, &warm);
        }
        assert!(plan.is_empty());
    }

    #[test]
    fn one_off_shapes_build_no_plans() {
        let p = figure1_pricer();
        let mut plan = PlanCache::new();
        for a in ["a1", "a2", "a3", "a4"] {
            let rule = format!("Q(y) :- R('{a}'), S('{a}', y), T(y)");
            let q = parse_rule(p.catalog().schema(), &rule).unwrap();
            assert_quotes_equal(&p.price_cq(&q).unwrap(), &quote(&mut plan, &p, &q).unwrap());
        }
        assert!(plan.is_empty());
        assert_eq!((plan.stats().misses, plan.stats().builds), (4, 0));
    }
}
