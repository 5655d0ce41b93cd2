//! The pricing façade: classify a query (Theorem 3.16) and dispatch it to
//! the cheapest-complexity engine that applies.

use crate::boolean::secure_witness_price;
use crate::budget::{Budget, QuoteQuality};
use crate::consistency::{find_list_arbitrage, revision_arbitrage, ListArbitrage};
use crate::cycle::cycle_price_within;
use crate::degrade::{relevant_rels, relevant_rels_cq, structural_cover};
use crate::dichotomy::{classify, component_query, QueryClass};
use crate::disconnected::{combine, ComponentPrice};
use crate::error::PricingError;
use crate::exact::certificates::{certificate_price_within, CertificateConfig};
use crate::exact::subset::{subset_price_within, SubsetConfig};
use crate::exact::ExactResult;
use crate::money::Price;
use crate::normalize::Problem;
use crate::price_points::PriceList;
use qbdp_catalog::{Catalog, CheckedInstance, Instance};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::analysis;
use qbdp_query::ast::{ConjunctiveQuery, Ucq};
use qbdp_query::bundle::Bundle;
use qbdp_query::eval;

/// Which engine produced a quote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PricingMethod {
    /// GChQ pipeline: Steps 1–3 + Min-Cut (Theorem 3.7). PTIME.
    ChainFlow,
    /// Definition 3.9 chain bundle priced by a shared-graph Min-Cut. PTIME.
    ChainBundleFlow,
    /// Cycle queries via the exact certificate engine (Theorem 3.15).
    CycleCertificates,
    /// Component-wise composition (Proposition 3.14); methods per part.
    Disconnected(Vec<PricingMethod>),
    /// Boolean query, true on `D`: cheapest secured witness.
    BooleanWitness,
    /// Boolean query, false on `D`: priced as its fullification.
    BooleanEmpty(Box<PricingMethod>),
    /// Exact hitting set over determinacy certificates (full CQs).
    ExactCertificates,
    /// Exact subset search over Equation 2 (any monotone query).
    ExactSubset,
    /// Budget-exhausted fallback: the cheapest full-attribute cover of
    /// every mentioned relation — always a determining set, hence a sound
    /// over-estimate (only ever paired with `QuoteQuality::UpperBound`).
    StructuralCover,
    /// The empty query bundle (price 0, Proposition 2.8).
    Trivial,
}

/// A priced query: the arbitrage-price plus the realizing purchase.
#[derive(Clone, Debug)]
pub struct Quote {
    /// The arbitrage-price `pS_D(Q)`; `INFINITE` when the seller's price
    /// list cannot determine the query.
    pub price: Price,
    /// The views of the cheapest support, against the seller's original
    /// price list.
    pub views: Vec<SelectionView>,
    /// The engine that produced the quote.
    pub method: PricingMethod,
    /// The query's dichotomy class.
    pub class: QueryClass,
    /// Whether `price` is the exact arbitrage-price or a budget-degraded
    /// (but still arbitrage-free) over-estimate.
    pub quality: QuoteQuality,
    /// Sound lower bound on the true arbitrage-price; equals `price` for
    /// exact quotes, brackets it from below for degraded ones.
    pub lower_bound: Price,
}

impl Quote {
    /// A human-readable, multi-line explanation of the quote: what class
    /// the query fell into, which engine priced it, and the itemized views
    /// the arbitrage-price stands for.
    pub fn explain(&self, catalog: &Catalog, prices: &PriceList) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "dichotomy class : {:?}", self.class);
        let _ = writeln!(
            out,
            "pricing engine  : {:?}{}",
            self.method,
            match &self.method {
                PricingMethod::ChainFlow | PricingMethod::ChainBundleFlow =>
                    "  (PTIME Min-Cut, Theorem 3.7)",
                PricingMethod::CycleCertificates => "  (Theorem 3.15)",
                PricingMethod::BooleanWitness => "  (cheapest secured witness)",
                PricingMethod::ExactCertificates | PricingMethod::ExactSubset =>
                    "  (exact engine — NP-complete class)",
                PricingMethod::StructuralCover => "  (budget-exhausted fallback)",
                _ => "",
            }
        );
        if !self.quality.is_exact() {
            let _ = writeln!(
                out,
                "quality         : UPPER BOUND — the budget ran out; the true \
                 arbitrage-price lies in [{}, {}]. Selling at the quoted price \
                 is still arbitrage-free (over-estimates never create arbitrage).",
                self.lower_bound, self.price
            );
        }
        if self.price.is_infinite() {
            let _ = write!(
                out,
                "price           : ∞ — the explicit price points do not determine this query"
            );
            return out;
        }
        let _ = writeln!(out, "price           : {}", self.price);
        let _ = writeln!(
            out,
            "cheapest determining view set ({} view(s)):",
            self.views.len()
        );
        for v in &self.views {
            let _ = writeln!(out, "  {} @ {}", v.display(catalog.schema()), prices.get(v));
        }
        let _ = write!(
            out,
            "any other way to answer the query from priced views costs at least this much \
             (arbitrage-freeness, Definition 2.7)"
        );
        out
    }
}

/// Internal engine outcome, assembled into a [`Quote`] at the façade.
struct Outcome {
    price: Price,
    views: Vec<SelectionView>,
    method: PricingMethod,
    quality: QuoteQuality,
    lower_bound: Price,
}

impl Outcome {
    fn exact(price: Price, views: Vec<SelectionView>, method: PricingMethod) -> Outcome {
        Outcome {
            price,
            views,
            method,
            quality: QuoteQuality::Exact,
            lower_bound: price,
        }
    }

    fn from_result(r: ExactResult, method: PricingMethod) -> Outcome {
        Outcome {
            price: r.price,
            views: r.views,
            method,
            quality: r.quality,
            lower_bound: r.lower_bound,
        }
    }
}

/// Count a budget exhaustion against the engine that degraded; the
/// registry's `qbdp_budget_exhausted_*` family breaks "degraded quote"
/// down by which engine ran dry.
fn note_exhaustion(ctr: qbdp_obs::Ctr, quality: QuoteQuality) {
    if !quality.is_exact() {
        qbdp_obs::record(ctr, 1);
    }
}

/// Static label for a dichotomy class, for trace-span details.
fn class_label(class: &QueryClass) -> &'static str {
    match class {
        QueryClass::Disconnected(_) => "disconnected",
        QueryClass::GeneralizedChain => "gchq",
        QueryClass::Cycle(_) => "cycle",
        QueryClass::NpComplete(_) => "np_complete",
        QueryClass::OutsideDichotomy => "outside_dichotomy",
    }
}

/// The pricing engine: a catalog, an instance, and a selection price list.
#[derive(Clone, Debug)]
pub struct Pricer {
    catalog: Catalog,
    instance: Instance,
    prices: PriceList,
}

impl Pricer {
    /// Assemble a pricer. The instance must satisfy the catalog's inclusion
    /// constraints; the price list is *not* required to be consistent —
    /// call [`Pricer::check_consistency`] to validate it (Theorem 2.15
    /// makes the arbitrage-price meaningful only for consistent lists).
    pub fn new(
        catalog: Catalog,
        instance: Instance,
        prices: PriceList,
    ) -> Result<Self, PricingError> {
        Ok(Pricer::checked(catalog.check(instance)?, prices))
    }

    /// [`Pricer::new`] over an instance already checked against its
    /// catalog (by [`Catalog::check`] or the `.qdp` reader), so the check
    /// is not run again.
    pub fn checked(data: CheckedInstance, prices: PriceList) -> Self {
        let (catalog, instance) = data.into_parts();
        Pricer {
            catalog,
            instance,
            prices,
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The price list.
    pub fn prices(&self) -> &PriceList {
        &self.prices
    }

    /// Proposition 3.2 violations (empty ⇒ consistent).
    pub fn check_consistency(&self) -> Vec<ListArbitrage> {
        find_list_arbitrage(&self.catalog, &self.prices)
    }

    /// Revise the price of one selection view, keeping the list
    /// consistent. The list must be consistent before the call (it is
    /// after [`Pricer::check_consistency`] comes back empty, and every
    /// accepted revision keeps it so). Only the view's relation is
    /// re-checked (Proposition 3.2 with Lemma 3.1), in O(arity) reads of
    /// the memoized full covers, which the accepted write then adjusts in
    /// O(1) ([`revision_arbitrage`]; [`PriceList::set`]). A revision that
    /// would admit arbitrage is refused with the first violation
    /// [`find_list_arbitrage`] would report on the revised list, and
    /// leaves the list untouched.
    pub fn revise_price(&mut self, view: SelectionView, price: Price) -> Result<(), ListArbitrage> {
        if let Some(v) = revision_arbitrage(&self.catalog, &self.prices, &view, price) {
            return Err(v);
        }
        self.prices.set(view, price);
        Ok(())
    }

    /// Insert tuples (the dynamic setting of §2.7 — insertions only). Every
    /// new tuple is checked against its columns before any is inserted, so
    /// a rejected batch changes nothing; the relations already held are
    /// not re-checked.
    pub fn insert(
        &mut self,
        rel: qbdp_catalog::RelId,
        tuples: impl IntoIterator<Item = qbdp_catalog::Tuple>,
    ) -> Result<usize, PricingError> {
        let tuples: Vec<qbdp_catalog::Tuple> = tuples.into_iter().collect();
        for t in &tuples {
            self.catalog.check_tuple(rel, t.values())?;
        }
        Ok(self.instance.insert_all(rel, tuples)?)
    }

    /// Parse a datalog rule against this pricer's schema and price it.
    pub fn price_rule(&self, rule: &str) -> Result<Quote, PricingError> {
        let q = qbdp_query::parser::parse_rule(self.catalog.schema(), rule)?;
        self.price_cq(&q)
    }

    /// [`Pricer::price_rule`] under a [`Budget`].
    pub fn price_rule_within(&self, rule: &str, budget: &Budget) -> Result<Quote, PricingError> {
        let q = qbdp_query::parser::parse_rule(self.catalog.schema(), rule)?;
        self.price_cq_within(&q, budget)
    }

    /// Independently audit a quote: the quoted views must (a) sum to the
    /// quoted price against the current price list, and (b) actually
    /// determine the query (checked with the Theorem 3.3 oracle — a
    /// different code path than any pricing engine). A buyer can run this
    /// before paying; a `false` return means the quote is stale (the data
    /// changed) or wrong.
    pub fn verify_quote(&self, q: &ConjunctiveQuery, quote: &Quote) -> Result<bool, PricingError> {
        if quote.price.is_infinite() {
            return Ok(quote.views.is_empty());
        }
        let total: Price = quote.views.iter().map(|v| self.prices.get(v)).sum();
        if total != quote.price {
            return Ok(false);
        }
        let vs: qbdp_determinacy::selection::ViewSet = quote.views.iter().cloned().collect();
        Ok(qbdp_determinacy::selection::determines_monotone_cq(
            &self.catalog,
            &self.instance,
            &vs,
            q,
        )?)
    }

    /// Price a conjunctive query.
    pub fn price_cq(&self, q: &ConjunctiveQuery) -> Result<Quote, PricingError> {
        self.price_cq_within(q, &Budget::unlimited())
    }

    /// Price a conjunctive query under a [`Budget`].
    ///
    /// With an unlimited budget this is exactly [`Pricer::price_cq`]. A
    /// limited budget makes every engine degrade instead of failing: the
    /// returned quote's [`Quote::quality`] says whether the price is exact
    /// or a sound (arbitrage-free) over-estimate, with
    /// [`Quote::lower_bound`] bracketing the truth from below.
    pub fn price_cq_within(
        &self,
        q: &ConjunctiveQuery,
        budget: &Budget,
    ) -> Result<Quote, PricingError> {
        crate::fault::maybe_panic();
        let class = {
            let mut span = qbdp_obs::trace::span("classify");
            let class = classify(q);
            span.detail(class_label(&class));
            class
        };
        let o = self.dispatch_within(q, &class, budget)?;
        let mut views = o.views;
        views.sort();
        views.dedup();
        Ok(Quote {
            price: o.price,
            views,
            method: o.method,
            class,
            quality: o.quality,
            lower_bound: o.lower_bound,
        })
    }

    /// Price a UCQ: single-CQ UCQs go through the dichotomy dispatch;
    /// genuine unions use the exact subset engine (Equation 2 verbatim).
    pub fn price_ucq(&self, q: &Ucq) -> Result<Quote, PricingError> {
        self.price_ucq_within(q, &Budget::unlimited())
    }

    /// [`Pricer::price_ucq`] under a [`Budget`].
    pub fn price_ucq_within(&self, q: &Ucq, budget: &Budget) -> Result<Quote, PricingError> {
        match q.as_single_cq() {
            Some(cq) => self.price_cq_within(cq, budget),
            None => self.price_bundle_within(&Bundle::single(q.clone()), budget),
        }
    }

    /// Price a query bundle (the general object of §2). A bundle of full
    /// chain queries that share only prefixes or suffixes (Definition 3.9)
    /// prices in PTIME by one shared-graph Min-Cut
    /// ([`crate::chain::chain_bundle_price`]); other bundles of full CQs go
    /// to the exact certificate engine, and the rest to exact subset
    /// search.
    pub fn price_bundle(&self, bundle: &Bundle) -> Result<Quote, PricingError> {
        self.price_bundle_within(bundle, &Budget::unlimited())
    }

    /// [`Pricer::price_bundle`] under a [`Budget`].
    pub fn price_bundle_within(
        &self,
        bundle: &Bundle,
        budget: &Budget,
    ) -> Result<Quote, PricingError> {
        crate::fault::maybe_panic();
        if bundle.is_empty() {
            return Ok(Quote {
                price: Price::ZERO,
                views: Vec::new(),
                method: PricingMethod::Trivial,
                class: QueryClass::GeneralizedChain,
                quality: QuoteQuality::Exact,
                lower_bound: Price::ZERO,
            });
        }
        // Bundles of full CQs go through the shared-certificate engine
        // (Lemma 2.6(b): determine every member), which both scales better
        // and realizes Proposition 2.8's subadditivity exactly.
        let full_cqs: Option<Vec<&ConjunctiveQuery>> = bundle
            .queries()
            .iter()
            .map(|u| u.as_single_cq().filter(|cq| analysis::is_full(cq)))
            .collect();
        let res = if let Some(cqs) = &full_cqs {
            // A bundle of chain queries sharing only prefixes/suffixes
            // (Definition 3.9) prices in PTIME through the shared-graph
            // Min-Cut; anything else falls back to exact certificates.
            let owned: Vec<ConjunctiveQuery> = cqs.iter().map(|q| (*q).clone()).collect();
            let shared_cut = if budget.charge(64 + self.instance.total_tuples() as u64) {
                crate::chain::bundle::chain_bundle_price(
                    &self.catalog,
                    &self.instance,
                    &self.prices,
                    &owned,
                    &crate::normalize::Provenance::identity(),
                )
                .ok()
            } else {
                None
            };
            match shared_cut {
                Some(r) => Outcome::exact(r.price, r.views, PricingMethod::ChainBundleFlow),
                None if budget.is_exhausted() => {
                    let (price, views) =
                        structural_cover(&self.catalog, &self.prices, relevant_rels(bundle));
                    Outcome::from_result(
                        ExactResult::degraded(price, views, Price::ZERO),
                        PricingMethod::StructuralCover,
                    )
                }
                None => {
                    let mut span = qbdp_obs::trace::span("hitting_set");
                    span.detail("bundle_certs");
                    let r = crate::exact::certificates::certificate_price_bundle_within(
                        &self.catalog,
                        &self.instance,
                        &self.prices,
                        cqs,
                        CertificateConfig::default(),
                        budget,
                    )?;
                    note_exhaustion(qbdp_obs::Ctr::BudgetExhaustedCerts, r.quality);
                    Outcome::from_result(r, PricingMethod::ExactCertificates)
                }
            }
        } else {
            let mut span = qbdp_obs::trace::span("hitting_set");
            span.detail("bundle_subset");
            let r = subset_price_within(
                &self.catalog,
                &self.instance,
                &self.prices,
                bundle,
                SubsetConfig::default(),
                budget,
            )?;
            note_exhaustion(qbdp_obs::Ctr::BudgetExhaustedSubset, r.quality);
            Outcome::from_result(r, PricingMethod::ExactSubset)
        };
        let class = bundle
            .queries()
            .iter()
            .filter_map(Ucq::as_single_cq)
            .map(classify)
            .next()
            .unwrap_or(QueryClass::OutsideDichotomy);
        Ok(Quote {
            price: res.price,
            views: res.views,
            method: res.method,
            class,
            quality: res.quality,
            lower_bound: res.lower_bound,
        })
    }

    /// The budget-exhausted fallback: the structural relation cover, which
    /// determines any monotone query over the mentioned relations.
    fn structural_outcome(&self, q: &ConjunctiveQuery) -> Outcome {
        qbdp_obs::trace::event("structural_fallback", "relation_cover");
        let (price, views) = structural_cover(&self.catalog, &self.prices, relevant_rels_cq(q));
        Outcome::from_result(
            ExactResult::degraded(price, views, Price::ZERO),
            PricingMethod::StructuralCover,
        )
    }

    fn dispatch_within(
        &self,
        q: &ConjunctiveQuery,
        class: &QueryClass,
        budget: &Budget,
    ) -> Result<Outcome, PricingError> {
        if q.atoms().is_empty() {
            return Ok(Outcome::exact(
                Price::ZERO,
                Vec::new(),
                PricingMethod::Trivial,
            ));
        }
        if budget.is_exhausted() {
            return Ok(self.structural_outcome(q));
        }
        match class {
            QueryClass::Disconnected(parts) => {
                let components = analysis::connected_components(q);
                let mut priced = Vec::with_capacity(components.len());
                let mut methods = Vec::with_capacity(components.len());
                let mut lbs: Vec<Price> = Vec::with_capacity(components.len());
                let mut quality = QuoteQuality::Exact;
                for (comp, part_class) in components.iter().zip(parts) {
                    let sub = component_query(q, comp);
                    let o = self.dispatch_within(&sub, part_class, budget)?;
                    let empty = !eval::is_satisfiable(&sub, &self.instance)?;
                    if !o.quality.is_exact() {
                        quality = QuoteQuality::UpperBound;
                    }
                    priced.push(ComponentPrice {
                        empty,
                        price: o.price,
                        views: o.views,
                    });
                    lbs.push(o.lower_bound);
                    methods.push(o.method);
                }
                let (price, views) = combine(&priced);
                let method = PricingMethod::Disconnected(methods);
                if quality.is_exact() {
                    return Ok(Outcome::exact(price, views, method));
                }
                // Proposition 3.14 is monotone in each component price, so
                // applying the same combination to the component lower
                // bounds bounds the true price from below: sum when all
                // components are nonempty, min over the empty ones else.
                let lower_bound = if priced.iter().all(|c| !c.empty) {
                    lbs.iter().fold(Price::ZERO, |a, &b| a.saturating_add(b))
                } else {
                    priced
                        .iter()
                        .zip(&lbs)
                        .filter(|(c, _)| c.empty)
                        .map(|(_, &lb)| lb)
                        .min()
                        .unwrap_or(Price::ZERO)
                };
                Ok(Outcome::from_result(
                    ExactResult::degraded(price, views, lower_bound),
                    method,
                ))
            }
            QueryClass::GeneralizedChain => self.price_gchq_within(q, budget),
            QueryClass::Cycle(_) => {
                let problem = Problem::new(
                    self.catalog.clone(),
                    self.instance.clone(),
                    self.prices.clone(),
                    q.clone(),
                );
                let mut span = qbdp_obs::trace::span("hitting_set");
                span.detail("cycle_certs");
                let r = cycle_price_within(&problem, CertificateConfig::default(), budget)?;
                note_exhaustion(qbdp_obs::Ctr::BudgetExhaustedCerts, r.quality);
                Ok(Outcome::from_result(r, PricingMethod::CycleCertificates))
            }
            QueryClass::NpComplete(_) | QueryClass::OutsideDichotomy => {
                if q.is_boolean() {
                    return self.price_boolean_within(q, budget);
                }
                if analysis::is_full(q) {
                    let mut span = qbdp_obs::trace::span("hitting_set");
                    span.detail("certs");
                    let r = certificate_price_within(
                        &self.catalog,
                        &self.instance,
                        &self.prices,
                        q,
                        CertificateConfig::default(),
                        budget,
                    )?;
                    note_exhaustion(qbdp_obs::Ctr::BudgetExhaustedCerts, r.quality);
                    return Ok(Outcome::from_result(r, PricingMethod::ExactCertificates));
                }
                let mut span = qbdp_obs::trace::span("hitting_set");
                span.detail("subset");
                let r = subset_price_within(
                    &self.catalog,
                    &self.instance,
                    &self.prices,
                    &Bundle::from(q.clone()),
                    SubsetConfig::default(),
                    budget,
                )?;
                note_exhaustion(qbdp_obs::Ctr::BudgetExhaustedSubset, r.quality);
                Ok(Outcome::from_result(r, PricingMethod::ExactSubset))
            }
        }
    }

    /// Boolean queries (any class): witness cover when true, fullification
    /// when false.
    fn price_boolean_within(
        &self,
        q: &ConjunctiveQuery,
        budget: &Budget,
    ) -> Result<Outcome, PricingError> {
        // Satisfiability and witness search both scan the instance.
        if !budget.charge(64 + self.instance.total_tuples() as u64) {
            return Ok(self.structural_outcome(q));
        }
        if eval::is_satisfiable(q, &self.instance)? {
            let (price, views) =
                secure_witness_price(&self.catalog, &self.instance, &self.prices, q)?;
            return Ok(Outcome::exact(price, views, PricingMethod::BooleanWitness));
        }
        let full = q.with_head(q.body_vars())?;
        if full.is_boolean() {
            // All-constant body: fullification is the query itself (still
            // boolean). It is vacuously full, so the certificate engine
            // prices its single emptiness constraint directly.
            let r = certificate_price_within(
                &self.catalog,
                &self.instance,
                &self.prices,
                &full,
                CertificateConfig::default(),
                budget,
            )?;
            let method = PricingMethod::BooleanEmpty(Box::new(PricingMethod::ExactCertificates));
            return Ok(Outcome {
                price: r.price,
                views: r.views,
                method,
                quality: r.quality,
                lower_bound: r.lower_bound,
            });
        }
        let class = classify(&full);
        let o = self.dispatch_within(&full, &class, budget)?;
        Ok(Outcome {
            method: PricingMethod::BooleanEmpty(Box::new(o.method)),
            ..o
        })
    }

    /// The GChQ pipeline (Theorem 3.7) under `budget`: boolean shortcut,
    /// then `gchq::price_branches`, whose result this degrades
    /// soundly when the budget cut Step 3 or a branch's flow short.
    fn price_gchq_within(
        &self,
        q: &ConjunctiveQuery,
        budget: &Budget,
    ) -> Result<Outcome, PricingError> {
        if q.is_boolean() {
            return self.price_boolean_within(q, budget);
        }
        let run = crate::gchq::price_branches(self, q, budget, false)?;
        if !run.complete {
            qbdp_obs::record(qbdp_obs::Ctr::BudgetExhaustedStep3, 1);
        }
        let best = run.minimum;
        if run.complete && run.finished {
            return Ok(Outcome::exact(
                best.price,
                best.views(),
                PricingMethod::ChainFlow,
            ));
        }
        // The true price is the minimum over all branch totals. Finished
        // branches give genuine purchase totals (each an upper bound);
        // interrupted flows give per-branch lower bounds, and the minimum
        // of per-branch lower bounds under-estimates the minimum total.
        // An unexplored branch could be cheaper than anything seen, so the
        // only sound floor with missing branches is ZERO.
        let lower_bound = if run.complete { run.floor } else { Price::ZERO };
        if best.price.is_finite() {
            return Ok(Outcome::from_result(
                ExactResult::degraded(best.price, best.views(), lower_bound),
                PricingMethod::ChainFlow,
            ));
        }
        let mut fallback = self.structural_outcome(q);
        fallback.lower_bound = lower_bound.min(fallback.price);
        Ok(fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::certificates::certificate_price;
    use crate::exact::subset::subset_price;
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

    #[test]
    fn figure1_quote() {
        let p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let quote = p.price_cq(&q).unwrap();
        assert_eq!(quote.price, Price::dollars(6));
        assert_eq!(quote.method, PricingMethod::ChainFlow);
        assert_eq!(quote.class, QueryClass::GeneralizedChain);
        assert_eq!(quote.views.len(), 6);
        assert!(p.check_consistency().is_empty());
    }

    #[test]
    fn flow_agrees_with_both_exact_engines_on_figure1() {
        let p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let flow = p.price_cq(&q).unwrap();
        let cert = certificate_price(
            &p.catalog,
            &p.instance,
            &p.prices,
            &q,
            CertificateConfig::default(),
        )
        .unwrap();
        let subset = subset_price(
            &p.catalog,
            &p.instance,
            &p.prices,
            &Bundle::from(q.clone()),
            SubsetConfig::default(),
        )
        .unwrap();
        assert_eq!(flow.price, cert.price);
        assert_eq!(flow.price, subset.price);
    }

    #[test]
    fn hanging_vars_priced_via_branches() {
        // Q(x, y, z) = R(x, y), S(y, z), T(z): x hangs.
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
        let pricer = Pricer::new(cat, d, prices).unwrap();
        let q = parse_rule(
            pricer.catalog().schema(),
            "Q(x, y, z) :- R(x, y), S(y, z), T(z)",
        )
        .unwrap();
        let quote = pricer.price_cq(&q).unwrap();
        // Cross-validate against both exact engines.
        let cert = certificate_price(
            &pricer.catalog,
            &pricer.instance,
            &pricer.prices,
            &q,
            CertificateConfig::default(),
        )
        .unwrap();
        assert_eq!(quote.price, cert.price);
        assert!(quote.price.is_finite());
    }

    #[test]
    fn boolean_quotes() {
        let p = figure1_pricer();
        // True on D: secure the (a1, b1) witness = 3 views at $1.
        let q = parse_rule(p.catalog().schema(), "B() :- R(x), S(x, y), T(y)").unwrap();
        let quote = p.price_cq(&q).unwrap();
        assert_eq!(quote.price, Price::dollars(3));
        assert_eq!(quote.method, PricingMethod::BooleanWitness);
        // False on D: Q joins through T(b2) which is absent... use S(a3, y):
        let q = parse_rule(p.catalog().schema(), "B() :- R(x), S(x, y), T(y), x = 'a3'").unwrap();
        let quote = p.price_cq(&q).unwrap();
        assert!(matches!(quote.method, PricingMethod::BooleanEmpty(_)));
        assert!(quote.price.is_finite());
    }

    #[test]
    fn disconnected_quote() {
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("A", &["X"], &col)
            .uniform_relation("B", &["X"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("A").unwrap(), tuple![0])
            .unwrap();
        d.insert(cat.schema().rel_id("B").unwrap(), tuple![1])
            .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let pricer = Pricer::new(cat, d, prices).unwrap();
        let q = parse_rule(pricer.catalog().schema(), "Q(x, y) :- A(x), B(y)").unwrap();
        let quote = pricer.price_cq(&q).unwrap();
        // Both components nonempty: sum of two full covers ($2 each).
        assert_eq!(quote.price, Price::dollars(4));
        assert!(matches!(quote.method, PricingMethod::Disconnected(_)));
    }

    #[test]
    fn np_hard_queries_priced_exactly() {
        // H1 on a tiny instance.
        let col = Column::int_range(0, 2);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y", "Z"], &col)
            .uniform_relation("S", &["X"], &col)
            .uniform_relation("T", &["X"], &col)
            .uniform_relation("U", &["X"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("R").unwrap(), tuple![0, 1, 0])
            .unwrap();
        d.insert(cat.schema().rel_id("S").unwrap(), tuple![0])
            .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let pricer = Pricer::new(cat, d, prices).unwrap();
        let q = parse_rule(
            pricer.catalog().schema(),
            "H1(x, y, z) :- R(x, y, z), S(x), T(y), U(z)",
        )
        .unwrap();
        let quote = pricer.price_cq(&q).unwrap();
        assert_eq!(quote.method, PricingMethod::ExactCertificates);
        assert!(quote.price.is_finite());
        assert!(matches!(quote.class, QueryClass::NpComplete(_)));
    }

    #[test]
    fn empty_bundle_is_free() {
        let p = figure1_pricer();
        let quote = p.price_bundle(&Bundle::empty()).unwrap();
        assert_eq!(quote.price, Price::ZERO);
        assert_eq!(quote.method, PricingMethod::Trivial);
    }

    #[test]
    fn insertions_are_validated() {
        let mut p = figure1_pricer();
        let r = p.catalog().schema().rel_id("R").unwrap();
        assert_eq!(p.insert(r, [tuple!["a3"]]).unwrap(), 1);
        // Outside the column: rejected, instance unchanged.
        assert!(p.insert(r, [tuple!["zz"]]).is_err());
        assert_eq!(p.instance().relation(r).len(), 3);
        // A batch with one bad tuple inserts none of them.
        assert!(p.insert(r, [tuple!["a4"], tuple!["a1", "b1"]]).is_err());
        assert!(!p.instance().relation(r).contains(tuple!["a4"].values()));
        // The inserted tuple lands only in the pricer's copy.
        let before = p.instance().clone();
        assert_eq!(p.insert(r, [tuple!["a4"]]).unwrap(), 1);
        assert_eq!(before.relation(r).len(), 3);
    }

    #[test]
    fn price_revisions_are_checked_on_their_relation() {
        let mut p = figure1_pricer();
        let cat = p.catalog().clone();
        let view = |dotted: &str, v: &str| {
            SelectionView::new(cat.schema().resolve_attr(dotted).unwrap(), Value::text(v))
        };
        // The full cover of S.Y costs $3: σ_{S.X=a1} may rise to $3, not $4.
        p.revise_price(view("S.X", "a1"), Price::dollars(3))
            .unwrap();
        let err = p
            .revise_price(view("S.X", "a1"), Price::dollars(4))
            .unwrap_err();
        assert_eq!(err.cover_price, Price::dollars(3));
        assert_eq!(p.prices().get(&view("S.X", "a1")), Price::dollars(3));
        // Cutting S.Y under the cover S.X=a1 relies on is refused too.
        assert!(p.revise_price(view("S.Y", "b1"), Price::ZERO).is_err());
        assert!(p.check_consistency().is_empty());
    }
}
