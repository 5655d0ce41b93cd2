//! The seller's explicit price points.
//!
//! Two representations, mirroring the paper:
//!
//! * [`PriceSchedule`] — the general framework of §2.4: finitely many
//!   [`PricePoint`]s, each a *bundle of views* sold together at one price
//!   (views may be whole relations, selections, or arbitrary UCQ bundles);
//! * [`PriceList`] — the practical setting of §3: a partial function
//!   `p : Σ → ℝ⁺` pricing individual **selection views** `σ_{R.X=a}`.
//!   Views absent from the list are not for sale ([`Price::INFINITE`]).

use crate::money::Price;
use qbdp_catalog::{AttrRef, Catalog, FxHashMap, RelId, Value};
use qbdp_determinacy::selection::{SelectionView, ViewSet};
use qbdp_query::ast::Ucq;
use qbdp_query::bundle::Bundle;

/// The views sold by one price point.
#[derive(Clone, Debug)]
pub enum ViewDef {
    /// Selections and/or whole relations, priced as one bundle. Supports
    /// the PTIME determinacy oracle.
    Atomic(Vec<AtomicView>),
    /// An arbitrary bundle of UCQs (general §2 framework). Determinacy
    /// falls back to brute-force world enumeration — tiny instances only.
    Queries(Bundle),
}

/// An atomic view: a selection `σ_{R.X=a}` or a whole relation `R`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtomicView {
    /// `σ_{R.X=a}`.
    Selection(SelectionView),
    /// The full relation `R` (the building block of `ID`).
    Relation(RelId),
}

impl ViewDef {
    /// The entire dataset `ID` — every relation (paper §2.4 assumes
    /// `(ID, B) ∈ S`).
    pub fn identity(catalog: &Catalog) -> ViewDef {
        ViewDef::Atomic(
            catalog
                .schema()
                .rel_ids()
                .map(AtomicView::Relation)
                .collect(),
        )
    }

    /// Equivalent [`ViewSet`] coverage for atomic views: a whole-relation
    /// view fixes exactly the same tuples as the full cover of any one of
    /// its attributes over the declared column (possible worlds respect
    /// columns), so it is encoded as the full cover of attribute 0.
    pub fn as_viewset(&self, catalog: &Catalog) -> Option<ViewSet> {
        match self {
            ViewDef::Atomic(avs) => {
                let mut out = ViewSet::new();
                for av in avs {
                    match av {
                        AtomicView::Selection(s) => {
                            out.insert(s.clone());
                        }
                        AtomicView::Relation(r) => {
                            let attr = AttrRef::new(*r, 0);
                            for v in catalog.column(attr).iter() {
                                out.insert(SelectionView::new(attr, v.clone()));
                            }
                        }
                    }
                }
                Some(out)
            }
            ViewDef::Queries(_) => None,
        }
    }

    /// The views as a query bundle (always possible; used by the
    /// brute-force oracle and when the views themselves must be priced).
    pub fn as_bundle(&self, catalog: &Catalog) -> Bundle {
        match self {
            ViewDef::Queries(b) => b.clone(),
            ViewDef::Atomic(avs) => {
                let schema = catalog.schema();
                let mut queries = Vec::new();
                for av in avs {
                    match av {
                        AtomicView::Selection(s) => {
                            queries.push(Ucq::single(s.to_query(schema)));
                        }
                        AtomicView::Relation(r) => {
                            // The identity query for one relation.
                            #[expect(
                                clippy::expect_used,
                                reason = "identity over a built schema is well-formed"
                            )]
                            let id =
                                Bundle::identity(schema).expect("identity bundle is well-formed");
                            queries.push(id.queries()[r.0 as usize].clone());
                        }
                    }
                }
                Bundle::new(queries)
            }
        }
    }
}

/// One explicit price point `(V, p)`.
#[derive(Clone, Debug)]
pub struct PricePoint {
    /// A label for explanations ("WA businesses", "entire dataset").
    pub name: String,
    /// The views sold.
    pub views: ViewDef,
    /// The price.
    pub price: Price,
}

impl PricePoint {
    /// Construct a price point.
    pub fn new(name: impl Into<String>, views: ViewDef, price: Price) -> Self {
        PricePoint {
            name: name.into(),
            views,
            price,
        }
    }
}

/// A finite set of price points `S = {(V_1, p_1), …, (V_m, p_m)}` (§2.4).
#[derive(Clone, Debug, Default)]
pub struct PriceSchedule {
    points: Vec<PricePoint>,
}

impl PriceSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        PriceSchedule::default()
    }

    /// Append a price point.
    pub fn add(&mut self, point: PricePoint) -> &mut Self {
        self.points.push(point);
        self
    }

    /// The points.
    pub fn points(&self) -> &[PricePoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether every point is atomic (selections / whole relations), which
    /// enables the PTIME determinacy oracle.
    pub fn all_atomic(&self) -> bool {
        self.points
            .iter()
            .all(|p| matches!(p.views, ViewDef::Atomic(_)))
    }
}

/// The §3 price list: individual prices on selection views, `p : Σ → ℝ⁺`
/// (partial; missing ⇒ not for sale).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PriceList {
    prices: FxHashMap<AttrRef, FxHashMap<Value, Price>>,
    len: usize,
}

impl PriceList {
    /// An empty list (nothing for sale).
    pub fn new() -> Self {
        PriceList::default()
    }

    /// Price every selection view in `Σ` uniformly (common in synthetic
    /// workloads and in Example 3.8, where every view costs $1).
    pub fn uniform(catalog: &Catalog, price: Price) -> Self {
        let mut pl = PriceList::new();
        for attr in catalog.schema().all_attrs() {
            for v in catalog.column(attr).iter() {
                pl.set(SelectionView::new(attr, v.clone()), price);
            }
        }
        pl
    }

    /// Set the price of one view; replaces any previous price.
    pub fn set(&mut self, view: SelectionView, price: Price) -> &mut Self {
        let slot = self.prices.entry(view.attr).or_default();
        if slot.insert(view.value, price).is_none() {
            self.len += 1;
        }
        self
    }

    /// Remove a view from sale. Returns whether it was priced.
    pub fn remove(&mut self, view: &SelectionView) -> bool {
        let removed = self
            .prices
            .get_mut(&view.attr)
            .is_some_and(|m| m.remove(&view.value).is_some());
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Remove every price on an attribute (Step 3, branch "not covered").
    pub fn remove_attr(&mut self, attr: AttrRef) {
        if let Some(m) = self.prices.remove(&attr) {
            self.len -= m.len();
        }
    }

    /// Price of a view; [`Price::INFINITE`] when not for sale.
    pub fn get(&self, view: &SelectionView) -> Price {
        self.prices
            .get(&view.attr)
            .and_then(|m| m.get(&view.value))
            .copied()
            .unwrap_or(Price::INFINITE)
    }

    /// Whether a view is on the list (at any price).
    pub fn is_priced(&self, view: &SelectionView) -> bool {
        self.prices
            .get(&view.attr)
            .is_some_and(|m| m.contains_key(&view.value))
    }

    /// Price of `σ_{attr=value}`.
    pub fn get_at(&self, attr: AttrRef, value: &Value) -> Price {
        self.prices
            .get(&attr)
            .and_then(|m| m.get(value))
            .copied()
            .unwrap_or(Price::INFINITE)
    }

    /// Number of priced views.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is priced.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The price of the **full cover** `Σ_{R.X}` — the sum over all column
    /// values; `INFINITE` if any value is unpriced.
    pub fn full_cover_price(&self, catalog: &Catalog, attr: AttrRef) -> Price {
        catalog
            .column(attr)
            .iter()
            .map(|v| self.get_at(attr, v))
            .sum()
    }

    /// Whether relation `R` is (indirectly) for sale: some attribute's full
    /// cover is finite. By Lemma 3.1 this is exactly `D ⊢ S ։ R`.
    pub fn relation_sellable(&self, catalog: &Catalog, rel: RelId) -> bool {
        let arity = catalog.schema().relation(rel).arity();
        (0..arity).any(|pos| {
            self.full_cover_price(catalog, AttrRef::new(rel, pos as u32))
                .is_finite()
        })
    }

    /// Whether the whole dataset is for sale (`D ⊢ S ։ ID`): every relation
    /// is sellable. Required by the framework (§2.4 / §3).
    pub fn sells_identity(&self, catalog: &Catalog) -> bool {
        catalog
            .schema()
            .rel_ids()
            .all(|r| self.relation_sellable(catalog, r))
    }

    /// Price of the whole dataset bought view-by-view: sum over relations of
    /// the cheapest finite full cover.
    pub fn identity_price(&self, catalog: &Catalog) -> Price {
        catalog
            .schema()
            .rel_ids()
            .map(|r| {
                let arity = catalog.schema().relation(r).arity();
                (0..arity)
                    .map(|pos| self.full_cover_price(catalog, AttrRef::new(r, pos as u32)))
                    .min()
                    .unwrap_or(Price::INFINITE)
            })
            .sum()
    }

    /// Iterate over the priced views.
    pub fn iter(&self) -> impl Iterator<Item = (SelectionView, Price)> + '_ {
        self.prices.iter().flat_map(|(attr, m)| {
            m.iter().map(move |(v, p)| {
                (
                    SelectionView {
                        attr: *attr,
                        value: v.clone(),
                    },
                    *p,
                )
            })
        })
    }

    /// The priced views on one attribute.
    pub fn views_on(&self, attr: AttrRef) -> impl Iterator<Item = (&Value, Price)> + '_ {
        self.prices
            .get(&attr)
            .into_iter()
            .flat_map(|m| m.iter().map(|(v, p)| (v, *p)))
    }

    /// Set all views of an attribute (over the catalog's column) to a fixed
    /// price. `Price::ZERO` encodes "given out for free" in Step 3's
    /// full-cover branch.
    pub fn set_attr_uniform(&mut self, catalog: &Catalog, attr: AttrRef, price: Price) {
        for v in catalog.column(attr).iter() {
            self.set(SelectionView::new(attr, v.clone()), price);
        }
    }
}

impl FromIterator<(SelectionView, Price)> for PriceList {
    fn from_iter<T: IntoIterator<Item = (SelectionView, Price)>>(iter: T) -> Self {
        let mut pl = PriceList::new();
        for (v, p) in iter {
            pl.set(v, p);
        }
        pl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{CatalogBuilder, Column};

    fn cat() -> Catalog {
        CatalogBuilder::new()
            .relation("R", &[("X", Column::int_range(0, 3))])
            .relation(
                "S",
                &[
                    ("X", Column::int_range(0, 3)),
                    ("Y", Column::int_range(0, 2)),
                ],
            )
            .build()
            .unwrap()
    }

    fn sel(c: &Catalog, dotted: &str, v: i64) -> SelectionView {
        SelectionView::new(c.schema().resolve_attr(dotted).unwrap(), Value::Int(v))
    }

    #[test]
    fn get_set_remove() {
        let c = cat();
        let mut pl = PriceList::new();
        assert!(pl.get(&sel(&c, "R.X", 0)).is_infinite());
        pl.set(sel(&c, "R.X", 0), Price::dollars(5));
        assert_eq!(pl.get(&sel(&c, "R.X", 0)), Price::dollars(5));
        assert_eq!(pl.len(), 1);
        assert!(pl.is_priced(&sel(&c, "R.X", 0)));
        assert!(!pl.is_priced(&sel(&c, "R.X", 1)));
        pl.set(sel(&c, "R.X", 0), Price::dollars(7)); // replace
        assert_eq!(pl.len(), 1);
        assert_eq!(pl.get(&sel(&c, "R.X", 0)), Price::dollars(7));
        assert!(pl.remove(&sel(&c, "R.X", 0)));
        assert!(pl.is_empty());
    }

    #[test]
    fn full_cover_and_identity() {
        let c = cat();
        let mut pl = PriceList::uniform(&c, Price::dollars(1));
        let rx = c.schema().resolve_attr("R.X").unwrap();
        let sx = c.schema().resolve_attr("S.X").unwrap();
        let sy = c.schema().resolve_attr("S.Y").unwrap();
        assert_eq!(pl.full_cover_price(&c, rx), Price::dollars(3));
        assert_eq!(pl.full_cover_price(&c, sy), Price::dollars(2));
        assert!(pl.sells_identity(&c));
        // Cheapest ID: R via X ($3) + S via Y ($2).
        assert_eq!(pl.identity_price(&c), Price::dollars(5));
        // Unprice one S.Y view: S still sellable via X.
        pl.remove(&sel(&c, "S.Y", 0));
        assert!(pl.full_cover_price(&c, sy).is_infinite());
        assert!(pl.relation_sellable(&c, sx.rel));
        assert_eq!(pl.identity_price(&c), Price::dollars(6));
        // Unprice S.X too: S no longer sellable.
        pl.remove_attr(sx);
        assert!(!pl.sells_identity(&c));
        assert!(pl.identity_price(&c).is_infinite());
    }

    #[test]
    fn set_attr_uniform_zero() {
        let c = cat();
        let mut pl = PriceList::new();
        let sy = c.schema().resolve_attr("S.Y").unwrap();
        pl.set_attr_uniform(&c, sy, Price::ZERO);
        assert_eq!(pl.full_cover_price(&c, sy), Price::ZERO);
        assert_eq!(pl.views_on(sy).count(), 2);
    }

    #[test]
    fn schedule_atomicity() {
        let c = cat();
        let mut s = PriceSchedule::new();
        s.add(PricePoint::new(
            "ID",
            ViewDef::identity(&c),
            Price::dollars(100),
        ));
        assert!(s.all_atomic());
        assert_eq!(s.len(), 1);
        let vs = s.points()[0].views.as_viewset(&c).unwrap();
        // ID via attr-0 covers: R.X (3 values) + S.X (3 values).
        assert_eq!(vs.len(), 6);
        let b = s.points()[0].views.as_bundle(&c);
        assert_eq!(b.len(), 2);
    }
}
