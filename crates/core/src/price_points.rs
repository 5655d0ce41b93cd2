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
use qbdp_catalog::{AttrRef, Catalog, Column, FxHashMap, RelId, Value};
use qbdp_determinacy::selection::{SelectionView, ViewSet};
use qbdp_query::ast::Ucq;
use qbdp_query::bundle::Bundle;
use std::sync::{Arc, Mutex, PoisonError};

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

/// One attribute's prices: column value → price.
type PriceMap = FxHashMap<Value, Price>;

/// One attribute's prices, with the memoized price of its full cover.
#[derive(Debug, Default)]
pub(crate) struct AttrPrices {
    map: PriceMap,
    /// The sum of `map` over one column's values, keyed by that column's
    /// identity ([`Column::ptr_eq`]). The column is a clone, so it stays
    /// alive while the memo does: a freed column's storage can never be
    /// reused by another column that would then alias it. A sum over
    /// another column replaces it. [`AttrPrices::set`] keeps it in step
    /// with the one price it writes; every other write to `map` clears
    /// it.
    cover: Mutex<Option<(Column, Price)>>,
}

impl AttrPrices {
    fn new(map: PriceMap) -> Self {
        AttrPrices {
            map,
            cover: Mutex::new(None),
        }
    }

    /// The map, for a write: the memo is cleared first.
    fn map_mut(&mut self) -> &mut PriceMap {
        *self.cover.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
        &mut self.map
    }

    /// Price `value` at `price`; returns whether it was unpriced. The
    /// memo follows the write in O(1): a value outside the memo's column
    /// leaves the sum as it was, and one inside it swaps its old price
    /// for the new one ([`Price::replace_term`]). The memo is cleared
    /// only when that swap cannot be done — an old price, new price or
    /// sum that is `INFINITE` — so the next read re-sums.
    fn set(&mut self, value: Value, price: Price) -> bool {
        let memo = self.cover.get_mut().unwrap_or_else(PoisonError::into_inner);
        let in_column = memo
            .as_ref()
            .is_some_and(|(column, _)| column.contains(&value));
        let old = self.map.insert(value, price);
        if let (true, Some((_, sum))) = (in_column, &mut *memo) {
            match sum.replace_term(old.unwrap_or(Price::INFINITE), price) {
                Some(next) => *sum = next,
                None => *memo = None,
            }
        }
        old.is_none()
    }

    /// The sum of the map over `column`, read from the memo when it was
    /// taken over this column, else computed by `sum` and memoized in its
    /// place. A poisoned memo is still whole: it is only ever assigned
    /// whole.
    fn cover_price(&self, column: &Column, sum: impl FnOnce() -> Price) -> Price {
        let mut memo = self.cover.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((c, p)) = &*memo {
            if c.ptr_eq(column) {
                return *p;
            }
        }
        let sum = sum();
        *memo = Some((column.clone(), sum));
        sum
    }
}

/// A clone starts with no memo.
impl Clone for AttrPrices {
    fn clone(&self) -> Self {
        AttrPrices::new(self.map.clone())
    }
}

/// Equality ignores the memo.
impl PartialEq for AttrPrices {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

/// The §3 price list: individual prices on selection views, `p : Σ → ℝ⁺`
/// (partial; missing ⇒ not for sale).
///
/// Each attribute's prices sit behind an [`Arc`], so cloning a list costs
/// one reference count per priced attribute, and a write copies an
/// attribute's map only while another list still shares it. The
/// normalization steps lean on this: they replace the maps of the
/// attributes they shrink, merge or give out free, move the maps of the
/// attributes they shift, and share every other map with the pricer's
/// list.
///
/// Each map keeps the price of its attribute's full cover once summed
/// ([`PriceList::full_cover_price`]), so a quote that shares the map with
/// the pricer's list reads the sum instead of re-adding the column.
///
/// An attribute given out **free** (Step 3's covers, the cycle's caps) is
/// one rule, not a map: every view over its column costs 0, its full
/// cover costs 0 × its length, and recording it costs the same whatever
/// the column's length.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PriceList {
    prices: FxHashMap<AttrRef, Arc<AttrPrices>>,
    /// The free attributes with their columns, sorted by attribute. An
    /// attribute is in at most one of `prices` and `free`.
    free: Vec<(AttrRef, Column)>,
    len: usize,
}

impl PriceList {
    /// An empty list (nothing for sale).
    pub fn new() -> Self {
        PriceList::default()
    }

    /// Assemble a list from unshared per-attribute maps, wrapping each
    /// once. Empty maps are left out.
    fn from_maps(maps: impl IntoIterator<Item = (AttrRef, PriceMap)>) -> Self {
        let mut pl = PriceList::new();
        for (attr, m) in maps {
            if !m.is_empty() {
                pl.len += m.len();
                pl.prices.insert(attr, Arc::new(AttrPrices::new(m)));
            }
        }
        pl
    }

    /// Price every selection view in `Σ` uniformly (common in synthetic
    /// workloads and in Example 3.8, where every view costs $1).
    pub fn uniform(catalog: &Catalog, price: Price) -> Self {
        PriceList::from_maps(catalog.schema().all_attrs().into_iter().map(|attr| {
            let m = catalog.column(attr).iter().map(|v| (v.clone(), price));
            (attr, m.collect())
        }))
    }

    /// Set the price of one view; replaces any previous price. The
    /// attribute's memoized full-cover price is adjusted, not dropped
    /// (see [`PriceList::full_cover_price`]).
    pub fn set(&mut self, view: SelectionView, price: Price) -> &mut Self {
        self.thaw(view.attr);
        let attr = Arc::make_mut(self.prices.entry(view.attr).or_default());
        if attr.set(view.value, price) {
            self.len += 1;
        }
        self
    }

    /// Remove a view from sale. Returns whether it was priced.
    pub fn remove(&mut self, view: &SelectionView) -> bool {
        if !self.is_priced(view) {
            return false;
        }
        self.thaw(view.attr);
        if let Some(m) = self.prices.get_mut(&view.attr) {
            Arc::make_mut(m).map_mut().remove(&view.value);
        }
        self.len -= 1;
        true
    }

    /// Remove every price on an attribute (Step 3, branch "not covered").
    pub fn remove_attr(&mut self, attr: AttrRef) {
        if let Some(m) = self.prices.remove(&attr) {
            self.len -= m.map.len();
        }
        if let Some(i) = self.free_index(attr) {
            self.len -= self.free.remove(i).1.len();
        }
    }

    /// Give every view of `attr` over `column` out free, replacing the
    /// attribute's previous prices: one rule, whatever the column's
    /// length (Step 3's full-cover branch, the cycle's caps).
    pub(crate) fn set_free(&mut self, attr: AttrRef, column: Column) {
        self.remove_attr(attr);
        self.len += column.len();
        let at = self.free.partition_point(|(a, _)| *a < attr);
        self.free.insert(at, (attr, column));
    }

    /// Where `attr` sits in the free rules, if it is free.
    fn free_index(&self, attr: AttrRef) -> Option<usize> {
        self.free.iter().position(|(a, _)| *a == attr)
    }

    /// The column over which `attr` is given out free, if it is.
    fn free_column(&self, attr: AttrRef) -> Option<&Column> {
        self.free.iter().find(|(a, _)| *a == attr).map(|(_, c)| c)
    }

    /// Turn a free attribute back into a map of zero prices, so a write
    /// to one of its views can follow.
    fn thaw(&mut self, attr: AttrRef) {
        if let Some(i) = self.free_index(attr) {
            let (attr, column) = self.free.remove(i);
            let map = column.iter().map(|v| (v.clone(), Price::ZERO)).collect();
            self.prices.insert(attr, Arc::new(AttrPrices::new(map)));
        }
    }

    /// Replace every price on an attribute with `prices` (Step 2's minima).
    pub(crate) fn replace_attr(&mut self, attr: AttrRef, prices: PriceMap) {
        self.remove_attr(attr);
        if !prices.is_empty() {
            self.len += prices.len();
            self.prices.insert(attr, Arc::new(AttrPrices::new(prices)));
        }
    }

    /// Keep only the prices on `attr` whose value lies in `column` (Step
    /// 1). When every priced value survives, the attribute's map stays
    /// shared.
    pub(crate) fn retain_on(&mut self, attr: AttrRef, column: &Column) {
        self.thaw(attr);
        let Some(m) = self.prices.get(&attr) else {
            return;
        };
        let kept: PriceMap = m
            .map
            .iter()
            .filter(|&(v, _)| column.contains(v))
            .map(|(v, p)| (v.clone(), *p))
            .collect();
        if kept.len() < m.map.len() {
            self.replace_attr(attr, kept);
        }
    }

    /// Project position `pos` out of relation `rel` (of arity `arity`):
    /// its prices are removed and the later positions' maps and free
    /// rules move down by one, still shared.
    pub(crate) fn drop_position(&mut self, rel: RelId, pos: usize, arity: usize) {
        self.remove_attr(AttrRef::new(rel, pos as u32));
        for p in pos + 1..arity {
            if let Some(m) = self.prices.remove(&AttrRef::new(rel, p as u32)) {
                self.prices.insert(AttrRef::new(rel, (p - 1) as u32), m);
            }
        }
        // Shifting down within one relation keeps the rules sorted.
        for (attr, _) in &mut self.free {
            if attr.rel == rel && attr.attr.0 as usize > pos {
                *attr = AttrRef::new(rel, attr.attr.0 - 1);
            }
        }
    }

    /// The shared map behind one attribute's prices, if any is priced.
    #[cfg(test)]
    pub(crate) fn attr_prices(&self, attr: AttrRef) -> Option<&Arc<AttrPrices>> {
        self.prices.get(&attr)
    }

    /// The price lookup for the values of one attribute's column, which
    /// finds the attribute's map once for any number of values
    /// ([`Price::INFINITE`] when not for sale). A free attribute prices
    /// every value at 0 without a lookup, so pass only values of the
    /// column the list prices it over.
    pub(crate) fn prices_on(&self, attr: AttrRef) -> impl '_ + Fn(&Value) -> Price {
        let free = self.free_column(attr).is_some();
        let m = if free { None } else { self.prices.get(&attr) };
        move |v| {
            if free {
                return Price::ZERO;
            }
            m.and_then(|m| m.map.get(v))
                .copied()
                .unwrap_or(Price::INFINITE)
        }
    }

    /// Price of a view; [`Price::INFINITE`] when not for sale.
    pub fn get(&self, view: &SelectionView) -> Price {
        self.get_at(view.attr, &view.value)
    }

    /// Whether a view is on the list (at any price).
    pub fn is_priced(&self, view: &SelectionView) -> bool {
        if let Some(column) = self.free_column(view.attr) {
            return column.contains(&view.value);
        }
        self.prices
            .get(&view.attr)
            .is_some_and(|m| m.map.contains_key(&view.value))
    }

    /// Price of `σ_{attr=value}`.
    pub fn get_at(&self, attr: AttrRef, value: &Value) -> Price {
        // An attribute is listed or free, never both: look the map up first.
        if let Some(m) = self.prices.get(&attr) {
            return m.map.get(value).copied().unwrap_or(Price::INFINITE);
        }
        match self.free_column(attr) {
            Some(column) if column.contains(value) => Price::ZERO,
            _ => Price::INFINITE,
        }
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
    /// values; `INFINITE` if any value is unpriced. The sum is kept with
    /// the attribute's map for the last column it was taken over, so a
    /// list sharing that map with the same column reads it back, and
    /// [`PriceList::set`] keeps it current in O(1).
    pub fn full_cover_price(&self, catalog: &Catalog, attr: AttrRef) -> Price {
        let column = catalog.column(attr);
        if let Some(free) = self.free_column(attr) {
            let covered = free.ptr_eq(column) || column.iter().all(|v| free.contains(v));
            return if covered {
                Price::ZERO
            } else {
                Price::INFINITE
            };
        }
        match self.prices.get(&attr) {
            Some(m) => m.cover_price(column, || column.iter().map(self.prices_on(attr)).sum()),
            // Nothing priced: every value is unpriced.
            None if column.is_empty() => Price::ZERO,
            None => Price::INFINITE,
        }
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
        let listed = self
            .prices
            .iter()
            .flat_map(|(attr, m)| m.map.iter().map(move |(v, p)| (*attr, v, *p)));
        let free = self
            .free
            .iter()
            .flat_map(|(attr, c)| c.iter().map(move |v| (*attr, v, Price::ZERO)));
        listed
            .chain(free)
            .map(|(attr, v, p)| (SelectionView::new(attr, v.clone()), p))
    }

    /// The priced views on one attribute.
    pub fn views_on(&self, attr: AttrRef) -> impl Iterator<Item = (&Value, Price)> + '_ {
        let listed = self.prices.get(&attr).into_iter();
        let free = self.free_column(attr).into_iter();
        listed
            .flat_map(|m| m.map.iter().map(|(v, p)| (v, *p)))
            .chain(free.flat_map(|c| c.iter().map(|v| (v, Price::ZERO))))
    }

    /// Price every view of an attribute (over the catalog's column) at one
    /// fixed price, replacing the attribute's previous prices.
    pub fn set_attr_uniform(&mut self, catalog: &Catalog, attr: AttrRef, price: Price) {
        let column = catalog.column(attr).iter();
        self.replace_attr(attr, column.map(|v| (v.clone(), price)).collect());
    }
}

impl FromIterator<(SelectionView, Price)> for PriceList {
    fn from_iter<T: IntoIterator<Item = (SelectionView, Price)>>(iter: T) -> Self {
        let mut maps: FxHashMap<AttrRef, PriceMap> = FxHashMap::default();
        for (v, p) in iter {
            maps.entry(v.attr).or_default().insert(v.value, p);
        }
        PriceList::from_maps(maps)
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

    /// A clone shares every attribute's map, and a write to one copy —
    /// through any mutator — never shows in the other.
    #[test]
    fn clones_are_isolated_copy_on_write() {
        let c = cat();
        let rx = c.schema().resolve_attr("R.X").unwrap();
        let sx = c.schema().resolve_attr("S.X").unwrap();
        let sy = c.schema().resolve_attr("S.Y").unwrap();
        let base = PriceList::uniform(&c, Price::dollars(1));
        let snapshot: Vec<(SelectionView, Price)> = {
            let mut v: Vec<_> = base.iter().collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let unchanged = |pl: &PriceList| {
            let mut v: Vec<_> = pl.iter().collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v == snapshot && pl.len() == 8
        };
        type Edit = fn(&mut PriceList, &Catalog);
        let edits: [(&str, Edit, usize); 8] = [
            (
                "set",
                |pl, c| {
                    pl.set(sel(c, "S.Y", 0), Price::dollars(9));
                },
                8,
            ),
            (
                "remove",
                |pl, c| {
                    pl.remove(&sel(c, "R.X", 2));
                },
                7,
            ),
            (
                "remove_attr",
                |pl, c| {
                    pl.remove_attr(c.schema().resolve_attr("S.X").unwrap());
                },
                5,
            ),
            (
                "replace_attr",
                |pl, c| {
                    let sy = c.schema().resolve_attr("S.Y").unwrap();
                    pl.replace_attr(sy, [(Value::Int(1), Price::ZERO)].into_iter().collect());
                },
                7,
            ),
            (
                "retain_on",
                |pl, c| {
                    let rx = c.schema().resolve_attr("R.X").unwrap();
                    pl.retain_on(rx, &Column::new([Value::Int(1)]));
                },
                6,
            ),
            (
                "drop_position",
                |pl, c| {
                    let s = c.schema().rel_id("S").unwrap();
                    pl.drop_position(s, 0, 2);
                },
                5,
            ),
            (
                "set_attr_uniform",
                |pl, c| {
                    let sy = c.schema().resolve_attr("S.Y").unwrap();
                    pl.set_attr_uniform(c, sy, Price::ZERO);
                },
                8,
            ),
            (
                "set_free",
                |pl, c| {
                    let sx = c.schema().resolve_attr("S.X").unwrap();
                    pl.set_free(sx, c.column(sx).clone());
                },
                8,
            ),
        ];
        for (name, edit, len) in edits {
            let mut copy = base.clone();
            assert!(Arc::ptr_eq(
                copy.attr_prices(rx).unwrap(),
                base.attr_prices(rx).unwrap()
            ));
            edit(&mut copy, &c);
            assert_ne!(copy, base, "{name}");
            assert!(unchanged(&base), "{name} leaked into the original");
            assert_eq!(copy.len(), len, "{name}");
            assert_eq!(copy.iter().count(), len, "{name}");
        }
        // The reverse direction: editing the original leaves a clone alone.
        let mut original = base.clone();
        let copy = original.clone();
        original.set(sel(&c, "S.X", 1), Price::dollars(3));
        original.remove_attr(sy);
        assert!(unchanged(&copy));
        assert_eq!(original.len(), 6);
        assert_eq!(original.get(&sel(&c, "S.X", 1)), Price::dollars(3));
        assert_eq!(copy.get(&sel(&c, "S.X", 1)), Price::dollars(1));
        // `drop_position` moves the later position's map down, shared.
        let mut dropped = base.clone();
        dropped.drop_position(sx.rel, 0, 2);
        assert!(Arc::ptr_eq(
            dropped.attr_prices(sx).unwrap(),
            base.attr_prices(sy).unwrap()
        ));
        assert!(dropped.attr_prices(sy).is_none());
    }

    /// A free attribute is one rule over its column: it prices, lists and
    /// covers like a map of zeros over that column, and survives a
    /// projection; a write to one of its views turns it back into a map.
    #[test]
    fn a_free_attribute_prices_like_zeros_over_its_column() {
        let c = cat();
        let s = c.schema().rel_id("S").unwrap();
        let sx = c.schema().resolve_attr("S.X").unwrap();
        let sy = c.schema().resolve_attr("S.Y").unwrap();
        let base = PriceList::uniform(&c, Price::dollars(2));
        let mut free = base.clone();
        free.set_free(sx, c.column(sx).clone());
        let mut zeros = base.clone();
        zeros.set_attr_uniform(&c, sx, Price::ZERO);
        let sorted = |pl: &PriceList| {
            let mut v: Vec<_> = pl.iter().collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        assert_eq!(sorted(&free), sorted(&zeros));
        assert_eq!(free.len(), zeros.len());
        assert_eq!(free.views_on(sx).count(), 3);
        assert!(
            free.attr_prices(sx).is_none(),
            "no map for a free attribute"
        );
        for v in 0..4 {
            let view = sel(&c, "S.X", v);
            assert_eq!(free.get(&view), zeros.get(&view), "S.X={v}");
            assert_eq!(free.is_priced(&view), zeros.is_priced(&view), "S.X={v}");
        }
        assert_eq!(free.prices_on(sx)(&Value::Int(1)), Price::ZERO);
        assert_eq!(free.full_cover_price(&c, sx), Price::ZERO);
        assert!(free.relation_sellable(&c, s));
        // A column the rule does not cover is not given out free.
        let wider = c.with_column(sx, Column::int_range(0, 4));
        assert!(free.full_cover_price(&wider, sx).is_infinite());
        // A projection moves the rule down with its position.
        let mut projected = free.clone();
        projected.drop_position(s, 0, 2);
        assert!(
            projected.free.is_empty(),
            "the dropped attribute's rule goes"
        );
        let mut shifted = free.clone();
        shifted.set_free(sy, c.column(sy).clone());
        shifted.drop_position(s, 0, 2);
        assert_eq!(shifted.get(&sel(&c, "S.X", 1)), Price::ZERO);
        assert_eq!(shifted.len(), 3 + 2);
        // A write thaws the rule into zeros, then applies.
        let mut written = free.clone();
        written.set(sel(&c, "S.X", 1), Price::dollars(5));
        zeros.set(sel(&c, "S.X", 1), Price::dollars(5));
        assert_eq!(written, zeros);
        assert!(written.remove(&sel(&c, "S.X", 0)));
        assert!(!free.clone().remove(&sel(&c, "S.X", 9)));
        let mut removed = free.clone();
        removed.remove_attr(sx);
        assert_eq!(removed.len(), base.len() - 3);
        assert!(removed.get(&sel(&c, "S.X", 0)).is_infinite());
    }

    /// The full cover's price re-summed over the column, bypassing the
    /// memo.
    fn resum(pl: &PriceList, c: &Catalog, attr: AttrRef) -> Price {
        c.column(attr).iter().map(pl.prices_on(attr)).sum()
    }

    /// The memoized full-cover price always equals a re-sum: after every
    /// write path, whether the written map was shared with another list
    /// (and so copied) or not (and so written in place), and after the
    /// catalog swaps the column for another one. A `set` written in place
    /// keeps the memo — adjusted when the value is in the column and every
    /// term is finite, unchanged when the value is outside it — so the
    /// next read costs no re-sum.
    #[test]
    fn full_cover_memo_follows_every_write() {
        let c = cat();
        let rx = c.schema().resolve_attr("R.X").unwrap();
        let sx = c.schema().resolve_attr("S.X").unwrap();
        let sy = c.schema().resolve_attr("S.Y").unwrap();
        let inf = Price::INFINITE.as_cents();
        type Edit = fn(&mut PriceList, &Catalog);
        let edits: [(&str, Edit); 11] = [
            ("set", |pl, c| {
                pl.set(sel(c, "R.X", 1), Price::dollars(7));
            }),
            ("set outside the column", |pl, c| {
                pl.set(sel(c, "R.X", 9), Price::dollars(4));
            }),
            ("set to INFINITE", |pl, c| {
                pl.set(sel(c, "R.X", 1), Price::INFINITE);
            }),
            ("set near the sentinel", |pl, c| {
                // $2 + (∞ − 250¢): a finite sum 50¢ short of the sentinel.
                let inf = Price::INFINITE.as_cents();
                pl.set(sel(c, "R.X", 1), Price::cents(inf - 250));
            }),
            ("set across the sentinel", |pl, c| {
                // $2 + (∞ − 150¢): the sum clamps to ∞.
                let inf = Price::INFINITE.as_cents();
                pl.set(sel(c, "R.X", 1), Price::cents(inf - 150));
            }),
            ("set new", |pl, c| {
                pl.set(sel(c, "S.Y", 1), Price::dollars(2));
            }),
            ("remove", |pl, c| {
                pl.remove(&sel(c, "R.X", 2));
            }),
            ("replace_attr", |pl, c| {
                let rx = c.schema().resolve_attr("R.X").unwrap();
                let m = c.column(rx).iter().map(|v| (v.clone(), Price::cents(5)));
                pl.replace_attr(rx, m.collect());
            }),
            ("retain_on", |pl, c| {
                let rx = c.schema().resolve_attr("R.X").unwrap();
                pl.retain_on(rx, &Column::int_range(1, 3));
            }),
            ("set_attr_uniform", |pl, c| {
                let sx = c.schema().resolve_attr("S.X").unwrap();
                pl.set_attr_uniform(c, sx, Price::dollars(3));
            }),
            ("from_iter", |pl, c| {
                let mut views: Vec<_> = pl.iter().collect();
                views.push((sel(c, "R.X", 0), Price::dollars(9)));
                *pl = views.into_iter().collect();
            }),
        ];
        let check = |pl: &PriceList, c: &Catalog, what: &str| {
            for attr in [rx, sx, sy] {
                assert_eq!(
                    pl.full_cover_price(c, attr),
                    resum(pl, c, attr),
                    "{what} on {attr:?}"
                );
            }
        };
        for (name, edit) in edits {
            for shared in [false, true] {
                let mut pl = PriceList::uniform(&c, Price::dollars(1));
                pl.remove(&sel(&c, "S.Y", 1));
                // Fill every memo before the write.
                check(&pl, &c, "before");
                let other = shared.then(|| pl.clone());
                edit(&mut pl, &c);
                if !shared
                    && (name == "set" || name.starts_with("set "))
                    && name != "set to INFINITE"
                {
                    // Every finite `set` on R.X keeps R.X's memo; S.Y's
                    // sum was ∞ (S.Y = 1 unpriced), so `set new` drops it.
                    let kept = memo_column(&pl, rx).is_some() && memo_column(&pl, sx).is_some();
                    assert!(kept, "{name} dropped a memo");
                    assert_eq!(memo_column(&pl, sy).is_some(), name != "set new", "{name}");
                }
                check(&pl, &c, &format!("{name} (shared: {shared})"));
                if let Some(other) = other {
                    check(&other, &c, &format!("{name}: the other copy"));
                }
            }
        }
        // The kept memo is the adjusted sum itself, not a re-sum: a stale
        // memo would fail `check`, but a cleared one would pass it.
        let mut pl = PriceList::uniform(&c, Price::dollars(1));
        check(&pl, &c, "before the memo reads");
        pl.set(sel(&c, "R.X", 1), Price::cents(inf - 250));
        let memo = pl.attr_prices(rx).unwrap().cover.lock().unwrap().clone();
        assert_eq!(memo.map(|(_, p)| p), Some(Price::cents(inf - 50)));
        // A column swap: the memo holds the old column, so the new one is
        // re-summed and replaces it, in both directions.
        let pl = PriceList::uniform(&c, Price::dollars(1));
        check(&pl, &c, "before the swap");
        let swapped = c.with_column(rx, Column::int_range(1, 3));
        assert_eq!(pl.full_cover_price(&swapped, rx), Price::dollars(2));
        assert_eq!(pl.full_cover_price(&swapped, rx), resum(&pl, &swapped, rx));
        let wider = c.with_column(rx, Column::int_range(0, 4));
        assert!(pl.full_cover_price(&wider, rx).is_infinite());
        assert_eq!(pl.full_cover_price(&c, rx), Price::dollars(3));
        // A clone starts with no memo and equality ignores it.
        let fresh = PriceList::uniform(&c, Price::dollars(1));
        assert_eq!(pl.clone(), fresh);
        assert_eq!(pl.clone().full_cover_price(&swapped, rx), Price::dollars(2));
    }

    /// The column the memo of `attr`'s map was summed over, if any.
    fn memo_column(pl: &PriceList, attr: AttrRef) -> Option<Column> {
        let m = pl.attr_prices(attr)?;
        let memo = m.cover.lock().unwrap_or_else(PoisonError::into_inner);
        memo.as_ref().map(|(c, _)| c.clone())
    }

    /// Step 1 can shrink a column and still share the attribute's map with
    /// the pricer's list (every priced value survives). A sum over the
    /// shrunk column first must not pin the memo: the next sum over the
    /// pricer's own column replaces it, and later ones read it back.
    #[test]
    fn a_sum_over_a_shrunk_column_does_not_pin_the_memo() {
        let c = cat();
        let rx = c.schema().resolve_attr("R.X").unwrap();
        let mut base = PriceList::new();
        base.set(sel(&c, "R.X", 1), Price::dollars(1));
        base.set(sel(&c, "R.X", 2), Price::dollars(2));
        let mut quote = base.clone();
        let shrunk = Column::int_range(1, 3);
        quote.retain_on(rx, &shrunk);
        assert!(Arc::ptr_eq(
            quote.attr_prices(rx).unwrap(),
            base.attr_prices(rx).unwrap()
        ));
        let narrow = c.with_column(rx, shrunk);
        assert_eq!(quote.full_cover_price(&narrow, rx), Price::dollars(3));
        assert!(memo_column(&base, rx).unwrap().ptr_eq(narrow.column(rx)));
        // R.X = 0 is unpriced, so the pricer's full cover is not for sale.
        assert!(base.full_cover_price(&c, rx).is_infinite());
        assert!(memo_column(&base, rx).unwrap().ptr_eq(c.column(rx)));
        // The next sum over the pricer's column reads the memo: a planted
        // memo value comes back instead of a re-sum.
        let planted = Price::cents(1);
        *base.attr_prices(rx).unwrap().cover.lock().unwrap() =
            Some((c.column(rx).clone(), planted));
        assert_eq!(base.full_cover_price(&c, rx), planted);
    }

    #[test]
    fn bulk_constructors_agree_with_set() {
        let c = cat();
        let mut by_set = PriceList::new();
        for attr in c.schema().all_attrs() {
            for v in c.column(attr).iter() {
                by_set.set(SelectionView::new(attr, v.clone()), Price::dollars(2));
            }
        }
        assert_eq!(PriceList::uniform(&c, Price::dollars(2)), by_set);
        let collected: PriceList = by_set.iter().collect();
        assert_eq!(collected, by_set);
        assert_eq!(collected.len(), 8);
        // A repeated view keeps its last price and counts once.
        let dup: PriceList = [
            (sel(&c, "R.X", 0), Price::dollars(1)),
            (sel(&c, "R.X", 0), Price::dollars(4)),
        ]
        .into_iter()
        .collect();
        assert_eq!(dup.len(), 1);
        assert_eq!(dup.get(&sel(&c, "R.X", 0)), Price::dollars(4));
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
