//! The normalization pipeline of the GChQ pricing algorithm (§3.1).
//!
//! A [`Problem`] bundles everything the price depends on — catalog,
//! instance, price list, and the query — and each step rewrites it into an
//! equivalent, simpler problem:
//!
//! * **Step 1** ([`step1_predicates`]): interpreted predicates (and
//!   constants, first rewritten into fresh head variables with singleton
//!   columns) shrink columns, filter the database, and drop the affected
//!   price points;
//! * **Step 2** ([`step2_repeated`]): a variable occurring twice in one
//!   atom collapses the two attribute positions into one, priced at the
//!   minimum of the originals;
//! * **Step 3** ([`step3_hanging`]): each hanging variable branches into
//!   "buy the full cover of its attribute" vs "never touch that attribute",
//!   projecting the attribute away either way (Lemmas 3.10/3.11).
//!
//! Each reduced view keeps **provenance**: the original views a purchase of
//! it stands for, so quotes can always be expressed against the seller's
//! real price list.

pub mod step1_predicates;
pub mod step2_repeated;
pub mod step3_hanging;

use crate::error::PricingError;
use crate::price_points::PriceList;
use qbdp_catalog::{AttrRef, Catalog, Column, FxHashMap, Instance, Value};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::ast::ConjunctiveQuery;

/// Maps a view of the *reduced* problem to the original views it stands
/// for. Absent keys map to themselves (the common case: untouched views).
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    map: FxHashMap<(AttrRef, Value), Vec<SelectionView>>,
}

impl Provenance {
    /// Identity provenance.
    pub fn identity() -> Self {
        Provenance::default()
    }

    /// Record that reduced view `(attr, value)` stands for `originals`
    /// (empty = "already paid for elsewhere", e.g. Step 3's free covers).
    pub fn record(&mut self, attr: AttrRef, value: Value, originals: Vec<SelectionView>) {
        self.map.insert((attr, value), originals);
    }

    /// Resolve a reduced view to original views.
    pub fn resolve(&self, view: &SelectionView) -> Vec<SelectionView> {
        match self.map.get(&(view.attr, view.value.clone())) {
            Some(orig) => orig.clone(),
            None => vec![view.clone()],
        }
    }
}

/// A self-contained pricing problem.
#[derive(Clone, Debug)]
pub struct Problem {
    /// Schema + columns.
    pub catalog: Catalog,
    /// The data.
    pub instance: Instance,
    /// The explicit selection-view prices.
    pub prices: PriceList,
    /// The query being priced (full CQ during the GChQ pipeline).
    pub query: ConjunctiveQuery,
    /// Reduced-view → original-view mapping.
    pub provenance: Provenance,
}

impl Problem {
    /// Wrap the inputs with identity provenance.
    pub fn new(
        catalog: Catalog,
        instance: Instance,
        prices: PriceList,
        query: ConjunctiveQuery,
    ) -> Self {
        Problem {
            catalog,
            instance,
            prices,
            query,
            provenance: Provenance::identity(),
        }
    }
}

/// Rebuild a problem's catalog/instance/prices with one attribute removed
/// from one relation (the projection underlying Step 3 and — via collapse —
/// Step 2). Returns the new pieces plus the [`AttrRef`] remap function's
/// data: all other relations keep their ids and positions; positions after
/// `drop_pos` within `rel` shift down by one. Only `rel`'s tuples are
/// copied; every other relation is shared with `instance`.
///
/// The query is **not** rewritten here — callers rewrite atoms themselves,
/// because what replaces the dropped position differs per step.
pub fn drop_attribute(
    catalog: &Catalog,
    instance: &Instance,
    prices: &PriceList,
    provenance: &Provenance,
    rel: qbdp_catalog::RelId,
    drop_pos: usize,
) -> Result<(Catalog, Instance, PriceList, Provenance), PricingError> {
    // The projected instance's schema — `rel` without `drop_pos` — is the
    // new catalog's.
    let new_instance = instance.project_out(rel, drop_pos)?;
    let columns: Vec<Vec<Column>> = catalog
        .schema()
        .rel_ids()
        .map(|rid| {
            catalog
                .relation_columns(rid)
                .iter()
                .enumerate()
                .filter(|&(i, _)| rid != rel || i != drop_pos)
                .map(|(_, c)| c.clone())
                .collect()
        })
        .collect();
    let new_catalog = Catalog::new(new_instance.schema().clone(), columns)?;

    // Remap prices and provenance: same relation ids; shifted positions.
    let remap = |attr: AttrRef| -> Option<AttrRef> {
        if attr.rel != rel {
            return Some(attr);
        }
        let pos = attr.attr.0 as usize;
        match pos.cmp(&drop_pos) {
            std::cmp::Ordering::Less => Some(attr),
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(AttrRef::new(rel, (pos - 1) as u32)),
        }
    };
    let mut new_prices = PriceList::new();
    for (view, price) in prices.iter() {
        if let Some(attr) = remap(view.attr) {
            new_prices.set(SelectionView::new(attr, view.value), price);
        }
    }
    let mut new_prov = Provenance::identity();
    for ((attr, value), originals) in &provenance.map {
        if let Some(attr) = remap(*attr) {
            new_prov.record(attr, value.clone(), originals.clone());
        }
    }
    // Shifted positions that had *identity* provenance must now point back
    // to their original (unshifted) selves explicitly.
    let r_arity = catalog.schema().relation(rel).arity();
    for pos in drop_pos + 1..r_arity {
        let old_attr = AttrRef::new(rel, pos as u32);
        let new_attr = AttrRef::new(rel, (pos - 1) as u32);
        for v in catalog.column(old_attr).iter() {
            if !provenance.map.contains_key(&(old_attr, v.clone())) {
                new_prov.record(
                    new_attr,
                    v.clone(),
                    vec![SelectionView::new(old_attr, v.clone())],
                );
            }
        }
    }

    Ok((new_catalog, new_instance, new_prices, new_prov))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Price;
    use qbdp_catalog::{tuple, CatalogBuilder};

    #[test]
    fn drop_attribute_projects_everything() {
        let cat = CatalogBuilder::new()
            .relation(
                "S",
                &[
                    ("X", Column::int_range(0, 2)),
                    ("Y", Column::int_range(10, 12)),
                    ("Z", Column::int_range(20, 22)),
                ],
            )
            .relation("R", &[("X", Column::int_range(0, 2))])
            .build()
            .unwrap();
        let s = cat.schema().rel_id("S").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(s, [tuple![0, 10, 20], tuple![0, 11, 20], tuple![1, 10, 21]])
            .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let (c2, d2, p2, prov) =
            drop_attribute(&cat, &d, &prices, &Provenance::identity(), s, 1).unwrap();
        // Schema: S(X, Z).
        assert_eq!(c2.schema().relation(s).arity(), 2);
        assert_eq!(c2.schema().relation(s).attrs(), &["X", "Z"]);
        // Instance projected with dedup: (0,20), (1,21).
        assert_eq!(d2.relation(s).len(), 2);
        assert!(d2.relation(s).contains(&tuple![0, 20]));
        // Prices: S.Y gone; S.Z now position 1.
        let new_sz = AttrRef::new(s, 1);
        assert_eq!(p2.get_at(new_sz, &Value::Int(20)), Price::dollars(1));
        assert_eq!(p2.views_on(AttrRef::new(s, 0)).count(), 2);
        // R untouched.
        let r = c2.schema().rel_id("R").unwrap();
        assert_eq!(p2.views_on(AttrRef::new(r, 0)).count(), 2);
        // Provenance: new S.Z=20 resolves to the original S.Z (position 2).
        let resolved = prov.resolve(&SelectionView::new(new_sz, Value::Int(20)));
        assert_eq!(
            resolved,
            vec![SelectionView::new(AttrRef::new(s, 2), Value::Int(20))]
        );
        // Untouched attributes resolve to themselves.
        let sx = SelectionView::new(AttrRef::new(s, 0), Value::Int(0));
        assert_eq!(prov.resolve(&sx), vec![sx.clone()]);
    }
}
