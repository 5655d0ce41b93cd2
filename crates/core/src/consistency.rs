//! Consistency of selection-view price lists (Proposition 3.2).
//!
//! With all price points in `Σ`, Lemma 3.1 says the only possible arbitrage
//! is between a full cover `Σ_{R.Y}` and a single selection `σ_{R.X=a}`:
//! the full cover of *any* attribute of `R` reveals all of `R`, hence every
//! selection on it. So `S` is consistent iff for every relation `R`, every
//! pair of attributes `X, Y`, and every priced value `a ∈ Col_{R.X}`:
//!
//! ```text
//! p(σ_{R.X=a})  ≤  Σ_{b ∈ Col_{R.Y}} p(σ_{R.Y=b})
//! ```
//!
//! Unlike the general framework (§2.7), this condition is **independent of
//! the database instance** — a list validated once stays consistent under
//! every update.

use crate::money::Price;
use crate::price_points::PriceList;
use qbdp_catalog::{AttrRef, Catalog, RelId, Value};
use qbdp_determinacy::selection::SelectionView;

/// One violation of Proposition 3.2: the selection view is overpriced
/// relative to a full cover of another attribute of the same relation.
#[derive(Clone, Debug)]
pub struct ListArbitrage {
    /// The overpriced selection view.
    pub view: SelectionView,
    /// Its explicit price.
    pub price: Price,
    /// The attribute whose full cover undercuts it.
    pub via_cover_of: AttrRef,
    /// The full cover's (cheaper) total price.
    pub cover_price: Price,
}

impl ListArbitrage {
    /// Render against a schema for error messages.
    pub fn display(&self, catalog: &Catalog) -> String {
        format!(
            "{} at {} is undercut by the full cover of {} at {}",
            self.view.display(catalog.schema()),
            self.price,
            catalog.schema().attr_display(self.via_cover_of),
            self.cover_price
        )
    }
}

/// All Proposition 3.2 violations of a price list (empty ⇒ consistent).
pub fn find_list_arbitrage(catalog: &Catalog, prices: &PriceList) -> Vec<ListArbitrage> {
    let mut out = Vec::new();
    for rel in catalog.schema().rel_ids() {
        relation_arbitrage(catalog, prices, rel, None, &mut out);
    }
    out
}

/// The Proposition 3.2 violations of one relation, as if `revision` (a
/// selection view on `rel` and its new price) were applied to `prices`.
/// Lemma 3.1 confines every violation to a single relation, so a consistent
/// list revised on `rel` needs only this check to stay consistent — and it
/// reads the candidate price without copying or mutating the list.
pub fn relation_arbitrage(
    catalog: &Catalog,
    prices: &PriceList,
    rel: RelId,
    revision: Option<(&SelectionView, Price)>,
    out: &mut Vec<ListArbitrage>,
) {
    // The candidate price when `(attr, value)` is the revised view.
    let revised = |attr: AttrRef, value: &Value| match revision {
        Some((view, price)) if view.attr == attr && view.value == *value => Some(price),
        _ => None,
    };
    let arity = catalog.schema().relation(rel).arity();
    // Cheapest full cover per attribute, precomputed.
    let covers: Vec<Price> = (0..arity)
        .map(|pos| {
            let attr = AttrRef::new(rel, pos as u32);
            let listed = prices.prices_on(attr);
            catalog
                .column(attr)
                .iter()
                .map(|v| revised(attr, v).unwrap_or_else(|| listed(v)))
                .sum()
        })
        .collect();
    for x in 0..arity {
        let x_attr = AttrRef::new(rel, x as u32);
        // The binding constraint is the *cheapest* other cover.
        let Some((y, &cover_price)) = covers
            .iter()
            .enumerate()
            .filter(|&(y, _)| y != x)
            .min_by_key(|&(_, p)| *p)
        else {
            continue; // unary relation: no cross-attribute arbitrage
        };
        if cover_price.is_infinite() {
            continue;
        }
        // A revision that puts a view on sale adds it to the priced views.
        let added = revision.filter(|(view, _)| view.attr == x_attr && !prices.is_priced(view));
        let priced = prices
            .views_on(x_attr)
            .map(|(value, price)| (value, revised(x_attr, value).unwrap_or(price)))
            .chain(added.map(|(view, price)| (&view.value, price)));
        for (value, price) in priced {
            if price > cover_price {
                out.push(ListArbitrage {
                    view: SelectionView::new(x_attr, value.clone()),
                    price,
                    via_cover_of: AttrRef::new(rel, y as u32),
                    cover_price,
                });
            }
        }
    }
}

/// Whether the price list is consistent (Proposition 3.2).
pub fn list_is_consistent(catalog: &Catalog, prices: &PriceList) -> bool {
    find_list_arbitrage(catalog, prices).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{CatalogBuilder, Column, Value};

    fn cat() -> Catalog {
        CatalogBuilder::new()
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
    fn uniform_lists_are_consistent() {
        let c = cat();
        let pl = PriceList::uniform(&c, Price::dollars(1));
        assert!(list_is_consistent(&c, &pl));
    }

    #[test]
    fn detects_overpriced_selection() {
        let c = cat();
        let mut pl = PriceList::uniform(&c, Price::dollars(1));
        // Σ_{S.Y} costs $2; price σ_{S.X=0} at $3 → arbitrage.
        pl.set(sel(&c, "S.X", 0), Price::dollars(3));
        let arb = find_list_arbitrage(&c, &pl);
        assert_eq!(arb.len(), 1);
        assert_eq!(arb[0].view, sel(&c, "S.X", 0));
        assert_eq!(arb[0].cover_price, Price::dollars(2));
        assert!(arb[0].display(&c).contains("S.Y"));
        // $2 exactly is fine (≤, not <).
        pl.set(sel(&c, "S.X", 0), Price::dollars(2));
        assert!(list_is_consistent(&c, &pl));
    }

    #[test]
    fn partial_covers_impose_no_constraint() {
        let c = cat();
        let mut pl = PriceList::new();
        // Only one of the two S.Y views is priced: no finite full cover of
        // S.Y, so S.X prices are unconstrained.
        pl.set(sel(&c, "S.Y", 0), Price::cents(1));
        pl.set(sel(&c, "S.X", 0), Price::dollars(999));
        assert!(list_is_consistent(&c, &pl));
    }

    #[test]
    fn unary_relations_have_no_arbitrage() {
        let c = CatalogBuilder::new()
            .relation("R", &[("X", Column::int_range(0, 5))])
            .build()
            .unwrap();
        let mut pl = PriceList::uniform(&c, Price::dollars(1));
        pl.set(
            SelectionView::new(c.schema().resolve_attr("R.X").unwrap(), Value::Int(0)),
            Price::dollars(1000),
        );
        assert!(list_is_consistent(&c, &pl));
    }
}
