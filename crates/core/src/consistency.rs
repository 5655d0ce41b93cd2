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
        relation_arbitrage(catalog, prices, rel, &mut out);
    }
    out
}

/// The binding constraint on attribute `x` of a relation whose
/// attributes' full covers cost `covers`: the position and price of the
/// *first* cheapest cover of another attribute (`None` for a unary
/// relation).
fn bound(covers: impl Iterator<Item = Price>, x: usize) -> Option<(usize, Price)> {
    covers
        .enumerate()
        .filter(|&(y, _)| y != x)
        .min_by_key(|&(_, p)| p)
}

/// The Proposition 3.2 violations of one relation, attribute by
/// attribute and, within one, in [`PriceList::views_on`]'s order.
/// Lemma 3.1 confines every violation to a single relation.
pub fn relation_arbitrage(
    catalog: &Catalog,
    prices: &PriceList,
    rel: RelId,
    out: &mut Vec<ListArbitrage>,
) {
    let arity = catalog.schema().relation(rel).arity();
    let covers: Vec<Price> = (0..arity)
        .map(|pos| prices.full_cover_price(catalog, AttrRef::new(rel, pos as u32)))
        .collect();
    for x in 0..arity {
        let Some((y, cover_price)) = bound(covers.iter().copied(), x) else {
            continue; // unary relation: no cross-attribute arbitrage
        };
        if cover_price.is_infinite() {
            continue;
        }
        let x_attr = AttrRef::new(rel, x as u32);
        for (value, price) in prices.views_on(x_attr) {
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

/// The first Proposition 3.2 violation that pricing `view` at `price`
/// would bring into `prices`, or `None` when the revised list stays
/// consistent. `prices` must be consistent: then only `view`'s relation
/// can break (Lemma 3.1), and this returns exactly what
/// [`relation_arbitrage`] would report first on the revised list, in
/// O(arity) reads of the memoized full covers
/// ([`PriceList::full_cover_price`]) without copying the list:
///
/// * a unary relation has no cross-attribute arbitrage;
/// * the revised attribute's new cover is its old one with `view`'s old
///   price swapped for `price` ([`Price::replace_term`]), re-summed only
///   when a term is `INFINITE`;
/// * on the revised attribute, every other view keeps its bound, so
///   only `view` itself can be undercut;
/// * on another attribute, the views can be undercut only when its
///   bound fell, and then the first one above the new bound is.
pub fn revision_arbitrage(
    catalog: &Catalog,
    prices: &PriceList,
    view: &SelectionView,
    price: Price,
) -> Option<ListArbitrage> {
    let rel = view.attr.rel;
    let arity = catalog.schema().relation(rel).arity();
    if arity < 2 {
        return None;
    }
    let at = |pos: usize| AttrRef::new(rel, pos as u32);
    let revised = view.attr.attr.0 as usize;
    let old: Vec<Price> = (0..arity)
        .map(|pos| prices.full_cover_price(catalog, at(pos)))
        .collect();
    let column = catalog.column(view.attr);
    let new_cover = if column.contains(&view.value) {
        old[revised]
            .replace_term(prices.get(view), price)
            .unwrap_or_else(|| {
                let listed = prices.prices_on(view.attr);
                let priced = |v: &Value| if *v == view.value { price } else { listed(v) };
                column.iter().map(priced).sum()
            })
    } else {
        old[revised]
    };
    let new = || {
        old.iter()
            .enumerate()
            .map(|(pos, &p)| if pos == revised { new_cover } else { p })
    };
    for x in 0..arity {
        let Some((y, cover_price)) = bound(new(), x) else {
            continue;
        };
        if cover_price.is_infinite() {
            continue;
        }
        let undercut = if x == revised {
            (price > cover_price).then(|| (view.value.clone(), price))
        } else if bound(old.iter().copied(), x).is_some_and(|(_, was)| cover_price < was) {
            prices
                .views_on(at(x))
                .find(|&(_, p)| p > cover_price)
                .map(|(value, p)| (value.clone(), p))
        } else {
            None
        };
        if let Some((value, price)) = undercut {
            return Some(ListArbitrage {
                view: SelectionView::new(at(x), value),
                price,
                via_cover_of: at(y),
                cover_price,
            });
        }
    }
    None
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
