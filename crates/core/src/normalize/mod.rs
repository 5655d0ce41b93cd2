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
//!   projecting the attribute away either way (Lemmas 3.10/3.11); every
//!   branch shares the one projection.
//!
//! Each reduced view keeps **provenance**: the original views a purchase of
//! it stands for, so quotes can always be expressed against the seller's
//! real price list.
//!
//! # What a step copies
//!
//! A step copies only what it rewrites. The [`Instance`] shares every
//! relation a step leaves alone, and the [`PriceList`] and [`Provenance`]
//! share every attribute's map (see their docs). So Step 1 copies the
//! columns and prices of the attributes its predicates shrink and the
//! surviving rows of their relations, and Step 2 the merged attribute's
//! prices and its relation's diagonal rows. Step 3 copies no price map: a
//! cover gives its free attribute out as one rule in the branch's
//! [`PriceList`] and one in its [`Provenance`], whatever the column's
//! length. Dropping an attribute copies the projected relation's rows and
//! moves the later positions' maps and rules down without copying them
//! ([`drop_attribute`]). By Lemma 3.1 every rewrite stays inside the
//! relation it names, so the untouched relations reach the flow network
//! as the very rows and price maps the pricer holds.
//!
//! A relation stores each row once, in a flat arena, and builds an
//! attribute's index only when something selects through it; a derived
//! relation is only iterated, so it never builds one. Step 1 reads only
//! the rows its query selects: it takes the candidates from the posting
//! lists of the narrowest shrunk attribute of the pricer's relation,
//! whose indexes are built once and shared by every quote
//! ([`Instance::retain_in`]). The price of a full cover is summed once
//! per shared price map and column ([`PriceList::full_cover_price`]).
//!
//! Copying a row or a view copies no string: a text [`Value`] shares its
//! string behind an [`Arc`]. Step 3 projects its `h` hanging attributes
//! once, as one chain, and all `2^h` branches share the result; a branch
//! is built (the shared prices and provenance cloned, its free rules
//! added) only when it is solved, and a full cover is recorded as a
//! [`step3_hanging::Cover`], not resolved to original views until a quote
//! needs them (see [`step3_hanging`]). A query shares its name and
//! variable table with the queries derived from it, and re-validating a
//! derived query allocates nothing. Each step still builds a new [`Catalog`]
//! (its other relations' columns shared) and a new query, and dropping an
//! attribute builds one new relation schema, which the projected catalog
//! and instance share along with every other relation's schema.

pub mod step1_predicates;
pub mod step2_repeated;
pub mod step3_hanging;

use crate::error::PricingError;
use crate::price_points::PriceList;
use qbdp_catalog::{AttrRef, Catalog, FxHashMap, Instance, RelId, Value};
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::ast::ConjunctiveQuery;
use std::sync::Arc;

/// Maps a view of the *reduced* problem to the original views it stands
/// for. A view resolves through, in order: its attribute's free rule (a
/// view of an attribute given out free, as by Step 3's covers, stands for
/// nothing: it was paid for elsewhere), an explicit entry for it (Step
/// 2's minima), the rename of its attribute (an attribute that
/// [`drop_attribute`] shifted stands for the same value of its original
/// attribute), or itself. Explicit entries are kept per attribute behind
/// an [`Arc`], like a [`PriceList`]'s prices, so cloning a provenance
/// copies no entry.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    map: FxHashMap<AttrRef, Arc<FxHashMap<Value, Vec<SelectionView>>>>,
    /// Reduced attribute → the original attribute it was shifted from.
    renames: FxHashMap<AttrRef, AttrRef>,
    /// The attributes given out free, one rule each.
    free: Vec<AttrRef>,
}

impl Provenance {
    /// Identity provenance.
    pub fn identity() -> Self {
        Provenance::default()
    }

    /// Record that reduced view `(attr, value)` stands for `originals`
    /// (empty = "already paid for elsewhere").
    pub fn record(&mut self, attr: AttrRef, value: Value, originals: Vec<SelectionView>) {
        Arc::make_mut(self.map.entry(attr).or_default()).insert(value, originals);
    }

    /// Record that every view of `attr` stands for nothing: the attribute
    /// is given out free, paid for elsewhere (Step 3's covers, the cycle's
    /// caps). One rule, whatever the column's length; it replaces the
    /// attribute's explicit entries.
    pub(crate) fn set_free(&mut self, attr: AttrRef) {
        self.map.remove(&attr);
        if !self.free.contains(&attr) {
            self.free.push(attr);
        }
    }

    /// Resolve a reduced view to original views.
    pub fn resolve(&self, view: &SelectionView) -> Vec<SelectionView> {
        let mut out = Vec::new();
        self.resolve_into(view.attr, &view.value, &mut out);
        out
    }

    /// Append the original views reduced view `(attr, value)` stands for
    /// to `out`.
    pub(crate) fn resolve_into(&self, attr: AttrRef, value: &Value, out: &mut Vec<SelectionView>) {
        if self.free.contains(&attr) {
            return;
        }
        if let Some(orig) = self.map.get(&attr).and_then(|m| m.get(value)) {
            out.extend_from_slice(orig);
            return;
        }
        let attr = self.renames.get(&attr).copied().unwrap_or(attr);
        out.push(SelectionView::new(attr, value.clone()));
    }

    /// Resolve reduced views (a min cut's) to the original views they stand
    /// for, sorted and deduplicated.
    pub(crate) fn resolve_all(&self, views: &[SelectionView]) -> Vec<SelectionView> {
        let mut out = Vec::with_capacity(views.len());
        for v in views {
            self.resolve_into(v.attr, &v.value, &mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    /// Project position `pos` out of relation `rel` (of arity `arity`):
    /// its entries and free rule are dropped, and each later position
    /// moves down one, keeping its entries and free rule and recording one
    /// rename back to the original attribute.
    fn drop_position(&mut self, rel: RelId, pos: usize, arity: usize) {
        let at = |p: usize| AttrRef::new(rel, p as u32);
        self.map.remove(&at(pos));
        self.renames.remove(&at(pos));
        self.free.retain(|&a| a != at(pos));
        for p in pos + 1..arity {
            if let Some(m) = self.map.remove(&at(p)) {
                self.map.insert(at(p - 1), m);
            }
            let original = self.renames.remove(&at(p)).unwrap_or(at(p));
            self.renames.insert(at(p - 1), original);
        }
        for attr in &mut self.free {
            if attr.rel == rel && attr.attr.0 as usize > pos {
                *attr = at(attr.attr.0 as usize - 1);
            }
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

/// A problem's catalog, instance, prices and provenance with attribute
/// `drop_pos` of `rel` projected away (the projection underlying Step 3
/// and — via collapse — Step 2). Every relation keeps its id; positions
/// after `drop_pos` within `rel` shift down by one.
///
/// Only `rel`'s tuples are copied, and the projected catalog and instance
/// share one new schema. The dropped attribute's prices and
/// provenance entries are removed, and the shifted attributes' maps move
/// to their new positions still shared with the inputs, each recording one
/// rename back to its original attribute. Every other relation, column,
/// price map and provenance entry is shared.
///
/// The query is **not** rewritten here — callers rewrite atoms themselves,
/// because what replaces the dropped position differs per step.
pub fn drop_attribute(
    catalog: &Catalog,
    instance: &Instance,
    prices: &PriceList,
    provenance: &Provenance,
    rel: RelId,
    drop_pos: usize,
) -> Result<(Catalog, Instance, PriceList, Provenance), PricingError> {
    let arity = catalog.schema().relation(rel).arity();
    let (new_catalog, new_instance) = catalog.project_out(instance, rel, drop_pos)?;
    let mut new_prices = prices.clone();
    new_prices.drop_position(rel, drop_pos, arity);
    let mut new_prov = provenance.clone();
    new_prov.drop_position(rel, drop_pos, arity);
    Ok((new_catalog, new_instance, new_prices, new_prov))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Price;
    use qbdp_catalog::{tuple, CatalogBuilder, Column};

    /// `R(A, B, B2, C)` and `T(C)`, priced unevenly, with
    /// `Q(a, b, c) :- R(a, b, b, c), T(c), b > 0`: Step 1 shrinks `R.B` and
    /// `R.B2`, Step 2 merges them, and Step 3 branches on the hanging `a`
    /// and `b`. `T` is never rewritten.
    fn two_relation_fixture() -> Problem {
        let cat = CatalogBuilder::new()
            .relation(
                "R",
                &[
                    ("A", Column::int_range(0, 3)),
                    ("B", Column::int_range(0, 3)),
                    ("B2", Column::int_range(1, 4)),
                    ("C", Column::int_range(0, 2)),
                ],
            )
            .relation("T", &[("C", Column::int_range(0, 2))])
            .build()
            .unwrap();
        let r = cat.schema().rel_id("R").unwrap();
        let t = cat.schema().rel_id("T").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(
            r,
            [
                tuple![0, 1, 1, 0],
                tuple![1, 2, 2, 1],
                tuple![2, 2, 3, 1],
                tuple![0, 0, 1, 0],
            ],
        )
        .unwrap();
        d.insert_all(t, [tuple![0], tuple![1]]).unwrap();
        let mut prices = PriceList::uniform(&cat, Price::dollars(4));
        for (pos, v, dollars) in [(1, 1, 2), (2, 2, 1), (2, 3, 1), (0, 2, 3)] {
            prices.set(
                SelectionView::new(AttrRef::new(r, pos), Value::Int(v)),
                Price::dollars(dollars),
            );
        }
        let q = qbdp_query::parser::parse_rule(
            cat.schema(),
            "Q(a, b, c) :- R(a, b, b, c), T(c), b > 0",
        )
        .unwrap();
        Problem::new(cat, d, prices, q)
    }

    /// Every view of a branch's reduced problem: its price and what it
    /// resolves to, one line per view, in catalog order.
    fn resolve_table(problem: &Problem) -> Vec<String> {
        let show = |v: &SelectionView| format!("{}.{}={}", v.attr.rel.0, v.attr.attr.0, v.value);
        let mut lines = Vec::new();
        for attr in problem.catalog.schema().all_attrs() {
            for value in problem.catalog.column(attr).iter() {
                let view = SelectionView::new(attr, value.clone());
                let resolved: Vec<String> =
                    problem.provenance.resolve(&view).iter().map(show).collect();
                lines.push(format!(
                    "{} {} -> [{}]",
                    show(&view),
                    problem.prices.get(&view),
                    resolved.join(", ")
                ));
            }
        }
        lines
    }

    /// Steps 1–3 copy only what they rewrite: `T`'s tuples and prices stay
    /// the input's, each shifted attribute is one rename, every Step 3
    /// branch shares the one projection, a free cover is a rule rather than
    /// an entry per value, and every view resolves as it did when each step
    /// rebuilt the whole problem (the expected tables were recorded from
    /// that implementation; cover views are read through
    /// [`step3_hanging::ReducedBranch::base_views`]).
    #[test]
    fn steps_share_untouched_maps_and_resolve_as_before() {
        let input = two_relation_fixture();
        let r = input.catalog.schema().rel_id("R").unwrap();
        let t = input.catalog.schema().rel_id("T").unwrap();
        let t_prices = Arc::clone(input.prices.attr_prices(AttrRef::new(t, 0)).unwrap());
        let t_tuples: *const _ = input.instance.relation(t);
        let shared = |p: &Problem| {
            Arc::ptr_eq(p.prices.attr_prices(AttrRef::new(t, 0)).unwrap(), &t_prices)
                && std::ptr::eq(p.instance.relation(t), t_tuples)
        };

        let p = step1_predicates::apply(input).unwrap();
        assert!(shared(&p));
        let p = step2_repeated::apply(p).unwrap();
        assert!(shared(&p));
        // Step 2 dropped `R.B2`: `R.C` moved from position 3 to 2 as one
        // rename, and the only explicit entries are the merged minima.
        assert_eq!(p.provenance.renames.len(), 1);
        assert_eq!(
            p.provenance.renames.get(&AttrRef::new(r, 2)),
            Some(&AttrRef::new(r, 3))
        );
        assert_eq!(p.provenance.map.len(), 1);
        assert_eq!(
            resolve_table(&p),
            [
                "0.0=0 $4.00 -> [0.0=0]",
                "0.0=1 $4.00 -> [0.0=1]",
                "0.0=2 $3.00 -> [0.0=2]",
                "0.1=1 $2.00 -> [0.1=1]",
                "0.1=2 $1.00 -> [0.2=2]",
                "0.2=0 $4.00 -> [0.3=0]",
                "0.2=1 $4.00 -> [0.3=1]",
                "1.0=0 $4.00 -> [1.0=0]",
                "1.0=1 $4.00 -> [1.0=1]",
            ]
        );

        let free = [
            "0.0=0 $0.00 -> []",
            "0.0=1 $0.00 -> []",
            "1.0=0 $4.00 -> [1.0=0]",
            "1.0=1 $4.00 -> [1.0=1]",
        ];
        let expected: [(Price, &[&str], [&str; 4]); 4] = [
            (
                Price::dollars(14),
                &["0.0=0", "0.0=1", "0.0=2", "0.1=1", "0.2=2"],
                free,
            ),
            (Price::dollars(11), &["0.0=0", "0.0=1", "0.0=2"], free),
            (Price::dollars(3), &["0.1=1", "0.2=2"], free),
            (
                Price::ZERO,
                &[],
                [
                    "0.0=0 $4.00 -> [0.3=0]",
                    "0.0=1 $4.00 -> [0.3=1]",
                    "1.0=0 $4.00 -> [1.0=0]",
                    "1.0=1 $4.00 -> [1.0=1]",
                ],
            ),
        ];
        let branches = step3_hanging::branches(p).unwrap();
        assert_eq!(branches.len(), expected.len());
        for (b, (cost, views, table)) in branches.iter().zip(expected) {
            assert!(shared(&b.problem));
            assert_eq!(b.base_cost, cost);
            let mut bought: Vec<String> = b
                .base_views()
                .iter()
                .map(|v| format!("{}.{}={}", v.attr.rel.0, v.attr.attr.0, v.value))
                .collect();
            bought.sort();
            assert_eq!(bought, views);
            assert_eq!(resolve_table(&b.problem), table);
            // `R` is down to `R(C)`: one rename, whatever was shifted on
            // the way, and no explicit entry: a free cover is one rule in
            // the prices and one in the provenance, not an entry per value.
            let rc = AttrRef::new(r, 0);
            assert_eq!(b.problem.provenance.renames.len(), 1);
            assert!(b.problem.provenance.map.is_empty());
            let covered = cost > Price::ZERO;
            assert_eq!(
                b.problem.provenance.free,
                if covered { vec![rc] } else { vec![] }
            );
            assert_eq!(b.problem.prices.attr_prices(rc).is_none(), covered);
        }
        // Step 3 projects once for all branches: every branch holds the
        // one projected relation, and shares its catalog's columns.
        let first = &branches[0].problem;
        for b in &branches {
            assert!(std::ptr::eq(
                b.problem.instance.relation(r),
                first.instance.relation(r)
            ));
            assert!(b
                .problem
                .catalog
                .column(AttrRef::new(r, 0))
                .ptr_eq(first.catalog.column(AttrRef::new(r, 0))));
        }
    }

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
        assert!(d2.relation(s).contains(tuple![0, 20].values()));
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
