//! Differential test of the O(arity) price-revision check
//! (`Pricer::revise_price`, backed by `consistency::revision_arbitrage`)
//! against the full Proposition 3.2 check (`find_list_arbitrage`) run on
//! a revised copy of the list.
//!
//! Random relations of arity 1–3 over small columns carry random
//! consistent lists — with unpriced views, views priced outside their
//! column, `INFINITE` prices and prices near the sentinel, so covers
//! clamp — and take random revision streams: refused ones, newly priced
//! views, values outside the column, prices on either side of the
//! binding bound. On every revision the verdict must match the full
//! check, a refusal must be the full check's first violation, an
//! accepted revision must leave exactly the revised list, and every
//! memoized full cover must still equal a re-sum.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qbdp_catalog::{AttrRef, Catalog, CatalogBuilder, Column, Value};
use qbdp_core::consistency::find_list_arbitrage;
use qbdp_core::price_points::PriceList;
use qbdp_core::{Price, Pricer};
use qbdp_determinacy::selection::SelectionView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A value no column holds.
const OUTSIDE: i64 = 99;

/// The revised relation `R` of arity `arity` (attribute `k` over
/// `{0, …, sizes[k] - 1}`), beside a unary `U` and a binary `V` the
/// revisions never touch.
fn catalog(sizes: &[i64]) -> Catalog {
    let names = ["A0", "A1", "A2"];
    let attrs: Vec<(&str, Column)> = sizes
        .iter()
        .zip(names)
        .map(|(&n, name)| (name, Column::int_range(0, n)))
        .collect();
    CatalogBuilder::new()
        .relation("U", &[("X", Column::int_range(0, 3))])
        .relation("R", &attrs)
        .relation(
            "V",
            &[
                ("X", Column::int_range(0, 2)),
                ("Y", Column::int_range(0, 2)),
            ],
        )
        .build()
        .unwrap()
}

/// A random price: mostly small, sometimes `INFINITE` or within a few
/// cents of the sentinel (so a cover of two of them clamps).
fn price(rng: &mut StdRng) -> Price {
    let inf = Price::INFINITE.as_cents();
    match rng.gen_range(0..10) {
        0 => Price::INFINITE,
        1 => Price::cents(inf - rng.gen_range(1..4)),
        2 => Price::cents(inf / 2 - rng.gen_range(0..3)),
        3 => Price::ZERO,
        _ => Price::cents(rng.gen_range(1..60)),
    }
}

/// Every selection view a revision may name: each column value of each
/// attribute of `R`, plus one value outside the column per attribute.
fn candidate_views(c: &Catalog) -> Vec<SelectionView> {
    let r = c.schema().rel_id("R").unwrap();
    let arity = c.schema().relation(r).arity();
    (0..arity as u32)
        .flat_map(|pos| {
            let attr = AttrRef::new(r, pos);
            c.column(attr)
                .iter()
                .cloned()
                .chain([Value::Int(OUTSIDE)])
                .map(move |v| SelectionView::new(attr, v))
        })
        .collect()
}

/// A random list made consistent: every view of every relation priced
/// with probability 3/4 (plus some outside their column), then views
/// undercut by a cover lowered to the cover's price, and whatever still
/// violates after a few rounds taken off sale (which only relaxes other
/// bounds).
fn consistent_list(c: &Catalog, rng: &mut StdRng) -> PriceList {
    let mut pl = PriceList::new();
    for attr in c.schema().all_attrs() {
        for v in c.column(attr).iter() {
            if rng.gen_range(0..4) > 0 {
                pl.set(SelectionView::new(attr, v.clone()), price(rng));
            }
        }
        if rng.gen_range(0..4) == 0 {
            pl.set(SelectionView::new(attr, Value::Int(OUTSIDE)), price(rng));
        }
    }
    for _ in 0..4 {
        let violations = find_list_arbitrage(c, &pl);
        if violations.is_empty() {
            return pl;
        }
        for v in violations {
            pl.set(v.view, v.cover_price);
        }
    }
    for v in find_list_arbitrage(c, &pl) {
        pl.remove(&v.view);
    }
    assert!(find_list_arbitrage(c, &pl).is_empty());
    pl
}

/// The binding bound on `attr`: the cheapest full cover of another
/// attribute of its relation.
fn bound(c: &Catalog, pl: &PriceList, attr: AttrRef) -> Option<Price> {
    let arity = c.schema().relation(attr.rel).arity();
    (0..arity as u32)
        .filter(|&pos| pos != attr.attr.0)
        .map(|pos| pl.full_cover_price(c, AttrRef::new(attr.rel, pos)))
        .min()
}

/// The revision's new price: random, or the bound itself or a cent on
/// either side of it (the edge of refusal).
fn revision_price(c: &Catalog, pl: &PriceList, attr: AttrRef, rng: &mut StdRng) -> Price {
    match (rng.gen_range(0..3), bound(c, pl, attr)) {
        (0, Some(b)) if b.is_finite() => {
            let cents = b.as_cents();
            Price::cents(match rng.gen_range(0..3) {
                0 => cents.saturating_sub(1),
                1 => cents,
                _ => cents + 1,
            })
        }
        _ => price(rng),
    }
}

/// The full cover of every attribute re-summed over its column,
/// bypassing the memo.
fn resum(c: &Catalog, pl: &PriceList, attr: AttrRef) -> Price {
    c.column(attr).iter().map(|v| pl.get_at(attr, v)).sum()
}

/// A list's priced views, sorted: a snapshot that shares no map with
/// the list (holding a clone would make the pricer's next write copy the
/// shared map, and the copy starts without its memo).
fn snapshot(pl: &PriceList) -> Vec<(SelectionView, Price)> {
    let mut views: Vec<_> = pl.iter().collect();
    views.sort_by(|a, b| a.0.cmp(&b.0));
    views
}

/// What one revision stream did.
#[derive(Default)]
struct Tally {
    accepted: usize,
    refused: usize,
    /// Refusals naming a view on an attribute other than the revised
    /// one (the revision lowered that attribute's bound).
    refused_elsewhere: usize,
}

/// Run 24 random revisions against the full check (see the module docs).
fn revision_stream(arity: usize, sizes: &[i64], seed: u64) -> Result<Tally, TestCaseError> {
    let mut tally = Tally::default();
    let c = catalog(&sizes[..arity]);
    let mut rng = StdRng::seed_from_u64(seed);
    let list = consistent_list(&c, &mut rng);
    let mut pricer = Pricer::new(c.clone(), c.empty_instance(), list).unwrap();
    let views = candidate_views(&c);
    let attrs = c.schema().all_attrs();
    for step in 0..24 {
        let view = views[rng.gen_range(0..views.len())].clone();
        let price = revision_price(&c, pricer.prices(), view.attr, &mut rng);
        let before = snapshot(pricer.prices());
        // The full check on a revised clone, dropped before the
        // revision so the pricer's maps are unshared when it writes.
        let (expected, after, covers) = {
            let mut revised = pricer.prices().clone();
            revised.set(view.clone(), price);
            let covers: Vec<Price> = attrs.iter().map(|&a| resum(&c, &revised, a)).collect();
            (
                find_list_arbitrage(&c, &revised),
                snapshot(&revised),
                covers,
            )
        };
        let cover_of = |a: AttrRef| covers[attrs.iter().position(|&b| b == a).unwrap()];
        match pricer.revise_price(view.clone(), price) {
            Ok(()) => {
                tally.accepted += 1;
                prop_assert!(
                    expected.is_empty(),
                    "step {}: {:?} at {} accepted, but the full check finds {:?}",
                    step,
                    view,
                    price,
                    expected
                );
                prop_assert_eq!(snapshot(pricer.prices()), after);
            }
            Err(v) => {
                tally.refused += 1;
                if v.view.attr != view.attr {
                    tally.refused_elsewhere += 1;
                }
                let first = expected.first();
                prop_assert!(
                    first.is_some(),
                    "step {}: {:?} at {} refused ({:?}), but the full check finds none",
                    step,
                    view,
                    price,
                    v
                );
                let first = first.unwrap();
                prop_assert_eq!(&v.view, &first.view);
                prop_assert_eq!(v.price, first.price);
                prop_assert_eq!(v.via_cover_of, first.via_cover_of);
                prop_assert_eq!(v.cover_price, first.cover_price);
                // A real violation of the revised list: the view is
                // priced there above the cover it names, and that
                // cover is the first cheapest one of another
                // attribute of its relation.
                let listed = after.iter().find(|(w, _)| *w == v.view).map(|&(_, p)| p);
                prop_assert_eq!(listed, Some(v.price));
                prop_assert!(v.price > v.cover_price);
                let rel = v.view.attr.rel;
                let arity = c.schema().relation(rel).arity() as u32;
                let others = (0..arity)
                    .filter(|&pos| pos != v.view.attr.attr.0)
                    .map(|pos| AttrRef::new(rel, pos));
                let cheapest = others.clone().map(cover_of).min();
                prop_assert_eq!(cheapest, Some(v.cover_price));
                let first_min = others.clone().find(|&a| cover_of(a) == v.cover_price);
                prop_assert_eq!(first_min, Some(v.via_cover_of));
                // A refusal leaves the list untouched.
                prop_assert_eq!(snapshot(pricer.prices()), before);
            }
        }
        for &attr in &attrs {
            prop_assert_eq!(
                pricer.prices().full_cover_price(&c, attr),
                resum(&c, pricer.prices(), attr)
            );
        }
    }
    Ok(tally)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn revisions_match_the_full_check_on_the_revised_list(
        arity in 1usize..=3,
        sizes in proptest::collection::vec(1i64..=4, 3),
        seed in any::<u64>(),
    ) {
        revision_stream(arity, &sizes, seed)?;
    }
}

/// The streams reach every branch of the check: accepted revisions,
/// refusals on the revised attribute, and refusals on another attribute
/// whose bound the revision lowered.
#[test]
fn revision_streams_reach_every_verdict() {
    let mut total = Tally::default();
    for seed in 0..64 {
        for arity in 2..=3 {
            let t = revision_stream(arity, &[3, 2, 4], seed).unwrap();
            total.accepted += t.accepted;
            total.refused += t.refused;
            total.refused_elsewhere += t.refused_elsewhere;
        }
    }
    assert!(total.accepted > 100, "{} accepted", total.accepted);
    assert!(
        total.refused > total.refused_elsewhere,
        "{} refused on the revised attribute",
        total.refused - total.refused_elsewhere
    );
    assert!(
        total.refused_elsewhere > 10,
        "{} refused elsewhere",
        total.refused_elsewhere
    );
}
