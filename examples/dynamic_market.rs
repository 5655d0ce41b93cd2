//! Dynamic pricing (§2.7): prices under database growth.
//!
//! Part 1 replays **Example 2.18** with the general §2 machinery: the
//! schedule `S1 = {(V, $1), (Q, $10), (ID, $100)}` with the join view
//! `V(x,y) = R(x), S(x,y)` and the boolean `Q() = ∃x R(x)` is consistent on
//! the empty database but becomes inconsistent after two insertions, and
//! under `S2 = {(V, $1), (ID, $100)}` the price of `Q` *drops* from $100 to
//! $1 — the anomaly that motivates restricting to selection views + full
//! queries.
//!
//! Part 2 shows the fix: with a selection-view price list and full CQs,
//! prices are monotone under every insertion (Propositions 2.20/2.22) and
//! consistency can never be lost (Proposition 3.2 is instance-independent).
//!
//! ```text
//! cargo run --example dynamic_market
//! ```

#![allow(clippy::expect_used, reason = "an example may abort with a message")]

use qbdp::core::dynamic::price_trajectory;
use qbdp::core::support::{arbitrage_price, find_arbitrage, SupportConfig};
use qbdp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    part1_example_2_18()?;
    part2_monotone_fullcq()?;
    Ok(())
}

fn part1_example_2_18() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Part 1: Example 2.18 — the projection anomaly ==\n");
    let col = Column::int_range(0, 2);
    let catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .build()?;
    let schema = catalog.schema();
    let v = parse_rule(schema, "V(x, y) :- R(x), S(x, y)")?;
    let q = parse_rule(schema, "Q() :- R(x)")?;
    let qb = Bundle::from(q.clone());

    let mut s1 = PriceSchedule::new();
    s1.add(PricePoint::new(
        "V",
        ViewDef::Queries(Bundle::from(v.clone())),
        Price::dollars(1),
    ));
    s1.add(PricePoint::new(
        "Q",
        ViewDef::Queries(qb.clone()),
        Price::dollars(10),
    ));
    s1.add(PricePoint::new(
        "ID",
        ViewDef::identity(&catalog),
        Price::dollars(100),
    ));

    let mut s2 = PriceSchedule::new();
    s2.add(PricePoint::new(
        "V",
        ViewDef::Queries(Bundle::from(v)),
        Price::dollars(1),
    ));
    s2.add(PricePoint::new(
        "ID",
        ViewDef::identity(&catalog),
        Price::dollars(100),
    ));

    let d1 = catalog.empty_instance();
    let mut d2 = catalog.empty_instance();
    d2.insert(schema.rel_id("R").expect("declared relation"), tuple![0])?;
    d2.insert(schema.rel_id("S").expect("declared relation"), tuple![0, 1])?;

    let cfg = SupportConfig::default();
    println!("S1 = {{(V, $1), (Q, $10), (ID, $100)}} with V(x,y) = R(x), S(x,y):");
    println!(
        "  on D1 = ∅:              consistent = {}",
        find_arbitrage(&catalog, &d1, &s1, cfg)?.is_empty()
    );
    let arb = find_arbitrage(&catalog, &d2, &s1, cfg)?;
    println!(
        "  on D2 = {{R(0), S(0,1)}}: consistent = {} — {}",
        arb.is_empty(),
        arb.first()
            .map(|a| format!("point #{} sellable for {} instead", a.point, a.cheaper))
            .unwrap_or_default()
    );

    let p_d1 = arbitrage_price(&catalog, &d1, &s2, &qb, cfg)?.price;
    let p_d2 = arbitrage_price(&catalog, &d2, &s2, &qb, cfg)?.price;
    println!("\nS2 = {{(V, $1), (ID, $100)}}: price of Q() = ∃x R(x)");
    println!("  p_D1(Q) = {p_d1}   (must buy ID: V reveals nothing about R alone)");
    println!("  p_D2(Q) = {p_d2}   (V(D2) ≠ ∅ certifies R ≠ ∅) — the price DROPPED");
    assert_eq!(p_d1, Price::dollars(100));
    assert_eq!(p_d2, Price::dollars(1));
    Ok(())
}

fn part2_monotone_fullcq() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== Part 2: selection views + full CQs are monotone ==\n");
    let col = Column::int_range(0, 4);
    let catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["Y"], &col)
        .build()?;
    let prices = PriceList::uniform(&catalog, Price::dollars(1));
    let mut pricer = Pricer::new(catalog.clone(), catalog.empty_instance(), prices)?;
    let q = parse_rule(catalog.schema(), "Q(x, y) :- R(x), S(x, y), T(y)")?;
    let r = catalog.schema().rel_id("R").expect("declared relation");
    let s = catalog.schema().rel_id("S").expect("declared relation");
    let t = catalog.schema().rel_id("T").expect("declared relation");

    let batches = vec![
        vec![(r, tuple![0])],
        vec![(s, tuple![0, 1]), (t, tuple![1])],
        vec![(r, tuple![2]), (s, tuple![2, 3])],
        vec![(t, tuple![3])],
        vec![(s, tuple![1, 1]), (s, tuple![3, 3])],
        vec![(r, tuple![1]), (t, tuple![0])],
    ];
    let traj = price_trajectory(&mut pricer, batches, &q)?;
    println!("price of Q(x,y) = R(x), S(x,y), T(y) as the database grows:");
    for (tuples, price) in &traj.steps {
        println!("  |D| = {tuples:>2}  ->  {price}");
    }
    assert!(
        traj.is_monotone(),
        "Prop 2.22 violated: {:?}",
        traj.first_violation()
    );
    println!("monotone ✓ (Proposition 2.22); consistency held at every step ✓ (Prop 3.2)");
    Ok(())
}
