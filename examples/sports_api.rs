//! An Infochimps-style MLB data market (paper §3): selection APIs priced
//! per lookup, and chain queries joining across them priced by Min-Cut.
//!
//! Demonstrates: chain-query quotes across three APIs, bundle subadditivity
//! (Proposition 2.8), and that pricing is *not* monotone w.r.t. query
//! containment (Example 4.1).
//!
//! ```text
//! cargo run --example sports_api
//! ```

#![allow(clippy::expect_used, reason = "an example may abort with a message")]

use qbdp::core::support::{arbitrage_price, SupportConfig};
use qbdp::prelude::*;
use qbdp::workload::scenarios::sports::{generate, SportsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(1908);
    let config = SportsConfig {
        teams: 8,
        games: 20,
        ..SportsConfig::default()
    };
    let m = generate(&mut rng, config)?;
    let market = Market::open(m.catalog.clone(), m.instance.clone(), m.prices.clone())?;
    let schema = m.catalog.schema();

    println!(
        "MLB market: {} teams, {} games\n",
        config.teams, config.games
    );

    // A chain across all three APIs: name → team id → games.
    // Team(name, tid), Game(gid, tid, att): join on tid.
    println!("-- chain queries across the APIs --");
    for (label, q) in [
        (
            "games of team3 (name → id → games)",
            "Q(tid, g, a) :- Team('team3', tid), Game(g, tid, a)",
        ),
        (
            "stats of team3",
            "Q(tid, w, l) :- Team('team3', tid), Stats(tid, w, l)",
        ),
        ("the whole team table", "Q(n, tid) :- Team(n, tid)"),
    ] {
        let quote = market.quote_str(q)?;
        println!(
            "{label:45} -> {:>8} via {:?}",
            quote.price.to_string(),
            quote.method
        );
    }

    // Bundle subadditivity (Proposition 2.8): two queries bought together
    // never cost more than separately — shared views are paid once.
    println!("\n-- bundle subadditivity (Proposition 2.8) --");
    let q1 = parse_rule(
        schema,
        "Q1(tid, w, l) :- Team('team1', tid), Stats(tid, w, l)",
    )?;
    let q2 = parse_rule(
        schema,
        "Q2(tid, g, a) :- Team('team1', tid), Game(g, tid, a)",
    )?;
    let pricer = Pricer::new(m.catalog.clone(), m.instance.clone(), m.prices.clone())?;
    let p1 = pricer.price_cq(&q1)?.price;
    let p2 = pricer.price_cq(&q2)?.price;
    let bundle = Bundle::new([Ucq::single(q1), Ucq::single(q2)]);
    let pb = pricer.price_bundle(&bundle)?.price;
    println!("price(Q1) = {p1},  price(Q2) = {p2},  price(Q1, Q2 bundled) = {pb}");
    assert!(pb <= p1.saturating_add(p2));
    println!("bundle ≤ sum holds: {pb} ≤ {}", p1.saturating_add(p2));

    // Containment non-monotonicity (Example 4.1): Q1 ⊆ Q2 imposes no
    // price relation — the narrower query joins through the Team relation
    // and so additionally prices Team information.
    println!("\n-- containment vs price (Example 4.1) --");
    let narrow = parse_rule(
        schema,
        "Q(g, tid, a) :- Team('team1', tid), Game(g, tid, a)",
    )?;
    let wide = parse_rule(schema, "Q(g, tid, a) :- Game(g, tid, a)")?;
    assert!(qbdp::query::homomorphism::is_contained_in(&narrow, &wide));
    let p_narrow = pricer.price_cq(&narrow)?.price;
    let p_wide = pricer.price_cq(&wide)?.price;
    println!("Q_narrow ⊆ Q_wide, price(narrow) = {p_narrow}, price(wide) = {p_wide}");
    println!("(no ≤ relation is imposed — §4 argues monotonicity w.r.t. containment is wrong)");

    // The §2 general framework: compare the per-view price list with a
    // schedule that also offers the whole dataset at a premium.
    println!("\n-- the whole dataset as a §2 price point --");
    let mut schedule = PriceSchedule::new();
    schedule.add(PricePoint::new(
        "ID",
        ViewDef::identity(&m.catalog),
        Price::dollars(500),
    ));
    let target = Bundle::identity(schema)?;
    let r = arbitrage_price(
        &m.catalog,
        &m.instance,
        &schedule,
        &target,
        SupportConfig::default(),
    )?;
    println!("price(entire dataset) under {{(ID, $500)}} = {}", r.price);
    Ok(())
}
