//! The paper's §1 motivation, made executable: a CustomLists-style USA
//! business directory selling per-state views ($199) and per-county views
//! ($49).
//!
//! Demonstrates:
//! 1. query-based pricing frees the seller from anticipating every view:
//!    buyers ask for arbitrary county subsets, joins with the Restaurant
//!    tag, or single businesses, and prices derive automatically;
//! 2. the §1 arbitrage anecdote: when some counties are empty, buying the
//!    remaining counties of a state is cheaper than the state view, yet
//!    determines the same data — the arbitrage-price charges the cheaper
//!    amount automatically, so the cunning buyer has no edge.
//!
//! ```text
//! cargo run --example business_directory
//! ```

#![allow(clippy::expect_used, reason = "an example may abort with a message")]

use qbdp::prelude::*;
use qbdp::workload::scenarios::business::{generate, BusinessConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2012);
    let config = BusinessConfig {
        states: 8,
        counties_per_state: 5,
        businesses: 150,
        empty_county_fraction: 0.4,
        ..BusinessConfig::default()
    };
    let m = generate(&mut rng, config)?;
    let market = Market::open(m.catalog.clone(), m.instance.clone(), m.prices.clone())?;

    let business = m
        .catalog
        .schema()
        .rel_id("Business")
        .expect("declared relation");
    println!(
        "directory: {} businesses across {} states x {} counties\n",
        m.instance.relation(business).len(),
        config.states,
        config.counties_per_state
    );

    // 1. Ad-hoc queries the seller never anticipated.
    println!("-- ad hoc queries --");
    for (label, q) in [
        (
            "all businesses in state S3",
            "Q(n, c) :- Business(n, 'S3', c)".to_string(),
        ),
        (
            "restaurants in state S3",
            "Q(n, c) :- Business(n, 'S3', c), Restaurant(n)".to_string(),
        ),
        (
            "one county (full record)",
            "Q(n, s) :- Business(n, s, 'S3_C0')".to_string(),
        ),
    ] {
        match market.quote_str(&q) {
            Ok(quote) => println!("{label:35} -> {}", quote.price),
            Err(e) => println!("{label:35} -> {e}"),
        }
    }

    // 2. The arbitrage anecdote of §1: the state view S3 costs $199, but
    // the same information — all S3 businesses, county by county — can be
    // had through the county views. The buyer restricts the county column
    // with an `in` predicate (Step 1 of the GChQ algorithm shrinks the
    // problem to those counties), and the Min-Cut picks whichever mix of
    // state/county/name views is cheapest.
    let county_attr = m.catalog.schema().resolve_attr("Business.County")?;
    let s3_counties: Vec<String> = m
        .catalog
        .column(county_attr)
        .iter()
        .filter(|c| c.as_text().is_some_and(|s| s.starts_with("S3_")))
        .map(|c| c.to_string())
        .collect();
    let live = s3_counties
        .iter()
        .filter(|c| {
            m.instance
                .relation(business)
                .select_count(county_attr.attr, &Value::text(c.as_str()))
                > 0
        })
        .count();
    println!("\n-- the §1 arbitrage anecdote --");
    println!(
        "state S3 sells for {}; its {} counties sell for {} each ({} of them hold data)",
        config.state_price,
        s3_counties.len(),
        config.county_price,
        live,
    );
    let quoted_counties: Vec<String> = s3_counties.iter().map(|c| format!("'{c}'")).collect();
    let slice_q = format!(
        "Q(n, c) :- Business(n, 'S3', c), c in {{{}}}",
        quoted_counties.join(", ")
    );
    let quote = market.quote_str(&slice_q)?;
    let county_cover: Price = s3_counties.iter().map(|_| config.county_price).sum();
    println!(
        "buying the S3 slice county-by-county would cost {county_cover}; the state view {}",
        config.state_price
    );
    println!(
        "the arbitrage-price quotes {} — the Min-Cut takes the cheaper route \
         automatically, so a cunning buyer has no edge over the listed price.",
        quote.price
    );
    assert!(quote.price <= config.state_price.min(county_cover));

    // 3. A consistency check the seller runs before going live: if the
    // county prices were raised to $60, 5 counties ($300) could exceed...
    // actually the binding constraint is per-relation (Prop 3.2): a state
    // selection must not exceed the full *county* cover of the whole
    // column. Demonstrate a deliberately broken list being rejected.
    let mut broken = m.prices.clone();
    let state_attr = m.catalog.schema().resolve_attr("Business.State")?;
    let name_attr = m.catalog.schema().resolve_attr("Business.Name")?;
    // Names are 50¢ each; with 150 names the full Name cover is $75.
    // Price one state at $99,999 — more than revealing everything by name.
    broken.set(
        SelectionView::new(state_attr, Value::text("S0")),
        Price::dollars(99_999),
    );
    let _ = name_attr;
    match Market::open(m.catalog.clone(), m.instance.clone(), broken) {
        Err(MarketError::InconsistentPrices(msg)) => {
            println!("\n-- consistency guard --\nrejected broken price list: {msg}");
        }
        other => {
            println!("unexpected: {:?}", other.is_ok());
        }
    }
    Ok(())
}
