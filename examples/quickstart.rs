//! Quickstart: the paper's running example (Figure 1 / Example 3.8),
//! end to end through the marketplace API.
//!
//! ```text
//! cargo run --example quickstart
//! ```

#![allow(clippy::expect_used, reason = "an example may abort with a message")]

use qbdp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The seller publishes schema, columns, data, and per-view prices as a
    // `.qdp` document — every selection view costs $1, as in Example 3.8.
    let mut qdp = String::from(
        "schema R(X)\nschema S(X, Y)\nschema T(Y)\n\
         column R.X = {a1, a2, a3, a4}\n\
         column S.X = {a1, a2, a3, a4}\n\
         column S.Y = {b1, b2, b3}\n\
         column T.Y = {b1, b2, b3}\n\
         tuple R(a1)\ntuple R(a2)\n\
         tuple S(a1, b1)\ntuple S(a1, b2)\ntuple S(a2, b2)\ntuple S(a4, b1)\n\
         tuple T(b1)\ntuple T(b3)\n",
    );
    for view in [
        "R.X=a1", "R.X=a2", "R.X=a3", "R.X=a4", "S.X=a1", "S.X=a2", "S.X=a3", "S.X=a4", "S.Y=b1",
        "S.Y=b2", "S.Y=b3", "T.Y=b1", "T.Y=b2", "T.Y=b3",
    ] {
        qdp.push_str(&format!("price {view} 100\n"));
    }

    let market = Market::open_qdp(&qdp)?;
    println!("market open; price list is arbitrage-free (Proposition 3.2)\n");

    // A buyer asks for the chain query Q(x, y) = R(x), S(x, y), T(y).
    let query = "Q(x, y) :- R(x), S(x, y), T(y)";
    let quote = market.quote_str(query)?;
    println!("query : {}", quote.query);
    println!("class : {:?} (priced by {:?})", quote.class, quote.method);
    println!(
        "price : {}   <- the paper computes 6 (Example 3.8)",
        quote.price
    );
    println!("the cheapest determining views (the min-cut of Figure 1c):");
    for item in quote.receipt() {
        println!("  {item}");
    }
    assert_eq!(quote.price, Price::dollars(6));

    // Purchasing delivers the answer and records the sale.
    let purchase = market.purchase_str(query)?;
    println!("\nanswer tuples:");
    for t in &purchase.answer {
        println!("  {t}");
    }
    println!(
        "\nledger: {} sale(s), revenue {}",
        market.sales(),
        market.revenue()
    );

    // A cheaper, narrower question: "is there any business chain through
    // a1?" — boolean queries are priced by their cheapest secured witness.
    let boolean = market.quote_str("Exists() :- R(x), S(x, y), T(y)")?;
    println!(
        "\nboolean query price: {} (secure one witness)",
        boolean.price
    );
    Ok(())
}
