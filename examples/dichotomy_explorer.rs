//! Dichotomy explorer (Theorem 3.16): classify queries as PTIME or
//! NP-complete and price them on a demo database.
//!
//! Pass your own rules as arguments (quote each rule), or run without
//! arguments for a tour of the paper's named queries:
//!
//! ```text
//! cargo run --example dichotomy_explorer
//! cargo run --example dichotomy_explorer -- "Q(x, y) :- A(x, y), B(y, x)"
//! ```
//!
//! The demo schema: unary `P`, `U1`, `U2`, `U3`; binary `A`, `B`, `C`;
//! ternary `R3` — all over the column `{0..3}`.

#![allow(clippy::expect_used, reason = "an example may abort with a message")]

use qbdp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let col = Column::int_range(0, 3);
    let catalog = CatalogBuilder::new()
        .uniform_relation("P", &["X"], &col)
        .uniform_relation("U1", &["X"], &col)
        .uniform_relation("U2", &["X"], &col)
        .uniform_relation("U3", &["X"], &col)
        .uniform_relation("A", &["X", "Y"], &col)
        .uniform_relation("B", &["X", "Y"], &col)
        .uniform_relation("C", &["X", "Y"], &col)
        .uniform_relation("R3", &["X", "Y", "Z"], &col)
        .build()?;
    // A small random-ish database.
    let mut d = catalog.empty_instance();
    for (rel, tuples) in [
        ("P", vec![tuple![0], tuple![1]]),
        ("U1", vec![tuple![0]]),
        ("U2", vec![tuple![1], tuple![2]]),
        ("U3", vec![tuple![2]]),
        ("A", vec![tuple![0, 1], tuple![1, 2], tuple![2, 0]]),
        ("B", vec![tuple![1, 0], tuple![2, 1]]),
        ("C", vec![tuple![0, 2]]),
        ("R3", vec![tuple![0, 1, 2], tuple![1, 1, 1]]),
    ] {
        let rid = catalog.schema().rel_id(rel).expect("declared relation");
        d.insert_all(rid, tuples)?;
    }
    let prices = PriceList::uniform(&catalog, Price::dollars(1));
    let pricer = Pricer::new(catalog.clone(), d, prices)?;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let tour: Vec<(&str, String)> = if args.is_empty() {
        vec![
            (
                "path join (GChQ, Thm 3.7)",
                "Q(x,y,z) :- A(x,y), B(y,z)".into(),
            ),
            (
                "star join (GChQ)",
                "Q(x,y,z) :- A(x,y), C(x,z), P(x)".into(),
            ),
            ("cycle C2 (Thm 3.15)", "Q(x,y) :- A(x,y), B(y,x)".into()),
            (
                "cycle C3 (Thm 3.15)",
                "Q(x,y,z) :- A(x,y), B(y,z), C(z,x)".into(),
            ),
            (
                "H1 (NP-complete, Thm 3.5)",
                "Q(x,y,z) :- R3(x,y,z), U1(x), U2(y), U3(z)".into(),
            ),
            (
                "H2 = C2 + unary (NP-complete)",
                "Q(x,y) :- P(x), A(x,y), B(x,y)".into(),
            ),
            (
                "H3 (self-join, outside dichotomy)",
                "Q(x,y) :- P(x), A(x,y), P(y)".into(),
            ),
            ("H4 (projection, NP-complete)", "Q(x) :- A(x,y)".into()),
            (
                "boolean of a chain (PTIME via Qf)",
                "Q() :- A(x,y), B(y,z)".into(),
            ),
            (
                "disconnected mix",
                "Q(x,u,v) :- P(x), A(u,v), C(u,v)".into(),
            ),
        ]
    } else {
        args.into_iter().map(|a| ("from command line", a)).collect()
    };

    println!("{:38} {:28} {:>9}  engine", "query", "class", "price");
    println!("{}", "-".repeat(100));
    for (label, src) in tour {
        let q = match parse_rule(catalog.schema(), &src) {
            Ok(q) => q,
            Err(e) => {
                println!("{label:38} parse error: {e}");
                continue;
            }
        };
        let class = classify(&q);
        match pricer.price_cq(&q) {
            Ok(quote) => println!(
                "{label:38} {:28} {:>9}  {:?}",
                format!("{class:?}"),
                quote.price.to_string(),
                quote.method
            ),
            Err(e) => println!("{label:38} {:28} {e}", format!("{class:?}")),
        }
    }
    println!(
        "\nPTIME classes run the Min-Cut / cycle engines; NP-complete classes fall back to\n\
         the exact certificate engine (fine on demo-sized data, exponential in general)."
    );
    Ok(())
}
