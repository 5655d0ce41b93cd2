//! A WebScaled-style crawl market (paper §5): selling hyperlink data by
//! domain, with the "mutual links" query exercising the cycle machinery of
//! Theorem 3.15.
//!
//! ```text
//! cargo run --example web_crawl
//! ```

#![allow(clippy::expect_used, reason = "an example may abort with a message")]

use qbdp::core::cycle::{cycle_bounds, cycle_price};
use qbdp::core::exact::certificates::CertificateConfig;
use qbdp::core::normalize::Problem;
use qbdp::prelude::*;
use qbdp::workload::scenarios::webgraph::{generate, WebGraphConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2026);
    let config = WebGraphConfig {
        domains: 6,
        links: 18,
        ..WebGraphConfig::default()
    };
    let m = generate(&mut rng, config)?;
    let market = Market::open(m.catalog.clone(), m.instance.clone(), m.prices.clone())?;
    let links = m
        .catalog
        .schema()
        .rel_id("Links")
        .expect("declared relation");
    println!(
        "crawl: {} domains, {} links; outlink lists {} / backlink lists {} per domain\n",
        config.domains,
        m.instance.relation(links).len(),
        config.outlink_price,
        config.backlink_price,
    );

    // Ordinary chain queries through the crawl products.
    println!("-- chain queries --");
    for (label, q) in [
        ("outlinks of site0", "Q(d) :- Links('site0', d)"),
        (
            "sites advertising AND linked from site0",
            "Q(d) :- Links('site0', d), Ads(d)",
        ),
    ] {
        let quote = market.quote_str(q)?;
        println!(
            "{label:42} -> {:>8} via {:?}",
            quote.price.to_string(),
            quote.method
        );
    }

    // The mutual-links query is the cycle C2 (Theorem 3.15).
    println!("\n-- mutual links: the cycle query C2 --");
    let src = "M(x, y) :- Links(x, y), Backlinks(x, y)";
    let q = parse_rule(m.catalog.schema(), src)?;
    println!("query   : {src}");
    println!("class   : {:?}", classify(&q));
    let problem = Problem::new(
        m.catalog.clone(),
        m.instance.clone(),
        m.prices.clone(),
        q.clone(),
    );
    let (lb, ub) = cycle_bounds(&problem)?;
    let exact = cycle_price(&problem, CertificateConfig::default())?;
    println!(
        "bounds  : {lb} ≤ price ≤ {}   (polynomial sandwich on the unrolled cycle)",
        ub.price
    );
    println!(
        "price   : {}   ({} views){}",
        exact.price,
        exact.views.len(),
        if lb == ub.price {
            "  — certified optimal in PTIME"
        } else {
            "  — exact fallback"
        },
    );

    // The same quote through the marketplace, with audit.
    let quote = market.quote_str(src)?;
    assert_eq!(quote.price, exact.price);
    let pricer = Pricer::new(m.catalog.clone(), m.instance.clone(), m.prices.clone())?;
    let audited = pricer.verify_quote(&q, &pricer.price_cq(&q)?)?;
    println!("audit   : buyer-side verification of the receipt -> {audited}");
    let purchase = market.purchase_str(src)?;
    println!(
        "answer  : {} mutually-linked pair(s)",
        purchase.answer.len()
    );
    Ok(())
}
