//! A WebScaled-style web-crawl market (paper §5 cites WebScaled: "social
//! graphs, lists of sites using particular advertising platforms, …").
//!
//! Schema:
//! * `Links(Src, Dst)` — crawled hyperlinks between domains;
//! * `Backlinks(Src, Dst)` — the reverse-index product (sold separately, as
//!   crawl products often are);
//! * `Ads(Domain)` — domains running a given ad platform.
//!
//! The natural "mutual links" query `M(x,y) = Links(x,y), Backlinks(x,y)`
//! is — up to flipping `Backlinks`' columns — the **cycle query C₂**
//! (Theorem 3.15), making this the realistic home of the cycle experiments.

use super::lookup;
use crate::error::WorkloadError;
use qbdp_catalog::{Catalog, CatalogBuilder, Column, Instance, Tuple, Value};
use qbdp_core::price_points::PriceList;
use qbdp_core::Price;
use qbdp_determinacy::selection::SelectionView;
use rand::Rng;

/// A generated web-crawl market.
pub struct WebGraphMarket {
    /// Schema + columns.
    pub catalog: Catalog,
    /// The data. `Backlinks` mirrors `Links` with columns swapped.
    pub instance: Instance,
    /// Per-domain selection prices on `Links.Src`, `Backlinks.Src`, and
    /// `Ads.Domain`.
    pub prices: PriceList,
}

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct WebGraphConfig {
    /// Number of domains.
    pub domains: usize,
    /// Hyperlinks to draw (Zipf-skewed sources: hubs link a lot).
    pub links: usize,
    /// Zipf exponent for link sources.
    pub theta: f64,
    /// Price of one domain's outlink list.
    pub outlink_price: Price,
    /// Price of one domain's backlink list.
    pub backlink_price: Price,
    /// Price of one ad-platform membership check.
    pub ads_price: Price,
}

impl Default for WebGraphConfig {
    fn default() -> Self {
        WebGraphConfig {
            domains: 10,
            links: 40,
            theta: 1.1,
            outlink_price: Price::dollars(3),
            backlink_price: Price::dollars(5),
            ads_price: Price::dollars(1),
        }
    }
}

/// Generate the market.
pub fn generate(
    rng: &mut impl Rng,
    config: WebGraphConfig,
) -> Result<WebGraphMarket, WorkloadError> {
    let domains: Vec<String> = (0..config.domains).map(|i| format!("site{i}")).collect();
    let col = Column::texts(domains.iter().map(String::as_str));
    let catalog = CatalogBuilder::new()
        .relation("Links", &[("Src", col.clone()), ("Dst", col.clone())])
        .relation("Backlinks", &[("Src", col.clone()), ("Dst", col.clone())])
        .relation("Ads", &[("Domain", col)])
        .build()?;

    let mut instance = catalog.empty_instance();
    let links = lookup(&catalog, "Links")?;
    let backlinks = lookup(&catalog, "Backlinks")?;
    let ads = lookup(&catalog, "Ads")?;
    let zipf = crate::zipf::Zipf::new(config.domains, config.theta);
    for _ in 0..config.links {
        let s = zipf.sample(rng);
        let d = rng.gen_range(0..config.domains);
        if s == d {
            continue;
        }
        let src = Value::text(domains[s].as_str());
        let dst = Value::text(domains[d].as_str());
        instance.insert(links, Tuple::new([src.clone(), dst.clone()]))?;
        // The backlink product indexes the same edge from the target side.
        instance.insert(backlinks, Tuple::new([dst, src]))?;
    }
    for domain in &domains {
        if rng.gen_bool(0.3) {
            instance.insert(ads, Tuple::new([Value::text(domain.as_str())]))?;
        }
    }

    let mut prices = PriceList::new();
    for (attr_name, price) in [
        ("Links.Src", config.outlink_price),
        ("Backlinks.Src", config.backlink_price),
        ("Ads.Domain", config.ads_price),
    ] {
        let attr = catalog.schema().resolve_attr(attr_name)?;
        for v in catalog.column(attr).iter() {
            prices.set(SelectionView::new(attr, v.clone()), price);
        }
    }
    Ok(WebGraphMarket {
        catalog,
        instance,
        prices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_core::dichotomy::{classify, QueryClass};
    use qbdp_query::parser::parse_rule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mutual_links_is_a_cycle_query() {
        let mut rng = StdRng::seed_from_u64(2026);
        let m = generate(&mut rng, WebGraphConfig::default()).unwrap();
        assert!(m.catalog.check_instance(&m.instance).is_ok());
        assert!(m.prices.sells_identity(&m.catalog));
        // M(x, y) = Links(x, y), Backlinks(x, y): C2 up to orientation.
        let q = parse_rule(
            m.catalog.schema(),
            "M(x, y) :- Links(x, y), Backlinks(x, y)",
        )
        .unwrap();
        assert_eq!(classify(&q), QueryClass::Cycle(2));
    }

    #[test]
    fn backlinks_mirror_links() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = generate(&mut rng, WebGraphConfig::default()).unwrap();
        let links = m.catalog.schema().rel_id("Links").unwrap();
        let backlinks = m.catalog.schema().rel_id("Backlinks").unwrap();
        assert_eq!(
            m.instance.relation(links).len(),
            m.instance.relation(backlinks).len()
        );
        for t in m.instance.relation(links).iter() {
            let mirrored = [t[1].clone(), t[0].clone()];
            assert!(m.instance.relation(backlinks).contains(&mirrored));
        }
    }

    #[test]
    fn cycle_query_priced_on_small_crawl() {
        let mut rng = StdRng::seed_from_u64(99);
        let m = generate(
            &mut rng,
            WebGraphConfig {
                domains: 3,
                links: 6,
                ..WebGraphConfig::default()
            },
        )
        .unwrap();
        let pricer =
            qbdp_core::Pricer::new(m.catalog.clone(), m.instance.clone(), m.prices.clone())
                .unwrap();
        let quote = pricer
            .price_rule("M(x, y) :- Links(x, y), Backlinks(x, y)")
            .unwrap();
        assert!(quote.price.is_finite());
        // The quote survives independent audit.
        let q = parse_rule(
            m.catalog.schema(),
            "M(x, y) :- Links(x, y), Backlinks(x, y)",
        )
        .unwrap();
        assert!(pricer.verify_quote(&q, &quote).unwrap());
    }
}
