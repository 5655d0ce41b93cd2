//! The four workloads: each one's market, query pool, request table,
//! traffic mix, and open-loop rate.
//!
//! The markets are fixed (the directory's generator runs on a fixed seed),
//! so every run prices the same data; `--seed` draws the traffic: the
//! arrival times, which requests arrive, and the price revisions.
//!
//! | workload | market | traffic | layer it loads |
//! |---|---|---|---|
//! | `hot_quotes` | E19 chain, N=64, all views $1 | Zipf(1.1) quotes over 64 selections + the chain join, all cached | serve + query parse/render + cache lookup |
//! | `price_storm` | E17 chain, N=40 | uniform quotes over the chain join + 40 selections; a seller revises `R.X`/`S.X` prices, ~1 per 4 quotes | market invalidation, classify, flow solve |
//! | `durable_buys` | as `hot_quotes` | 80% quotes, 20% purchases of Zipf-chosen selections | WAL append + fsync on the event loop |
//! | `directory` | §1 business directory, 10 states × 10 counties × 400 businesses | 60% Zipf(1.1) state and restaurant lists, 40% novel county slices | cold pricing of novel queries, cache growth |

use crate::gen::post;
use qbdp_catalog::{tuple, Catalog, CatalogBuilder, Column, Instance, QdpFile};
use qbdp_core::price_points::PriceList;
use qbdp_core::{Price, Pricer};
use qbdp_determinacy::selection::SelectionView;
use qbdp_workload::scenarios::business::{self, BusinessConfig};
use qbdp_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every workload, in the order a full run measures them.
pub const NAMES: [&str; 4] = ["hot_quotes", "price_storm", "durable_buys", "directory"];

/// Open-loop arrival rates (requests per second), set once on a 2-core
/// machine at 16% or less of each workload's median `max_rps`: at higher
/// rates a stall of a few milliseconds piles up requests that the server's
/// parser drains in quadratic time. `hot_quotes` runs at `durable_buys`'
/// rate, under 1% of its own `max_rps`: its quotes cost so little CPU that
/// at higher rates the batching the server's speed allows moves its cost
/// per quote (see README.md). They change only together with the
/// benchmark, and `BENCHMARK.json` repeats them.
pub fn rate(workload: &str) -> f64 {
    match workload {
        "hot_quotes" => 2_000.0,
        "price_storm" => 1_500.0,
        "durable_buys" => 2_000.0,
        "directory" => 250.0,
        _ => 0.0,
    }
}

/// Seller revisions per buyer quote in `price_storm`.
pub const REVISIONS_PER_QUOTE: f64 = 0.25;

/// Zipf exponent of every skewed choice.
const THETA: f64 = 1.1;

/// Whether a request quotes or buys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /quote`
    Quote,
    /// `POST /purchase`
    Purchase,
}

/// How the next request is drawn.
#[derive(Clone, Debug)]
enum Mix {
    /// Zipf over the first `n` queries.
    Zipf(Zipf),
    /// Uniform over all queries.
    Uniform(usize),
    /// Zipf quotes over the pool; a `share` of purchases, Zipf over the
    /// first `buyable` queries.
    QuoteBuy {
        quotes: Zipf,
        buys: Zipf,
        share: f64,
    },
    /// A `hot_share` of Zipf draws over the first `hot` queries, the rest
    /// uniform over the remaining ones.
    HotCold {
        hot: Zipf,
        hot_share: f64,
        cold: usize,
    },
}

/// A workload's market and traffic.
pub struct Fixture {
    /// Workload name.
    pub name: &'static str,
    /// Seed market as `.qdp` text (the program's input).
    pub qdp: String,
    /// Query texts; request `i` of the table names `req_query[i]`.
    pub queries: Vec<String>,
    /// The request table: raw HTTP request bytes.
    pub requests: Vec<Vec<u8>>,
    /// Which query each request sends.
    pub req_query: Vec<u32>,
    /// Whether each request quotes or buys.
    pub req_kind: Vec<Kind>,
    /// Queries quoted once during setup, so they are cached when load starts.
    pub warm: Vec<usize>,
    /// Queries whose every served price is checked against a cold price.
    pub checked: Vec<usize>,
    /// Queries (beyond `checked`) sampled and checked after the run.
    pub sampled: Vec<usize>,
    /// Prices that never change during the run (all but `price_storm`).
    pub static_prices: bool,
    mix: Mix,
    catalog: Catalog,
    instance: Instance,
    prices: PriceList,
}

impl Fixture {
    /// Draw the next request-table index.
    pub fn pick(&self, rng: &mut StdRng) -> u32 {
        match &self.mix {
            Mix::Zipf(z) => z.sample(rng) as u32,
            Mix::Uniform(n) => rng.gen_range(0..*n) as u32,
            Mix::QuoteBuy {
                quotes,
                buys,
                share,
            } => {
                if rng.gen_bool(*share) {
                    // Purchase requests follow the quote requests.
                    (self.queries.len() + buys.sample(rng)) as u32
                } else {
                    quotes.sample(rng) as u32
                }
            }
            Mix::HotCold {
                hot,
                hot_share,
                cold,
            } => {
                if rng.gen_bool(*hot_share) {
                    hot.sample(rng) as u32
                } else {
                    (hot.len() + rng.gen_range(0..*cold)) as u32
                }
            }
        }
    }

    /// Share of requests that are purchases.
    pub fn purchase_share(&self) -> f64 {
        match &self.mix {
            Mix::QuoteBuy { share, .. } => *share,
            _ => 0.0,
        }
    }

    /// An independent pricer over the seed market (the oracle's reference;
    /// it shares nothing with the served market).
    pub fn cold_pricer(&self) -> Pricer {
        Pricer::new(
            self.catalog.clone(),
            self.instance.clone(),
            self.prices.clone(),
        )
        .expect("the fixture's instance respects its catalog")
    }

    /// The seed market's price list.
    pub fn prices(&self) -> &PriceList {
        &self.prices
    }

    /// The seed market's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

/// Build a workload's fixture; `None` for an unknown name.
pub fn build(name: &str) -> Option<Fixture> {
    let fx = match name {
        "hot_quotes" => {
            let (catalog, instance, prices) = chain_market(64, 100, 100);
            let queries = chain_pool(64);
            let all: Vec<usize> = (0..queries.len()).collect();
            Fixture {
                name: "hot_quotes",
                mix: Mix::Zipf(Zipf::new(queries.len(), THETA)),
                warm: all.clone(),
                checked: all,
                ..assemble(catalog, instance, prices, queries, 0)
            }
        }
        "durable_buys" => {
            let (catalog, instance, prices) = chain_market(64, 100, 100);
            let queries = chain_pool(64);
            let all: Vec<usize> = (0..queries.len()).collect();
            let buyable = 64;
            Fixture {
                name: "durable_buys",
                mix: Mix::QuoteBuy {
                    quotes: Zipf::new(queries.len(), THETA),
                    buys: Zipf::new(buyable, THETA),
                    share: 0.2,
                },
                warm: all.clone(),
                checked: all,
                ..assemble(catalog, instance, prices, queries, buyable)
            }
        }
        "price_storm" => {
            let (catalog, instance, prices) = chain_market(40, 150, 100);
            let queries = chain_pool(40);
            let n = queries.len();
            Fixture {
                name: "price_storm",
                mix: Mix::Uniform(n),
                warm: (0..n).collect(),
                static_prices: false,
                ..assemble(catalog, instance, prices, queries, 0)
            }
        }
        "directory" => {
            let mut rng = StdRng::seed_from_u64(2012);
            let m = business::generate(
                &mut rng,
                BusinessConfig {
                    states: 10,
                    counties_per_state: 10,
                    businesses: 400,
                    ..BusinessConfig::default()
                },
            )
            .expect("the business directory generates");
            let mut queries = Vec::new();
            for s in &m.states {
                queries.push(format!("Q(n, c) :- Business(n, '{s}', c)"));
                queries.push(format!("Q(n, c) :- Business(n, '{s}', c), Restaurant(n)"));
            }
            let hot = queries.len();
            // Every non-empty set of one state's counties: 10 × 1,023
            // slices, so nearly every slice a run draws is new.
            let per_state = 10;
            for (s, state) in m.states.iter().enumerate() {
                let counties = &m.counties[s * per_state..(s + 1) * per_state];
                for mask in 1u32..(1 << per_state) {
                    let set: Vec<String> = (0..per_state)
                        .filter(|b| mask & (1 << b) != 0)
                        .map(|b| format!("'{}'", counties[b]))
                        .collect();
                    queries.push(format!(
                        "Q(n, c) :- Business(n, '{state}', c), c in {{{}}}",
                        set.join(", ")
                    ));
                }
            }
            let cold = queries.len() - hot;
            Fixture {
                name: "directory",
                mix: Mix::HotCold {
                    hot: Zipf::new(hot, THETA),
                    hot_share: 0.6,
                    cold,
                },
                warm: (0..hot).collect(),
                checked: (0..hot).collect(),
                sampled: (hot..queries.len()).collect(),
                ..assemble(m.catalog, m.instance, m.prices, queries, 0)
            }
        }
        _ => return None,
    };
    Some(fx)
}

/// The request table (one quote per query, then one purchase for each of
/// the first `buyable` queries) and the fields every workload shares.
fn assemble(
    catalog: Catalog,
    instance: Instance,
    prices: PriceList,
    queries: Vec<String>,
    buyable: usize,
) -> Fixture {
    let mut requests: Vec<Vec<u8>> = queries.iter().map(|q| post("/quote", q)).collect();
    let mut req_query: Vec<u32> = (0..queries.len() as u32).collect();
    let mut req_kind = vec![Kind::Quote; queries.len()];
    for (i, q) in queries.iter().enumerate().take(buyable) {
        requests.push(post("/purchase", q));
        req_query.push(i as u32);
        req_kind.push(Kind::Purchase);
    }
    let qdp = QdpFile {
        catalog: catalog.clone(),
        instance: instance.clone(),
        prices: prices
            .iter()
            .map(|(v, p)| (v.attr, v.value, p.as_cents()))
            .collect(),
    }
    .to_text();
    Fixture {
        name: "",
        qdp,
        queries,
        requests,
        req_query,
        req_kind,
        warm: Vec::new(),
        checked: Vec::new(),
        sampled: Vec::new(),
        static_prices: true,
        mix: Mix::Uniform(1),
        catalog,
        instance,
        prices,
    }
}

/// The E17/E19 chain instance: `R(X)`, `S(X, Y)`, `T(Y)` over `{0..n}`,
/// each `x` joined to its next three neighbours; `S` views cost
/// `s_cents`, all others `other_cents`.
fn chain_market(n: i64, s_cents: u64, other_cents: u64) -> (Catalog, Instance, PriceList) {
    let col = Column::int_range(0, n);
    let catalog: Catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["Y"], &col)
        .build()
        .expect("chain catalog builds");
    let mut instance = catalog.empty_instance();
    let rel = |name: &str| catalog.schema().rel_id(name).expect("declared relation");
    let (r, s, t) = (rel("R"), rel("S"), rel("T"));
    for x in 0..n {
        instance.insert(r, tuple![x]).expect("R tuple");
        instance.insert(t, tuple![x]).expect("T tuple");
        for k in 1..4 {
            instance.insert(s, tuple![x, (x + k) % n]).expect("S tuple");
        }
    }
    let mut prices = PriceList::new();
    for attr in catalog.schema().all_attrs() {
        let cents = if catalog.schema().attr_display(attr).starts_with("S.") {
            s_cents
        } else {
            other_cents
        };
        for v in catalog.column(attr).iter() {
            prices.set(SelectionView::new(attr, v.clone()), Price::cents(cents));
        }
    }
    (catalog, instance, prices)
}

/// `n` constant selections `Q(y) :- S(c, y)`, then the chain join.
fn chain_pool(n: i64) -> Vec<String> {
    let mut pool: Vec<String> = (0..n).map(|c| format!("Q(y) :- S({c}, y)")).collect();
    pool.push("Q(x, y) :- R(x), S(x, y), T(y)".to_string());
    pool
}

/// One seller revision of `price_storm`: a view selector and its new price.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Revision {
    /// `R.X=v` or `S.X=v`.
    pub view: String,
    /// New price in cents.
    pub cents: u64,
}

/// Draw the next `price_storm` revision: E17's ranges, which keep the list
/// arbitrage-free in any combination (`R` has one attribute, so its views
/// have no alternative cover; every `S.X` price stays far below the
/// $60 cover by all of `S.Y`).
pub fn next_revision(rng: &mut StdRng) -> Revision {
    let v = rng.gen_range(0..40u64);
    if rng.gen_bool(0.5) {
        Revision {
            view: format!("R.X={v}"),
            cents: 60 + rng.gen_range(0..300u64),
        }
    } else {
        Revision {
            view: format!("S.X={v}"),
            cents: 110 + rng.gen_range(0..180u64),
        }
    }
}

/// The price list after applying `revisions` (in order) to `base`.
pub fn revised(base: &PriceList, catalog: &Catalog, revisions: &[Revision]) -> PriceList {
    let mut out = base.clone();
    for r in revisions {
        let (attr, value) = r.view.split_once('=').expect("selector has `=`");
        let aref = catalog
            .schema()
            .resolve_attr(attr)
            .expect("revision names a declared attribute");
        let value = qbdp_catalog::Value::parse_literal(value).expect("revision value parses");
        out.set(SelectionView::new(aref, value), Price::cents(r.cents));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_and_its_mix_stays_in_the_table() {
        for name in NAMES {
            let fx = build(name).expect("known workload");
            assert_eq!(fx.name, name);
            assert_eq!(fx.requests.len(), fx.req_query.len());
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..1000 {
                assert!((fx.pick(&mut rng) as usize) < fx.requests.len());
            }
        }
        assert!(build("nope").is_none());
    }

    #[test]
    fn durable_buys_purchases_a_fifth_of_requests() {
        let fx = build("durable_buys").expect("known");
        let mut rng = StdRng::seed_from_u64(9);
        let buys = (0..20_000)
            .filter(|_| fx.req_kind[fx.pick(&mut rng) as usize] == Kind::Purchase)
            .count();
        assert!((3_800..4_200).contains(&buys), "{buys} purchases in 20,000");
    }

    #[test]
    fn directory_slices_are_a_ten_thousand_query_universe() {
        let fx = build("directory").expect("known");
        assert_eq!(fx.queries.len(), 20 + 10 * 1023);
        assert_eq!(fx.sampled.len(), 10 * 1023);
    }
}
