//! Seller price revisions against a reference with the full-list
//! semantics: stage a copy of the price list, apply the revision, and run
//! the whole Proposition 3.2 check. `Market::set_price` re-checks only the
//! revised relation, in place; seeded revision sequences on a
//! two-attribute relation must reach the same verdicts and price lists,
//! price quotes exactly like a market reopened from its own `.qdp` text,
//! and leave that text byte-identical whenever a revision is refused.
//! A revision also reaches the full-cover sums the price list keeps with
//! each attribute's prices: the next cold quote sees the revised sum.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp_core::consistency::find_list_arbitrage;
use qbdp_core::price_points::PriceList;
use qbdp_core::{Price, Pricer};
use qbdp_determinacy::selection::SelectionView;
use qbdp_market::{Market, MarketError};
use qbdp_query::parser::parse_rule;
use qbdp_workload::scenarios::business::{generate, BusinessConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `S.X` prices 4 and 5 and `S.Y=3` start unpriced, so revisions also put
/// new views on sale — and the first `S.Y=3` revision turns the `S.Y`
/// cover from infinite into a finite bound on every `S.X` price.
const MARKET: &str = "\
schema R(X)
schema S(X, Y)
column R.X = {0, 1, 2, 3, 4, 5}
column S.X = {0, 1, 2, 3, 4, 5}
column S.Y = {0, 1, 2, 3}
tuple R(0)
tuple R(2)
tuple R(3)
tuple R(5)
tuple S(0, 1)
tuple S(0, 2)
tuple S(2, 2)
tuple S(3, 0)
tuple S(4, 3)
tuple S(5, 1)
price R.X=0 100
price R.X=1 100
price R.X=2 100
price R.X=3 100
price R.X=4 100
price R.X=5 100
price S.X=0 200
price S.X=1 200
price S.X=2 200
price S.X=3 200
price S.Y=0 300
price S.Y=1 300
price S.Y=2 300
";

const QUERIES: [&str; 4] = [
    "Q(x, y) :- R(x), S(x, y)",
    "Q(y) :- S(2, y)",
    "Q(x) :- S(x, y)",
    "Q(x, y) :- S(x, y), y > 1",
];

/// One seeded revision: mostly `S.X` moves around the `S.Y` cover and
/// `S.Y` cuts that can push existing `S.X` prices over it.
fn revision(rng: &mut StdRng) -> (String, Price) {
    match rng.gen_range(0..10u32) {
        0..=3 => (
            format!("S.X={}", rng.gen_range(0..6u32)),
            Price::cents(rng.gen_range(0..1_400u64)),
        ),
        4..=7 => (
            format!("S.Y={}", rng.gen_range(0..4u32)),
            Price::cents(rng.gen_range(0..500u64)),
        ),
        _ => (
            format!("R.X={}", rng.gen_range(0..6u32)),
            Price::cents(rng.gen_range(0..1_000u64)),
        ),
    }
}

/// The full-list verdict: `None` accepts, `Some(message)` refuses.
fn reference_verdict(
    m: &Market,
    reference: &mut PriceList,
    view: &str,
    price: Price,
) -> Option<String> {
    m.with_pricer(|p| {
        let catalog = p.catalog();
        let (attr, value) = view.split_once('=').unwrap();
        let attr = catalog.schema().resolve_attr(attr).unwrap();
        let value = qbdp_catalog::Value::parse_literal(value).unwrap();
        let mut staged = reference.clone();
        staged.set(SelectionView::new(attr, value), price);
        match find_list_arbitrage(catalog, &staged).first() {
            Some(v) => Some(v.display(catalog)),
            None => {
                *reference = staged;
                None
            }
        }
    })
}

fn assert_quotes_match_reopened(m: &Market) {
    let reopened = Market::open_qdp(&m.to_qdp()).unwrap();
    for q in QUERIES {
        match (m.quote_str(q), reopened.quote_str(q)) {
            (Ok(live), Ok(cold)) => {
                assert_eq!(live.price, cold.price, "{q}");
                assert_eq!(live.views(), cold.views(), "{q}");
                assert_eq!(live.method, cold.method, "{q}");
                assert_eq!(live.quality, cold.quality, "{q}");
            }
            // Unsellable queries (an unpriced view in every cover) are
            // refused alike.
            (Err(live), Err(cold)) => assert_eq!(format!("{live:?}"), format!("{cold:?}"), "{q}"),
            (live, cold) => panic!("{q}: live {live:?}, reopened {cold:?}"),
        }
    }
}

#[test]
fn revisions_match_the_full_list_check() {
    let (mut accepted, mut refused) = (0usize, 0usize);
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Market::open_qdp(MARKET).unwrap();
        let mut reference = m.with_pricer(|p| p.prices().clone());
        for step in 0..150 {
            let (view, price) = revision(&mut rng);
            let before = m.to_qdp();
            let want = reference_verdict(&m, &mut reference, &view, price);
            match (m.set_price(&view, price), &want) {
                (Ok(()), None) => accepted += 1,
                (Err(MarketError::InconsistentPrices(got)), Some(want)) => {
                    assert_eq!(&got, want, "seed {seed} step {step}: {view} @ {price}");
                    assert_eq!(m.to_qdp(), before, "refusal changed the market");
                    refused += 1;
                }
                (got, want) => {
                    panic!("seed {seed} step {step}: {view} @ {price}: got {got:?}, want {want:?}")
                }
            }
            assert!(
                m.with_pricer(|p| *p.prices() == reference),
                "seed {seed} step {step}: price lists diverged after {view} @ {price}"
            );
            if step % 15 == 14 {
                assert_quotes_match_reopened(&m);
            }
        }
        assert_quotes_match_reopened(&m);
    }
    // The sequences exercise both verdicts in earnest.
    assert!(
        accepted > 200 && refused > 100,
        "{accepted} accepted, {refused} refused"
    );
}

#[test]
fn cover_cuts_that_undercut_existing_prices_are_refused() {
    let m = Market::open_qdp(MARKET).unwrap();
    // Completing the S.Y cover at $12 bounds every S.X price by it.
    m.set_price("S.Y=3", Price::cents(300)).unwrap();
    m.set_price("S.X=4", Price::cents(1_100)).unwrap();
    let before = m.to_qdp();
    // Cutting S.Y=0 to $1 drops the cover to $9.01 < $11.
    let err = m.set_price("S.Y=0", Price::cents(1)).unwrap_err();
    assert!(
        matches!(&err, MarketError::InconsistentPrices(msg) if msg.contains("S.X") && msg.contains("S.Y")),
        "{err:?}"
    );
    assert_eq!(m.to_qdp(), before);
    // Lowering S.X=4 first makes room for the cut.
    m.set_price("S.X=4", Price::cents(900)).unwrap();
    m.set_price("S.Y=0", Price::cents(1)).unwrap();
    assert_quotes_match_reopened(&m);
}

/// The business directory of the paper's §1 (10 states × 10 counties ×
/// 400 businesses): quote a county slice, which sums the full cover of
/// `Business.Name` and keeps the sum with its prices, revise one name's
/// price, and quote another slice of the same shape. The second quote
/// must see the revised sum: it equals a cold price over a list rebuilt
/// view by view, which shares no map (and so no kept sum) with the
/// market's.
#[test]
fn a_name_revision_reaches_the_next_directory_quote() {
    let mut rng = StdRng::seed_from_u64(2012);
    let config = BusinessConfig {
        states: 10,
        counties_per_state: 10,
        businesses: 400,
        ..BusinessConfig::default()
    };
    let m = generate(&mut rng, config).unwrap();
    let slice = |counties: &[usize]| {
        let set: Vec<String> = counties
            .iter()
            .map(|&c| format!("'{}'", m.counties[30 + c]))
            .collect();
        format!(
            "Q(n, c) :- Business(n, '{}', c), c in {{{}}}",
            m.states[3],
            set.join(", ")
        )
    };
    let market = Market::open(m.catalog.clone(), m.instance.clone(), m.prices.clone()).unwrap();
    let name = m.catalog.schema().resolve_attr("Business.Name").unwrap();
    market.quote_str(&slice(&[0, 2, 5])).unwrap();
    let before = market.with_pricer(|p| p.prices().full_cover_price(p.catalog(), name));
    assert_eq!(before, Price::dollars(800));

    market
        .set_price("Business.Name=biz7", Price::dollars(5))
        .unwrap();
    let query = slice(&[1, 4, 6]);
    let served = market.quote_str(&query).unwrap();
    market.with_pricer(|p| {
        let cover = p.prices().full_cover_price(p.catalog(), name);
        let resum: Price = p
            .catalog()
            .column(name)
            .iter()
            .map(|v| p.prices().get_at(name, v))
            .sum();
        assert_eq!(cover, resum);
        assert_eq!(cover, Price::dollars(803));

        let rebuilt: PriceList = p.prices().iter().collect();
        let cold = Pricer::new(p.catalog().clone(), p.instance().clone(), rebuilt)
            .unwrap()
            .price_cq(&parse_rule(p.catalog().schema(), &query).unwrap())
            .unwrap();
        assert_eq!(served.price, cold.price);
        assert_eq!(served.views(), cold.views);
        assert_eq!(served.method, cold.method);
        assert_eq!(served.quality, cold.quality);
    });
}
