//! # qbdp-bench — experiment fixtures
//!
//! Shared builders for the benchmark suite and the `experiments` binary.
//! Every experiment of DESIGN.md §6 (E1–E13) draws its workloads from
//! here, so the criterion benches and the table-printing harness measure
//! the same objects.

#![forbid(unsafe_code)]
#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_catalog::{Catalog, CatalogBuilder, Column, Instance};
use qbdp_core::price_points::PriceList;
use qbdp_core::{Price, Pricer};
use qbdp_query::ast::ConjunctiveQuery;
use qbdp_query::parser::parse_rule;
use qbdp_workload::dbgen;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A ready-to-price experiment instance.
pub struct Fixture {
    /// Schema + columns.
    pub catalog: Catalog,
    /// The data.
    pub instance: Instance,
    /// The price list.
    pub prices: PriceList,
    /// The query under measurement.
    pub query: ConjunctiveQuery,
}

impl Fixture {
    /// A pricer over this fixture.
    pub fn pricer(&self) -> Pricer {
        Pricer::new(
            self.catalog.clone(),
            self.instance.clone(),
            self.prices.clone(),
        )
        .expect("fixture instances respect their catalogs")
    }
}

/// The exact Figure 1 database, query, and $1 uniform prices (E1).
pub fn figure1() -> Fixture {
    let ax = Column::texts(["a1", "a2", "a3", "a4"]);
    let by = Column::texts(["b1", "b2", "b3"]);
    let catalog = CatalogBuilder::new()
        .relation("R", &[("X", ax.clone())])
        .relation("S", &[("X", ax), ("Y", by.clone())])
        .relation("T", &[("Y", by)])
        .build()
        .expect("bench setup");
    let mut instance = catalog.empty_instance();
    instance
        .insert_all(
            catalog.schema().rel_id("R").expect("declared relation"),
            [qbdp_catalog::tuple!["a1"], qbdp_catalog::tuple!["a2"]],
        )
        .expect("declared relation");
    instance
        .insert_all(
            catalog.schema().rel_id("S").expect("declared relation"),
            [
                qbdp_catalog::tuple!["a1", "b1"],
                qbdp_catalog::tuple!["a1", "b2"],
                qbdp_catalog::tuple!["a2", "b2"],
                qbdp_catalog::tuple!["a4", "b1"],
            ],
        )
        .expect("bench setup");
    instance
        .insert_all(
            catalog.schema().rel_id("T").expect("declared relation"),
            [qbdp_catalog::tuple!["b1"], qbdp_catalog::tuple!["b3"]],
        )
        .expect("declared relation");
    let prices = PriceList::uniform(&catalog, Price::dollars(1));
    let query =
        parse_rule(catalog.schema(), "Q(x, y) :- R(x), S(x, y), T(y)").expect("query parses");
    Fixture {
        catalog,
        instance,
        prices,
        query,
    }
}

/// A populated chain-join fixture: `k` binary hops over columns of size
/// `n`, with `tuples` random tuples per relation (E2/E3/E12).
pub fn chain(k: usize, n: i64, tuples: usize, seed: u64) -> Fixture {
    let qs = qbdp_workload::queries::chain_schema(k, n).expect("workload schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = dbgen::populate_random(&qs.catalog, &mut rng, tuples).expect("data generation");
    let prices = qbdp_workload::prices::random(&qs.catalog, &mut rng, 1, 5);
    Fixture {
        catalog: qs.catalog,
        instance,
        prices,
        query: qs.query,
    }
}

/// A populated star-join fixture (E2, Step 3 branching).
pub fn star(k: usize, n: i64, tuples: usize, seed: u64) -> Fixture {
    let qs = qbdp_workload::queries::star_schema(k, n).expect("workload schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = dbgen::populate_random(&qs.catalog, &mut rng, tuples).expect("data generation");
    let prices = qbdp_workload::prices::random(&qs.catalog, &mut rng, 1, 5);
    Fixture {
        catalog: qs.catalog,
        instance,
        prices,
        query: qs.query,
    }
}

/// A populated cycle fixture (E9).
pub fn cycle(k: usize, n: i64, tuples: usize, seed: u64) -> Fixture {
    let qs = qbdp_workload::queries::cycle_schema(k, n).expect("workload schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = dbgen::populate_random(&qs.catalog, &mut rng, tuples).expect("data generation");
    let prices = qbdp_workload::prices::random(&qs.catalog, &mut rng, 1, 5);
    Fixture {
        catalog: qs.catalog,
        instance,
        prices,
        query: qs.query,
    }
}

/// A populated H1 fixture (E3, NP-complete).
pub fn h1(n: i64, tuples: usize, seed: u64) -> Fixture {
    let qs = qbdp_workload::queries::h1_schema(n).expect("workload schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = dbgen::populate_random(&qs.catalog, &mut rng, tuples).expect("data generation");
    let prices = qbdp_workload::prices::random(&qs.catalog, &mut rng, 1, 5);
    Fixture {
        catalog: qs.catalog,
        instance,
        prices,
        query: qs.query,
    }
}

/// A populated H2 fixture (E9 brittleness).
pub fn h2(n: i64, tuples: usize, seed: u64) -> Fixture {
    let qs = qbdp_workload::queries::h2_schema(n).expect("workload schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = dbgen::populate_random(&qs.catalog, &mut rng, tuples).expect("data generation");
    let prices = qbdp_workload::prices::random(&qs.catalog, &mut rng, 1, 5);
    Fixture {
        catalog: qs.catalog,
        instance,
        prices,
        query: qs.query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_fixture_prices_at_six() {
        let f = figure1();
        assert_eq!(
            f.pricer().price_cq(&f.query).unwrap().price,
            Price::dollars(6)
        );
    }

    #[test]
    fn generated_fixtures_are_priceable() {
        let f = chain(3, 8, 30, 1);
        let quote = f.pricer().price_cq(&f.query).unwrap();
        assert!(quote.price.is_finite());
        let f = star(2, 6, 20, 2);
        assert!(f.pricer().price_cq(&f.query).unwrap().price.is_finite());
    }
}
