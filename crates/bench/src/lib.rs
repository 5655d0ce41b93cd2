//! # qbdp-bench — experiment fixtures and the results writer
//!
//! Shared builders for the `experiments` binary (E1–E14) and the systems
//! experiments (E16–E18), plus the one writer those three bins report
//! through: each repeat of a measurement becomes a
//! [`qbench::report::RunResult`], and [`write_results`] stores them in
//! qbench's `qbench/1` schema (every run, each metric's median and
//! quartiles across runs, the git commit and the core count), so
//! `qbench diff` compares two of them.

#![forbid(unsafe_code)]
#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_catalog::{tuple, Catalog, CatalogBuilder, Column, Instance};
use qbdp_core::price_points::PriceList;
use qbdp_core::{Price, Pricer};
use qbdp_determinacy::selection::SelectionView;
use qbdp_market::Market;
use qbdp_query::ast::ConjunctiveQuery;
use qbdp_query::parser::parse_rule;
use qbdp_workload::dbgen;
use qbench::report::{self, Meta, Metric, RunResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

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

/// Column size of [`chain_market`]: {0, …, N-1}. Big enough that a
/// quote is real flow work and a cold solve visibly out-costs a residual
/// repair, small enough that CI finishes quickly.
pub const CHAIN_N: i64 = 40;

/// The chain market of E17 and E18: `R(X)`, `S(X, Y)`, `T(Y)` over
/// {0, …, [`CHAIN_N`]-1}, every `x` in `R` and `T` with three `S`
/// successors, `S` views at $1.50 and the rest at $1.00.
pub fn chain_market() -> Market {
    let col = Column::int_range(0, CHAIN_N);
    let catalog: Catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["Y"], &col)
        .build()
        .expect("chain catalog builds");
    let mut instance = catalog.empty_instance();
    let (r, s, t) = (
        catalog.schema().rel_id("R").expect("R"),
        catalog.schema().rel_id("S").expect("S"),
        catalog.schema().rel_id("T").expect("T"),
    );
    for x in 0..CHAIN_N {
        instance.insert(r, tuple![x]).expect("R tuple");
        instance.insert(t, tuple![x]).expect("T tuple");
        for k in 1..4 {
            instance
                .insert(s, tuple![x, (x + k) % CHAIN_N])
                .expect("S tuple");
        }
    }
    let mut prices = PriceList::new();
    for attr in catalog.schema().all_attrs() {
        let name = catalog.schema().attr_display(attr);
        let cents = if name.starts_with("S.") { 150 } else { 100 };
        for v in catalog.column(attr).iter() {
            prices.set(SelectionView::new(attr, v.clone()), Price::cents(cents));
        }
    }
    Market::open(catalog, instance, prices).expect("chain market opens")
}

/// Repeats of each E16–E18 measurement. Every repeat is one run of the
/// results file, seeded with its index, and every gate reads the median
/// across them.
pub const REPEATS: u64 = 5;

/// One measured value of a run.
pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples: 0,
    }
}

/// Print every workload's medians and quartiles, then write `runs`, each
/// of which took `seconds`, to `path` as a `qbench/1` results file,
/// recorded with this checkout's commit and the core count.
pub fn write_results(path: impl AsRef<Path>, runs: &[RunResult], seconds: f64) {
    for (workload, rows) in report::summarize(runs) {
        println!("  {workload}");
        for r in rows {
            println!(
                "    {:<30} median {:>14.4} {:<5} [q1 {:.4}, q3 {:.4}]",
                r.name, r.median, r.unit, r.q1, r.q3
            );
        }
    }
    let meta = Meta::collect(Path::new(env!("CARGO_MANIFEST_DIR")), 0, "full", seconds);
    let path = path.as_ref();
    std::fs::write(path, report::results_json(&meta, runs)).expect("write the results file");
    println!("  wrote {} ({} runs)", path.display(), runs.len());
}

/// The median of `metric` across the runs of `workload`: the value the
/// E16–E18 gates read.
pub fn median_of(runs: &[RunResult], workload: &str, metric: &str) -> f64 {
    let mine: Vec<&RunResult> = runs.iter().filter(|r| r.workload == workload).collect();
    report::median(&report::values_of(&mine, metric)).expect("the gated metric was measured")
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
    }

    fn run(seed: u64, on_tax_pct: f64) -> RunResult {
        RunResult {
            workload: "obs_overhead".into(),
            seed,
            correct: true,
            attempted: 800,
            failed: 0,
            metrics: vec![
                metric("off_median_us", "us", 150.0 + seed as f64),
                metric("on_tax_pct", "%", on_tax_pct),
                metric("speedup", "ratio", 4.0),
                metric("purchase_rps", "1/s", 1500.0),
                metric("recovery_10k_replay_s", "s", 0.05),
            ],
        }
    }

    #[test]
    fn results_file_reads_back_through_qbench() {
        let runs = [run(0, 0.5), run(1, 1.5)];
        let path =
            std::env::temp_dir().join(format!("qbdp_bench_results_{}.json", std::process::id()));
        write_results(&path, &runs, 2.0);
        let text = std::fs::read_to_string(&path).expect("results file written");
        std::fs::remove_file(&path).ok();
        let doc = qbench::json::parse(&text).expect("results file is JSON");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("qbench/1"));
        let meta = doc.get("meta").expect("meta");
        assert!(meta.get("nproc").and_then(|v| v.as_f64()).unwrap() >= 1.0);
        assert!(meta.get("commit").and_then(|v| v.as_str()).is_some());
        let back: Vec<RunResult> = doc
            .get("runs")
            .and_then(|v| v.as_array())
            .expect("runs")
            .iter()
            .map(|r| RunResult::from_json(r, "", 0).expect("run reads back"))
            .collect();
        assert_eq!(back.len(), 2);
        assert_eq!(
            (back[1].workload.as_str(), back[1].seed),
            ("obs_overhead", 1)
        );
        for m in back.iter().flat_map(|r| &r.metrics) {
            assert_ne!(m.unit, "?", "`{}` has a unit qbench does not know", m.name);
        }
        let summary = doc
            .get("summary")
            .and_then(|s| s.get("obs_overhead"))
            .and_then(|w| w.as_object())
            .expect("summary of the workload");
        assert_eq!(summary.len(), runs[0].metrics.len());
        for (name, row) in summary {
            for k in ["median", "q1", "q3"] {
                assert!(
                    row.get(k).and_then(|v| v.as_f64()).is_some(),
                    "`{name}` has no {k}"
                );
            }
        }
        assert_eq!(median_of(&back, "obs_overhead", "on_tax_pct"), 1.0);
    }
}
