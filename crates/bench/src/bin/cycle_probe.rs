//! Structural probe for the cycle-pricing problem (experiment E9's research
//! companion): on exhaustively many small instances, compare the exact price
//! against the best partition-structured upper bound.
//!
//! Usage: cargo run --release -p qbdp-bench --bin cycle_probe

#![forbid(unsafe_code)]
#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_catalog::{Catalog, CatalogBuilder, Column, Tuple, Value};
use qbdp_core::cycle::{cycle_bounds, partition_upper_bound};
use qbdp_core::exact::certificates::{certificate_price, CertificateConfig};
use qbdp_core::normalize::Problem;
use qbdp_core::price_points::PriceList;
use qbdp_core::Price;
use qbdp_determinacy::selection::SelectionView;
use qbdp_query::parser::parse_rule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All partitions of {0..n} (Bell numbers; n ≤ 4 here).
fn partitions(n: usize) -> Vec<Vec<Vec<usize>>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for mut p in partitions(n - 1) {
        // Put n-1 into each existing block, or its own block.
        for i in 0..p.len() {
            let mut q = p.clone();
            q[i].push(n - 1);
            out.push(q);
        }
        p.push(vec![n - 1]);
        out.push(p);
    }
    out
}

fn cycle_catalog(k: usize, n: i64) -> Catalog {
    let col = Column::int_range(0, n);
    let mut b = CatalogBuilder::new();
    for i in 1..=k {
        b = b.uniform_relation(format!("R{i}"), &["X", "Y"], &col);
    }
    b.build().expect("bench setup")
}

fn main() {
    let mut rng = StdRng::seed_from_u64(777);
    let mut stats = [0usize; 4]; // total, global-tight, partition-tight, lb-tight
    let mut worst_gap = 0f64;
    for &(k, n) in &[(2usize, 2i64), (2, 3), (3, 2)] {
        let catalog = cycle_catalog(k, n);
        let head: Vec<String> = (1..=k).map(|i| format!("x{i}")).collect();
        let body: Vec<String> = (1..=k)
            .map(|i| {
                let j = if i == k { 1 } else { i + 1 };
                format!("R{i}(x{i}, x{j})")
            })
            .collect();
        let src = format!("C({}) :- {}", head.join(", "), body.join(", "));
        let q = parse_rule(catalog.schema(), &src).expect("query parses");
        let parts = partitions(n as usize);
        for _case in 0..400 {
            let mut d = catalog.empty_instance();
            for (rid, _) in catalog.schema().iter() {
                for a in 0..n {
                    for b2 in 0..n {
                        if rng.gen_bool(0.45) {
                            let _ = d.insert(rid, Tuple::new([Value::Int(a), Value::Int(b2)]));
                        }
                    }
                }
            }
            let mut prices = PriceList::new();
            for attr in catalog.schema().all_attrs() {
                for v in catalog.column(attr).iter() {
                    prices.set(
                        SelectionView::new(attr, v.clone()),
                        Price::dollars(rng.gen_range(1..=4)),
                    );
                }
            }
            let problem = Problem::new(catalog.clone(), d, prices, q.clone());
            let exact = certificate_price(
                &problem.catalog,
                &problem.instance,
                &problem.prices,
                &problem.query,
                CertificateConfig::default(),
            )
            .expect("bench setup")
            .price;
            let (lb, ub) = cycle_bounds(&problem).expect("pricing succeeds");
            assert!(lb <= exact && exact <= ub.price, "sandwich violated");
            // Best partition UB.
            let mut best_part = Price::INFINITE;
            for p in &parts {
                let groups: Vec<Vec<Value>> = p
                    .iter()
                    .map(|g| g.iter().map(|&i| Value::Int(i as i64)).collect())
                    .collect();
                let ubp = partition_upper_bound(&problem, &groups).expect("pricing succeeds");
                best_part = best_part.min(ubp);
            }
            assert!(best_part >= exact, "partition UB below exact!");
            stats[0] += 1;
            if ub.price == exact {
                stats[1] += 1;
            }
            if best_part == exact {
                stats[2] += 1;
            }
            if lb == exact {
                stats[3] += 1;
            }
            let gap = best_part.as_cents() as f64 / exact.as_cents().max(1) as f64;
            if gap > worst_gap {
                worst_gap = gap;
            }
        }
    }
    println!("instances            : {}", stats[0]);
    println!(
        "global UB tight      : {} ({:.1}%)",
        stats[1],
        100.0 * stats[1] as f64 / stats[0] as f64
    );
    println!(
        "best-partition tight : {} ({:.1}%)",
        stats[2],
        100.0 * stats[2] as f64 / stats[0] as f64
    );
    println!(
        "single-pair LB tight : {} ({:.1}%)",
        stats[3],
        100.0 * stats[3] as f64 / stats[0] as f64
    );
    println!("worst partition gap  : {worst_gap:.3}x");
}
