//! Every workload end to end at smoke scale, in this process: set-up,
//! saturation, open loop, oracle, traced replay, recovery and the result
//! line, checked against the metrics `BENCHMARK.json` declares.
//!
//! One test runs the four workloads in turn: the telemetry registry is
//! process-global, so runs sharing a process must not overlap.

use qbench::json::{self, Value};
use qbench::report::RunResult;
use qbench::run::{self, Config, Scale, END_TO_END};
use qbench::workload;
use std::collections::BTreeSet;
use std::path::Path;

fn declared(bench: &Value, section: &str) -> BTreeSet<String> {
    bench
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{section}` list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{} reports {name}", r.workload))
        .value
}

#[test]
fn every_workload_runs_checks_and_reports_what_the_benchmark_declares() {
    let bench_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = json::parse(&std::fs::read_to_string(&bench_path).expect("BENCHMARK.json reads"))
        .expect("BENCHMARK.json parses");
    let workloads = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("named"))
        .collect();
    assert_eq!(
        names,
        workload::NAMES,
        "BENCHMARK.json names the benchmark's workloads"
    );
    // Each `why` opens with the workload's absolute open-loop rate.
    for (w, name) in workloads.iter().zip(names) {
        let why = w.get("why").and_then(Value::as_str).expect("a why");
        let rate: String = why.chars().take_while(char::is_ascii_digit).collect();
        assert_eq!(
            rate.parse::<f64>().ok(),
            Some(workload::rate(name)),
            "{name}: {why}"
        );
    }
    let end_to_end = declared(&bench, "end_to_end");
    assert_eq!(
        end_to_end,
        END_TO_END.iter().map(|s| s.to_string()).collect()
    );
    let per_layer = declared(&bench, "per_layer");

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("qbench-smoke");
    let mut hot_hit_ratio = None;
    for name in workload::NAMES {
        let cfg = Config {
            workload: name.to_string(),
            seed: 7,
            seconds: 1.0,
            trace: true,
            scale: Scale::Smoke,
            out: out.clone(),
            plant: None,
        };
        let outcome = run::run(&cfg).unwrap_or_else(|e| panic!("{name} run: {e}"));
        assert!(outcome.errors.is_empty(), "{name}: {:?}", outcome.errors);
        let r = &outcome.result;
        assert!(r.correct && r.attempted > 0, "{name}: {r:?}");
        assert_eq!(r.failed, 0, "{name}: {}", outcome.table);

        // Every declared metric is reported, and end-to-end ones are never
        // 0 (but CPU time comes in 10 ms ticks, which a smoke-sized load
        // may not reach, and a difference of ticks can come out below 0).
        let traced: BTreeSet<String> = r
            .metrics
            .iter()
            .filter(|m| run::on_result_line(&m.name, true))
            .map(|m| m.name.clone())
            .collect();
        assert_eq!(traced, per_layer, "{name}: per-layer metrics");
        for m in &end_to_end {
            let v = value(r, m);
            assert!(
                v > 0.0 || (m == "cpu_per_op_refs" && v.is_finite()),
                "{name}: {m} is {v}"
            );
        }
        let back =
            RunResult::from_json(&json::parse(&r.line()).expect("the line is JSON"), name, 7)
                .expect("the line reads back");
        assert_eq!(back.metrics.len(), r.metrics.len());
        for (b, m) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!(b.unit, m.unit, "{name}: {} reads back its unit", m.name);
        }
        assert!(out.join("trace").join(format!("{name}.jsonl")).is_file());

        // Each workload loads the layer it is there for.
        let hit_ratio = value(r, "market.cache_hit_ratio");
        match name {
            "hot_quotes" => {
                assert!(hit_ratio >= 0.99, "hot_quotes hit ratio {hit_ratio}");
                assert_eq!(value(r, "store.wal_writes"), 0.0);
                hot_hit_ratio = Some(hit_ratio);
            }
            "price_storm" => {
                assert!(hit_ratio < hot_hit_ratio.expect("hot_quotes ran first") - 0.2);
                assert!(value(r, "flow.cold_solves_per_miss") > 0.0);
                assert!(value(r, "revise_p50_us") > 0.0);
            }
            "durable_buys" => {
                let samples = |m: &str| r.metrics.iter().find(|x| x.name == m).expect(m).samples;
                let (buys, quotes) = (samples("purchase_p50_us"), samples("quote_p50_us"));
                let share = buys as f64 / (buys + quotes) as f64;
                assert!((0.1..0.3).contains(&share), "purchase share {share}");
                assert!(value(r, "store.fsync_p50_us") > 0.0);
                assert!(value(r, "purchase_p50_us") > 0.0);
            }
            "directory" => {
                assert!(value(r, "market.cached_quotes_growth") > 0.0);
                assert!(value(r, "core.price_cold_p50_us") > 0.0);
            }
            _ => unreachable!("NAMES lists four workloads"),
        }
    }
}
