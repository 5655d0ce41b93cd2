//! `qbench` — the served-path benchmark.
//!
//! ```text
//! qbench --workload W --seed N [--seconds S] [--trace 0|1]      one run in this process
//! qbench [--seed N] [--repeats K] [--workload W] [--trace] ...  K rounds, each run in a fresh child
//! qbench diff <parent.json> <change.json> [--bench BENCHMARK.json]
//! ```
//!
//! A single run prints its report and, as its last stdout line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (or, with `--trace 1`, the per-layer ones). It exits
//! 1 when an oracle fails and 2 when the run cannot be carried out.
//! Everything it writes goes under `--out` (default `target/qbench`).

use qbench::report::{self, Meta, RunResult};
use qbench::run::{self, Config, Plant, Scale, END_TO_END};
use qbench::{diff, json, workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "usage: qbench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
[--repeats K] [--scale full|smoke] [--out DIR] [--plant off-by-one-cent|dropped-ack]
       qbench diff <parent.json> <change.json> [--bench BENCHMARK.json]";

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeats: Option<usize>,
    scale: Scale,
    out: PathBuf,
    plant: Option<Plant>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: false,
        repeats: None,
        scale: Scale::Full,
        out: PathBuf::from("target/qbench"),
        plant: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} expects {what}"))
        };
        match a.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !workload::NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {:?})",
                        workload::NAMES
                    ));
                }
                o.workload = Some(w);
            }
            "--seed" => {
                o.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed expects an integer")?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds expects a number in (0, 600]")?;
            }
            "--trace" => {
                o.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    o.trace = v == "1";
                }
            }
            "--repeats" => {
                o.repeats = Some(
                    value("an integer")?
                        .parse()
                        .ok()
                        .filter(|&k: &usize| k > 0)
                        .ok_or("--repeats expects a positive integer")?,
                );
            }
            "--scale" => {
                o.scale = match value("full or smoke")?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    s => return Err(format!("unknown scale `{s}`")),
                }
            }
            "--out" => o.out = PathBuf::from(value("a directory")?),
            "--plant" => {
                let p = value("a bug name")?;
                o.plant = Some(Plant::parse(&p).ok_or_else(|| format!("unknown plant `{p}`"))?);
            }
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("diff") => diff_cmd(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            0
        }
        _ => match parse(&args) {
            Ok(o) if o.workload.is_some() && o.repeats.is_none() => single(&o),
            Ok(o) => rounds(&o),
            Err(e) => {
                eprintln!("qbench: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// Where a run leaves its full record for a parent process to collect.
fn record_path(out: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    out.join("runs").join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ))
}

fn single(o: &Opts) -> i32 {
    let cfg = Config {
        workload: o.workload.clone().unwrap_or_default(),
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        scale: o.scale,
        out: o.out.clone(),
        plant: o.plant,
    };
    let outcome = match run::run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("qbench: {} run failed: {e}", cfg.workload);
            return 2;
        }
    };
    print!("{}", outcome.table);
    for e in &outcome.errors {
        eprintln!("qbench: oracle: {e}");
    }
    let mut record = String::new();
    outcome.result.push_json(&mut record);
    let path = record_path(&o.out, &cfg.workload, cfg.seed, cfg.trace);
    if let Err(e) = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(&path, record))
    {
        eprintln!("qbench: write {}: {e}", path.display());
        return 2;
    }
    // The result line: the end-to-end metrics, or the per-layer ones.
    let mut line = outcome.result.clone();
    line.metrics
        .retain(|m| run::on_result_line(&m.name, cfg.trace));
    println!("{}", line.line());
    if outcome.result.correct {
        0
    } else {
        1
    }
}

/// Run every (workload, repeat) in a fresh child process of this binary,
/// rotating the workload order each round, then summarize.
fn rounds(o: &Opts) -> i32 {
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => workload::NAMES.to_vec(),
    };
    let repeats = o.repeats.unwrap_or(1);
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("qbench: cannot find my own executable: {e}");
            return 2;
        }
    };
    let mut runs: Vec<RunResult> = Vec::new();
    let mut code = 0;
    for r in 0..repeats {
        let seed = o.seed + r as u64;
        for k in 0..names.len() {
            let w = names[(k + r) % names.len()];
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .args(["--scale", o.scale.name()])
                .arg("--out")
                .arg(&o.out)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            let output = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("qbench: cannot start a {w} run: {e}");
                    return 2;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            lines.pop();
            for l in lines {
                println!("{l}");
            }
            if !output.status.success() {
                eprintln!("qbench: {w} seed {seed} exited with {}", output.status);
                code = 1;
            }
            let path = record_path(&o.out, w, seed, o.trace);
            let record = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| json::parse(&t))
                .and_then(|v| RunResult::from_json(&v, w, seed));
            match record {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("qbench: no record from the {w} seed {seed} run: {e}");
                    code = 1;
                }
            }
        }
    }
    let meta = Meta::collect(Path::new("."), o.seed, o.scale.name(), o.seconds);
    let results = o.out.join(format!(
        "results-seed{}-x{repeats}{}.json",
        o.seed,
        if o.trace { "-trace" } else { "" }
    ));
    if let Err(e) = std::fs::write(&results, report::results_json(&meta, &runs)) {
        eprintln!("qbench: write {}: {e}", results.display());
        return 2;
    }
    println!(
        "\nsummary over {repeats} round(s) from seed {} (commit {}, nproc {}); * = end-to-end",
        o.seed, meta.commit, meta.nproc
    );
    for (w, rows) in report::summarize(&runs) {
        for row in rows {
            let spread = if row.median != 0.0 {
                format!("{:6.2}%", (row.q3 - row.q1) / row.median.abs() * 100.0)
            } else {
                "     - ".to_string()
            };
            println!(
                "{} {w:<13} {:<30} {:>14.4} {:<6} [{:.4}, {:.4}] spread {spread}",
                if END_TO_END.contains(&row.name.as_str()) {
                    "*"
                } else {
                    " "
                },
                row.name,
                row.median,
                row.unit,
                row.q1,
                row.q3
            );
        }
    }
    println!("results: {}", results.display());
    code
}

fn diff_cmd(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            match it.next() {
                Some(b) => bench = PathBuf::from(b),
                None => {
                    eprintln!("qbench: --bench expects a file\n{USAGE}");
                    return 2;
                }
            }
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [parent, change] = files.as_slice() else {
        eprintln!("qbench: diff takes two results files\n{USAGE}");
        return 2;
    };
    match diff::diff(parent, change, &bench) {
        Ok((text, verdict)) => {
            print!("{text}");
            i32::from(verdict == diff::Verdict::Worse)
        }
        Err(e) => {
            eprintln!("qbench: {e}");
            2
        }
    }
}
