//! `qbdp` — price queries against a `.qdp` market from the command line.
//!
//! ```text
//! qbdp <market.qdp> quote "Q(x, y) :- R(x), S(x, y), T(y)"
//! qbdp <market.qdp> price --batch queries.txt --threads 4
//! qbdp --deadline-ms 50 --sell-degraded <market.qdp> repl
//!
//! qbdp serve-dir <dir> --from <market.qdp> repl     # durable market
//! qbdp serve-dir <dir> buy "Q(x) :- R(x)"           # recover + mutate
//! qbdp serve <dir> --addr 0.0.0.0:7878              # HTTP quote server
//! qbdp snapshot <dir>                               # compact the log
//! qbdp replay <dir> --probe "Q(x) :- R(x)"          # recovery report
//! qbdp scrub <dir>                                  # integrity check
//! qbdp chaos --schedules 100 [market.qdp]           # fault injection
//! ```
//!
//! `--deadline-ms N` bounds every pricing call by a wall-clock deadline;
//! `--sell-degraded` allows the market to sell sound upper-bound quotes
//! when the deadline runs out (otherwise such quotes are refused).
//!
//! `serve-dir` runs commands against a durable market persisted under a
//! directory: every mutation is written to a write-ahead log before it is
//! applied, and reopening the directory recovers the exact state. The
//! first run needs `--from <market.qdp>` to seed the genesis snapshot;
//! `--fsync always|every=N|never` picks the log's durability/throughput
//! trade-off (default `always`). A durable market compacts its log on its
//! own once the log outgrows the snapshot; `snapshot` compacts at once.
//! `replay` prints what recovery did — the events logged since the last
//! compaction — including §2.7 price-trajectory monotonicity verdicts for
//! `--probe` queries.

#![forbid(unsafe_code)]

use qbdp::cli;
use qbdp::prelude::{DurableMarket, DurableOptions, FsyncPolicy, Market, MarketPolicy};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    qbdp_obs::log_error!(
        "usage: qbdp [--deadline-ms N] [--sell-degraded] [--telemetry] [--quiet]\n\
         \x20           <market.qdp> <command> [args…]\n\
         \x20      qbdp serve-dir <dir> [--from <market.qdp>] [--fsync always|every=N|never]\n\
         \x20                           <command> [args…]\n\
         \x20      qbdp serve <dir> [--from <market.qdp>] [--fsync …] [--addr host:port]\n\
         \x20                 [--threads N] [--max-conns N]\n\
         \x20      qbdp snapshot <dir>\n\
         \x20      qbdp replay <dir> [--probe <rule>]…   (events since the last compaction)\n\
         \x20      qbdp scrub <dir>\n\
         \x20      qbdp chaos [--seed N] [--schedules N] [--ops N]\n\
         \x20                 [--faults all|transient,enospc,fsync,torn] [market.qdp]\n\
         commands: quote | price [--batch <file> [--threads N] | --trace <rule>] |\n\
         \x20         explain | buy | classify | insert | setprice | catalog |\n\
         \x20         ledger | stats [--json|--flight] | save | compact | sync | repl"
    );
    ExitCode::from(2)
}

fn parse_fsync(v: &str) -> Option<FsyncPolicy> {
    match v {
        "always" => Some(FsyncPolicy::Always),
        "never" => Some(FsyncPolicy::Never),
        _ => v
            .strip_prefix("every=")
            .and_then(|n| n.parse().ok())
            .map(FsyncPolicy::EveryN),
    }
}

fn run<M: qbdp::market::MarketOps>(market: &M, rest: &[String]) -> ExitCode {
    if rest[0] == "repl" {
        let stdin = std::io::stdin();
        cli::repl(market, stdin.lock(), std::io::stdout());
        return ExitCode::SUCCESS;
    }
    let command = rest.join(" ");
    let out = cli::run_command(market, &command);
    println!("{out}");
    // `run_command` renders failures as text so the repl can share it; a
    // one-shot invocation still needs a non-zero exit for scripts.
    if out.starts_with("error:") {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut deadline_ms: Option<u64> = None;
    let mut sell_degraded = false;
    let mut telemetry = false;
    let mut seed_path: Option<String> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut probes: Vec<String> = Vec::new();
    let mut chaos_seed = 0u64;
    let mut chaos_schedules = 25u64;
    let mut chaos_ops = 40u32;
    let mut chaos_faults = String::from("all");
    let mut serve_addr = String::from("127.0.0.1:7878");
    let mut serve_threads = 0usize;
    let mut serve_max_conns = 1024usize;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sell-degraded" => sell_degraded = true,
            "--telemetry" => telemetry = true,
            "--quiet" => qbdp_obs::log::set_level(qbdp_obs::log::Level::Error),
            "--verbose" => qbdp_obs::log::set_level(qbdp_obs::log::Level::Debug),
            "--deadline-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => deadline_ms = Some(ms),
                None => {
                    qbdp_obs::log_error!("--deadline-ms expects an integer (milliseconds)");
                    return ExitCode::from(2);
                }
            },
            "--from" => match args.next() {
                Some(p) => seed_path = Some(p),
                None => {
                    qbdp_obs::log_error!("--from expects a .qdp file path");
                    return ExitCode::from(2);
                }
            },
            "--fsync" => match args.next().as_deref().and_then(parse_fsync) {
                Some(p) => fsync = p,
                None => {
                    qbdp_obs::log_error!("--fsync expects always, never, or every=N");
                    return ExitCode::from(2);
                }
            },
            "--probe" => match args.next() {
                Some(rule) => probes.push(rule),
                None => {
                    qbdp_obs::log_error!("--probe expects a datalog rule");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => chaos_seed = n,
                None => {
                    qbdp_obs::log_error!("--seed expects an integer");
                    return ExitCode::from(2);
                }
            },
            "--schedules" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => chaos_schedules = n,
                None => {
                    qbdp_obs::log_error!("--schedules expects an integer");
                    return ExitCode::from(2);
                }
            },
            "--ops" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => chaos_ops = n,
                None => {
                    qbdp_obs::log_error!("--ops expects an integer");
                    return ExitCode::from(2);
                }
            },
            "--faults" => match args.next() {
                Some(list) => chaos_faults = list,
                None => {
                    qbdp_obs::log_error!("--faults expects `all` or a comma list");
                    return ExitCode::from(2);
                }
            },
            "--addr" => match args.next() {
                Some(a) => serve_addr = a,
                None => {
                    qbdp_obs::log_error!("--addr expects host:port");
                    return ExitCode::from(2);
                }
            },
            "--threads" if positional.first().map(String::as_str) == Some("serve") => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => serve_threads = n,
                    None => {
                        qbdp_obs::log_error!("--threads expects an integer");
                        return ExitCode::from(2);
                    }
                }
            }
            "--max-conns" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => serve_max_conns = n,
                None => {
                    qbdp_obs::log_error!("--max-conns expects an integer");
                    return ExitCode::from(2);
                }
            },
            _ => positional.push(arg),
        }
    }
    match positional.first().map(String::as_str) {
        Some("snapshot") => {
            let Some(dir) = positional.get(1) else {
                return usage();
            };
            let out = cli::snapshot_dir(dir);
            println!("{out}");
            if out.starts_with("error:") {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("replay") => {
            let Some(dir) = positional.get(1) else {
                return usage();
            };
            let out = cli::replay_dir(dir, &probes);
            println!("{out}");
            if out.starts_with("error:") {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("scrub") => {
            let Some(dir) = positional.get(1) else {
                return usage();
            };
            let out = cli::scrub_dir(dir);
            println!("{out}");
            if out.contains("DAMAGE") {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("chaos") => {
            let qdp = match positional.get(1) {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        qbdp_obs::log_error!("cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                },
                None => include_str!("../../data/figure1.qdp").to_string(),
            };
            let out = cli::chaos_cmd(&qdp, chaos_seed, chaos_schedules, chaos_ops, &chaos_faults);
            println!("{out}");
            if out.starts_with("error:") {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("serve") => {
            let Some(dir) = positional.get(1) else {
                return usage();
            };
            let seed = match &seed_path {
                Some(p) => match std::fs::read_to_string(p) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        qbdp_obs::log_error!("cannot read {p}: {e}");
                        return ExitCode::from(2);
                    }
                },
                None => None,
            };
            let out = cli::serve_cmd(
                dir,
                seed.as_deref(),
                fsync,
                &serve_addr,
                serve_threads,
                serve_max_conns,
            );
            println!("{out}");
            if out.starts_with("error:") {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("serve-dir") => {
            let (Some(dir), rest) = (positional.get(1), &positional[2.min(positional.len())..])
            else {
                return usage();
            };
            if rest.is_empty() {
                return usage();
            }
            let seed = match &seed_path {
                Some(p) => match std::fs::read_to_string(p) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        qbdp_obs::log_error!("cannot read {p}: {e}");
                        return ExitCode::from(2);
                    }
                },
                None => None,
            };
            let options = DurableOptions {
                seed: seed.as_deref(),
                ..DurableOptions::new(fsync)
            };
            let market = match DurableMarket::open_with(dir, options) {
                Ok(m) => m,
                Err(e) => {
                    qbdp_obs::log_error!("cannot open durable market: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if deadline_ms.is_some() || sell_degraded || telemetry {
                let policy = MarketPolicy {
                    deadline: deadline_ms.map(Duration::from_millis),
                    sell_degraded,
                    telemetry,
                    ..market.market().policy()
                };
                if let Err(e) = market.set_policy(policy) {
                    qbdp_obs::log_error!("cannot set policy: {e}");
                    return ExitCode::FAILURE;
                }
            }
            run(&market, rest)
        }
        Some(path) => {
            let rest = &positional[1..];
            if rest.is_empty() {
                return usage();
            }
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    qbdp_obs::log_error!("cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let market = match Market::open_qdp(&text) {
                Ok(m) => m,
                Err(e) => {
                    qbdp_obs::log_error!("cannot open market: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if deadline_ms.is_some() || sell_degraded || telemetry {
                market.set_policy(MarketPolicy {
                    deadline: deadline_ms.map(Duration::from_millis),
                    sell_degraded,
                    telemetry,
                    ..MarketPolicy::default()
                });
            }
            run(&market, rest)
        }
        None => usage(),
    }
}
