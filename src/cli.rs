//! The `qbdp` command-line driver: load a `.qdp` market and run pricing
//! commands against it.
//!
//! ```text
//! qbdp data/figure1.qdp quote    "Q(x, y) :- R(x), S(x, y), T(y)"
//! qbdp data/figure1.qdp price    --batch queries.txt --threads 4
//! qbdp data/figure1.qdp buy      "Q(x, y) :- R(x), S(x, y), T(y)"
//! qbdp data/figure1.qdp classify "Q(x) :- S(x, y)"
//! qbdp data/figure1.qdp catalog
//! qbdp data/figure1.qdp repl     # interactive session on stdin
//! ```
//!
//! The command logic lives here (library-tested); `src/bin/qbdp.rs` is a
//! thin argv/stdin wrapper. The binary accepts two governance flags before
//! the market path: `--deadline-ms N` bounds each pricing call by a
//! wall-clock deadline, and `--sell-degraded` lets the market sell sound
//! upper-bound quotes when a budget runs out (without it, such quotes are
//! refused with a deadline error). Degraded quotes are printed with their
//! `[lower bound, price]` interval.

use qbdp_catalog::{AttrRef, Tuple, Value};
use qbdp_core::dichotomy::classify;
use qbdp_core::Price;
use qbdp_market::{MarketError, MarketOps};
use std::fmt::Write as _;

/// Run one CLI command against a market — in-memory or durable (the
/// latter write-ahead-logs every mutation); returns the text to print.
pub fn run_command<M: MarketOps>(market: &M, command: &str) -> String {
    let command = command.trim();
    let (verb, rest) = match command.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (command, ""),
    };
    match verb {
        "" => String::new(),
        "help" => help_text(),
        "quote" => quote(market, rest),
        "price" => price_cmd(market, rest),
        "explain" => match market.base().explain_str(rest) {
            Ok(text) => text,
            Err(e) => render_err(e),
        },
        "save" => {
            let qdp = market.base().to_qdp();
            match std::fs::write(rest, &qdp) {
                Ok(()) => format!("market saved to {rest} ({} bytes)", qdp.len()),
                Err(e) => format!("cannot write {rest}: {e}"),
            }
        }
        "buy" | "purchase" => buy(market, rest),
        "classify" => classify_cmd(market, rest),
        "insert" => insert(market, rest),
        "setprice" => setprice(market, rest),
        "catalog" => catalog(market),
        "ledger" => ledger(market),
        "stats" => stats_cmd(market, rest),
        "compact" => match market.durable() {
            Some(d) => match d.compact() {
                Ok(bytes) => format!(
                    "snapshot written to {}; {bytes} log byte(s) compacted",
                    d.dir().display()
                ),
                Err(e) => render_err(e),
            },
            None => "compact needs a durable market — run via `qbdp serve-dir <dir>`".to_string(),
        },
        "sync" => match market.durable() {
            Some(d) => match d.sync() {
                Ok(()) => "log forced to stable storage".to_string(),
                Err(e) => render_err(e),
            },
            None => "sync needs a durable market — run via `qbdp serve-dir <dir>`".to_string(),
        },
        other => format!("unknown command `{other}` — try `help`"),
    }
}

/// The REPL: feed lines from `input`, collect output into `output`. Stops
/// at EOF or `quit`.
pub fn repl<M: MarketOps>(
    market: &M,
    input: impl std::io::BufRead,
    mut output: impl std::io::Write,
) {
    let _ = writeln!(
        output,
        "qbdp marketplace — `help` lists commands, `quit` exits"
    );
    for line in input.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let _ = writeln!(output, "{}", run_command(market, line));
    }
}

fn help_text() -> String {
    "commands:\n\
     \x20 quote <rule>      price a query, e.g. quote Q(x) :- R(x)\n\
     \x20 price <rule>      same as quote; or batch mode:\n\
     \x20 price --batch <file> [--threads N]\n\
     \x20                   price one rule per line in parallel (N workers;\n\
     \x20                   0 or omitted = one per core)\n\
     \x20 price --trace <rule>\n\
     \x20                   quote with the pricing-pipeline span tree\n\
     \x20                   (cache lookup → plan → normalize → flow → \n\
     \x20                   hitting set) appended as JSONL\n\
     \x20 explain <rule>    quote with a full narrative\n\
     \x20 save <path>       write the market back to a .qdp file\n\
     \x20 buy <rule>        purchase: price + answer + ledger entry\n\
     \x20 classify <rule>   dichotomy class (Theorem 3.16)\n\
     \x20 insert R(a, b)    seller-side tuple insertion\n\
     \x20 setprice R.X=a N  seller-side price revision (N in cents)\n\
     \x20 catalog           schema, columns, price list summary\n\
     \x20 ledger            sales and revenue\n\
     \x20 stats             telemetry registry, Prometheus text format\n\
     \x20 stats --json      telemetry registry as JSON\n\
     \x20 stats --flight    flight recorder: span trees of quotes that\n\
     \x20                   went wrong (slow/degraded/contended/panicked)\n\
     \x20 compact           durable markets: snapshot + truncate the log now\n\
     \x20                   (also automatic once the log outgrows the snapshot)\n\
     \x20 sync              durable markets: force the log to disk\n\
     \x20 quit              leave the repl\n\
     binary flags (before the .qdp path):\n\
     \x20 --deadline-ms N   wall-clock budget per pricing call\n\
     \x20 --sell-degraded   sell sound upper-bound quotes on budget exhaustion\n\
     \x20 --telemetry       record metrics/traces from the start\n\
     \x20 --quiet           suppress informational progress on stderr"
        .to_string()
}

fn quote<M: MarketOps>(market: &M, rule: &str) -> String {
    match market.base().quote_str(rule) {
        Ok(q) => {
            let mut out = String::new();
            let _ = writeln!(out, "query : {}", q.query);
            let _ = writeln!(out, "class : {:?}  (engine: {:?})", q.class, q.method);
            let _ = writeln!(out, "price : {}", q.price);
            if !q.quality.is_exact() {
                let _ = writeln!(
                    out,
                    "note  : UPPER BOUND — budget ran out; exact price lies in [{}, {}]",
                    q.lower_bound, q.price
                );
            }
            let _ = writeln!(out, "views :");
            for item in q.receipt() {
                let _ = writeln!(out, "  {item}");
            }
            out.truncate(out.trim_end().len());
            out
        }
        Err(e) => render_err(e),
    }
}

/// `price <rule>` is an alias for `quote`; `price --batch <file>
/// [--threads N]` prices one rule per line of `file` on the market's
/// parallel batch path (`--threads 0` or omitted = one worker per core).
fn price_cmd<M: MarketOps>(market: &M, rest: &str) -> String {
    if let Some(rule) = rest.strip_prefix("--trace") {
        // Tracing needs the telemetry pipeline recording for this quote.
        let mut policy = market.base().policy();
        if !policy.telemetry {
            policy.telemetry = true;
            if let Err(e) = market.set_policy(policy) {
                return render_err(e);
            }
        }
        // Keep-last mode parks the span tree on this thread so it can be
        // fetched after the market finishes the quote.
        qbdp_obs::trace::set_keep_last(true);
        let mut out = quote(market, rule.trim_start());
        qbdp_obs::trace::set_keep_last(false);
        let spans = qbdp_obs::trace::take_last();
        if spans.is_empty() {
            let _ = write!(out, "\ntrace : (no spans recorded)");
        } else {
            let _ = write!(
                out,
                "\ntrace ({} span(s), JSONL):\n{}",
                spans.len(),
                qbdp_obs::trace::to_jsonl(&spans).trim_end()
            );
        }
        return out;
    }
    if !rest.starts_with("--batch") {
        return quote(market, rest);
    }
    let mut tokens = rest.split_whitespace().skip(1);
    let Some(path) = tokens.next() else {
        return "price --batch expects a file path (one datalog rule per line)".to_string();
    };
    let mut threads: Option<usize> = None;
    while let Some(tok) = tokens.next() {
        match tok {
            "--threads" => match tokens.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = Some(n),
                None => return "--threads expects an integer (0 = one per core)".to_string(),
            },
            other => return format!("unknown batch flag `{other}`"),
        }
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return format!("cannot read {path}: {e}"),
    };
    let rules: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if rules.is_empty() {
        return format!("{path}: no queries (one datalog rule per line; # comments)");
    }
    if let Some(n) = threads {
        let mut policy = market.base().policy();
        policy.batch_workers = n;
        if let Err(e) = market.set_policy(policy) {
            return render_err(e);
        }
    }
    let results = market.base().quote_batch(&rules);
    let mut out = String::new();
    let mut priced = 0usize;
    for (rule, res) in rules.iter().zip(&results) {
        match res {
            Ok(q) => {
                priced += 1;
                let tag = if q.quality.is_exact() {
                    ""
                } else {
                    "  [upper bound]"
                };
                let _ = writeln!(out, "{:>10}  {}{tag}", q.price.to_string(), q.query);
            }
            Err(e) => {
                let _ = writeln!(out, "{:>10}  {rule} — {e}", "error");
            }
        }
    }
    let _ = write!(out, "priced {priced}/{} queries", rules.len());
    out
}

fn buy<M: MarketOps>(market: &M, rule: &str) -> String {
    match market.purchase_str(rule) {
        Ok(p) => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "charged {} (transaction #{})",
                p.quote.price, p.transaction_id
            );
            let _ = writeln!(out, "{} answer tuple(s):", p.answer.len());
            for t in p.answer.iter().take(20) {
                let _ = writeln!(out, "  {t}");
            }
            if p.answer.len() > 20 {
                let _ = writeln!(out, "  … {} more", p.answer.len() - 20);
            }
            out.truncate(out.trim_end().len());
            out
        }
        Err(e) => render_err(e),
    }
}

fn classify_cmd<M: MarketOps>(market: &M, rule: &str) -> String {
    market.base().with_pricer(|pricer| {
        match qbdp_query::parser::parse_rule(pricer.catalog().schema(), rule) {
            Ok(q) => {
                let class = classify(&q);
                let ptime = if class.is_ptime() {
                    "PTIME"
                } else {
                    "NP-complete / exact engines"
                };
                format!("{class:?} — {ptime}")
            }
            Err(e) => format!("parse error: {e}"),
        }
    })
}

fn insert<M: MarketOps>(market: &M, fact: &str) -> String {
    // Syntax: R(a, b).
    let Some(open) = fact.find('(') else {
        return "insert expects `Relation(v1, v2, …)`".to_string();
    };
    if !fact.ends_with(')') {
        return "insert expects `Relation(v1, v2, …)`".to_string();
    }
    let rel = fact[..open].trim();
    let values: Option<Vec<Value>> = fact[open + 1..fact.len() - 1]
        .split(',')
        .map(|s| Value::parse_literal(s.trim()))
        .collect();
    let Some(values) = values else {
        return "bad value in tuple".to_string();
    };
    match market.insert(rel, vec![Tuple::new(values)]) {
        Ok(added) => format!("{added} tuple(s) added to {rel}"),
        Err(e) => render_err(e),
    }
}

/// `setprice R.X=a <cents>` — revise (or add) one selection-view price.
fn setprice<M: MarketOps>(market: &M, rest: &str) -> String {
    let Some((view, cents)) = rest.rsplit_once(char::is_whitespace) else {
        return "setprice expects `R.X=a <cents>`".to_string();
    };
    let Ok(cents) = cents.trim().parse::<u64>() else {
        return "setprice expects an integer price in cents".to_string();
    };
    match market.set_price(view.trim(), Price::cents(cents)) {
        Ok(()) => format!("{} now priced at {}", view.trim(), Price::cents(cents)),
        Err(e) => render_err(e),
    }
}

fn catalog<M: MarketOps>(market: &M) -> String {
    market.base().with_pricer(|pricer| {
        let mut out = String::new();
        let catalog = pricer.catalog();
        let schema = catalog.schema();
        for (rid, rel) in schema.iter() {
            let _ = writeln!(
                out,
                "{}({})  — {} tuple(s)",
                rel.name(),
                rel.attrs().join(", "),
                pricer.instance().relation(rid).len()
            );
            for (pos, attr) in rel.attrs().iter().enumerate() {
                let aref = AttrRef::new(rid, pos as u32);
                let col = catalog.column(aref);
                let priced = pricer.prices().views_on(aref).count();
                let _ = writeln!(
                    out,
                    "  .{attr:12} column of {:3} value(s), {priced:3} priced",
                    col.len()
                );
            }
        }
        let _ = write!(
            out,
            "price list: {} views priced; dataset sellable: {}",
            pricer.prices().len(),
            pricer.prices().sells_identity(catalog)
        );
        out
    })
}

fn ledger<M: MarketOps>(market: &M) -> String {
    market
        .base()
        .with_ledger(|l| format!("{} sale(s), revenue {}", l.sales(), l.revenue()))
}

/// `stats [--json|--flight]` — export the process-wide telemetry
/// registry (Prometheus text by default, JSON with `--json`), or dump
/// the flight recorder's retained span trees of quotes that went wrong
/// (`--flight`, JSONL, oldest first). Metrics accumulate only while the
/// market policy's `telemetry` flag is on (`--telemetry`, `price
/// --trace`, or a `set_policy` call).
fn stats_cmd<M: MarketOps>(market: &M, rest: &str) -> String {
    match rest {
        "" => market.metrics_snapshot(),
        "--json" => qbdp_obs::export::json(qbdp_obs::global()),
        "--flight" => {
            let records = qbdp_obs::flight::dump();
            if records.is_empty() {
                "flight recorder is empty (no slow/degraded/contended/panicked quote captured)"
                    .to_string()
            } else {
                let mut text = qbdp_obs::flight::to_jsonl(&records);
                text.truncate(text.trim_end().len());
                text
            }
        }
        other => format!("stats: unknown flag `{other}` (expected --json or --flight)"),
    }
}

fn render_err(e: MarketError) -> String {
    format!("error: {e}")
}

/// `qbdp snapshot <dir>`: open a durable market directory (recovering if
/// needed), write a fresh snapshot, and truncate the log.
pub fn snapshot_dir(dir: &str) -> String {
    let market = match qbdp_market::DurableMarket::open(dir, qbdp_market::FsyncPolicy::Always) {
        Ok(m) => m,
        Err(e) => return render_err(e),
    };
    match market.compact() {
        Ok(bytes) => format!("snapshot written to {dir}; {bytes} log byte(s) compacted"),
        Err(e) => render_err(e),
    }
}

/// `qbdp serve <dir> --addr <host:port> [--threads N] [--max-conns N]`:
/// recover (or seed) a durable market under `dir` and serve quotes over
/// HTTP until SIGTERM/SIGINT, then drain in-flight requests, flush the
/// WAL, and snapshot. Returns the shutdown summary (or the error).
///
/// Serving turns telemetry on (the `/metrics` endpoint is the whole
/// point of running a server); `threads` maps to
/// `MarketPolicy::batch_workers` — the worker pool every tick's
/// `quote_batch` fans out on (`0` = one per core).
pub fn serve_cmd(
    dir: &str,
    seed_qdp: Option<&str>,
    fsync: qbdp_market::FsyncPolicy,
    addr: &str,
    threads: usize,
    max_conns: usize,
) -> String {
    use qbdp_serve::{Server, ServerConfig, ShutdownFlag};

    let options = qbdp_market::DurableOptions {
        seed: seed_qdp,
        ..qbdp_market::DurableOptions::new(fsync)
    };
    let market = match qbdp_market::DurableMarket::open_with(dir, options) {
        Ok(m) => m,
        Err(e) => return render_err(e),
    };
    let policy = qbdp_market::MarketPolicy {
        telemetry: true,
        batch_workers: threads,
        ..market.market().policy()
    };
    if let Err(e) = market.set_policy(policy) {
        return render_err(e);
    }
    let shutdown = match ShutdownFlag::with_signals() {
        Ok(f) => f,
        Err(e) => return format!("error: cannot install signal handlers: {e}"),
    };
    let mut server = match Server::bind(ServerConfig {
        addr: addr.to_string(),
        max_conns,
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => return format!("error: {e}"),
    };
    qbdp_obs::log_info!(
        "serving quotes on http://{} ({} readiness backend); SIGTERM drains and snapshots",
        server.local_addr(),
        server.backend()
    );
    let stats = match server.run(&market, &shutdown) {
        Ok(s) => s,
        Err(e) => return format!("error: {e}"),
    };
    // The drain answered everything fully received; now make the log
    // durable (the EveryN tail) and leave a fresh snapshot so the next
    // open recovers without replay.
    if let Err(e) = market.sync() {
        return render_err(e);
    }
    let compacted = match market.compact() {
        Ok(bytes) => bytes,
        Err(e) => return render_err(e),
    };
    format!(
        "served {} request(s) on {} connection(s): {} quote(s), {} purchase(s), \
         {} http error(s), {} rejected at capacity; log synced, {compacted} \
         byte(s) compacted into the shutdown snapshot",
        stats.requests,
        stats.conns_accepted,
        stats.quotes,
        stats.purchases,
        stats.http_errors,
        stats.conns_rejected,
    )
}

/// `qbdp replay <dir> [--probe <rule>]…`: recover a durable market by
/// snapshot-load + log replay, reporting the recovered state and — for
/// each probe query — the §2.7 price trajectory observed across the
/// replayed insertions, with its Proposition 2.22 monotonicity verdict.
/// The log holds only the events since the last compaction, explicit or
/// automatic, so that is what the report counts and the trajectory
/// spans; the snapshot holds the rest.
pub fn replay_dir(dir: &str, probes: &[String]) -> String {
    use qbdp_core::dynamic::PriceTrajectory;
    use qbdp_market::{DurableMarket, DurableOptions, FsyncPolicy, MarketEvent, ReplayStep};

    let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let mut trajectories: Vec<PriceTrajectory> = probes
        .iter()
        .map(|_| PriceTrajectory { steps: Vec::new() })
        .collect();
    let mut observer = |step: ReplayStep<'_>, market: &qbdp_market::Market| {
        let observe = match &step {
            ReplayStep::SnapshotLoaded => true,
            ReplayStep::Applied(event) => {
                *counts.entry(event.kind()).or_insert(0) += 1;
                // Prices move only when the data does (§2.7: the explicit
                // price list is fixed between seller revisions).
                matches!(event, MarketEvent::InsertTuple { .. })
            }
        };
        if !observe {
            return;
        }
        let tuples = market.with_pricer(|p| p.instance().total_tuples());
        for (probe, traj) in probes.iter().zip(&mut trajectories) {
            if let Ok(q) = market.quote_str(probe) {
                traj.steps.push((tuples, q.price));
            }
        }
    };
    let options = DurableOptions {
        observer: Some(&mut observer),
        ..DurableOptions::new(FsyncPolicy::Never)
    };
    let market = match DurableMarket::open_with(dir, options) {
        Ok(m) => m,
        Err(e) => return render_err(e),
    };
    let mut out = String::new();
    let replayed: usize = counts.values().sum();
    let _ = writeln!(out, "recovered {dir}: {replayed} event(s) replayed");
    for (kind, n) in &counts {
        let _ = writeln!(out, "  {n:>6} × {kind}");
    }
    let tuples = market.market().with_pricer(|p| p.instance().total_tuples());
    let _ = writeln!(
        out,
        "state : {tuples} tuple(s), {} sale(s), revenue {}",
        market.market().with_ledger(qbdp_market::Ledger::sales),
        market.market().revenue()
    );
    for (probe, traj) in probes.iter().zip(&trajectories) {
        let _ = write!(
            out,
            "probe : {probe} — {} observation(s); ",
            traj.steps.len()
        );
        match traj.first_violation() {
            None => {
                let _ = writeln!(out, "monotone (Prop 2.22 holds along the replay)");
            }
            Some((step, before, after)) => {
                let _ = writeln!(
                    out,
                    "NOT monotone — step {step}: {before} dropped to {after}"
                );
            }
        }
    }
    out.truncate(out.trim_end().len());
    out
}

/// `qbdp scrub <dir>`: read-only integrity pass over a durable market
/// directory — verifies snapshot structure and every log frame's
/// checksum, reporting damage (file + byte offset) without repairing or
/// even opening the market.
pub fn scrub_dir(dir: &str) -> String {
    use qbdp_market::durable::{SNAPSHOT_FILE, WAL_FILE};
    use qbdp_store::{scrub, RealFs};
    let dir = std::path::Path::new(dir);
    let report = scrub(&RealFs, &dir.join(SNAPSHOT_FILE), &dir.join(WAL_FILE));
    report.to_string()
}

/// Build a [`qbdp_market::chaos::FaultMix`] from the `--faults` flag:
/// `all`, or a comma list drawn from `transient`, `enospc`, `fsync`,
/// `torn` (each enabled at its default intensity).
pub fn parse_fault_mix(spec: &str) -> Option<qbdp_market::chaos::FaultMix> {
    use qbdp_market::chaos::FaultMix;
    if spec == "all" {
        return Some(FaultMix::all());
    }
    let defaults = FaultMix::all();
    let mut mix = FaultMix::none();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match name {
            "transient" => mix.transient = defaults.transient,
            "enospc" => mix.enospc = defaults.enospc,
            "fsync" | "fsync-fail" => mix.fsync_fail = defaults.fsync_fail,
            "torn" | "torn-write" => mix.torn_write = defaults.torn_write,
            _ => return None,
        }
    }
    Some(mix)
}

/// `qbdp chaos [--seed N] [--schedules N] [--ops N] [--faults LIST]
/// [market.qdp]`: run randomized fault schedules against a scratch
/// durable market and check the three robustness invariants (prefix
/// consistency, no lost ack, sound degraded quotes). Returns an
/// `error:`-prefixed report (non-zero exit) on any violation; every
/// schedule is deterministic in its seed, so a failure names the exact
/// seed to replay.
pub fn chaos_cmd(qdp: &str, seed0: u64, schedules: u64, ops: u32, faults: &str) -> String {
    use qbdp_market::chaos::{run_schedule, ChaosConfig};
    let Some(mix) = parse_fault_mix(faults) else {
        return format!(
            "error: --faults expects `all` or a comma list of \
             transient, enospc, fsync, torn (got `{faults}`)"
        );
    };
    let scratch = std::env::temp_dir().join(format!("qbdp_chaos_cli_{}", std::process::id()));
    let mut out = String::new();
    let mut acked = 0u64;
    let mut injected = 0u64;
    let mut refused = 0u64;
    let mut tails = 0u64;
    let mut bad = 0u64;
    // audit: bounded(--schedules seeds, one schedule each)
    for seed in seed0..seed0.saturating_add(schedules) {
        let mut cfg = ChaosConfig::new(seed);
        cfg.ops = ops;
        cfg.fault = mix;
        match run_schedule(qdp, &scratch, &cfg) {
            Ok(report) => {
                acked += report.acked;
                injected += report.faults_injected;
                refused += report.store_errors + report.degraded_ops;
                tails += u64::from(report.recovered_pending_tail);
                if !report.is_sound() {
                    bad += 1;
                    let _ = writeln!(out, "seed {seed} VIOLATED:\n{report}");
                }
            }
            Err(e) => {
                bad += 1;
                let _ = writeln!(out, "seed {seed} setup failed: {e}");
            }
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    let _ = write!(
        out,
        "{schedules} schedule(s) from seed {seed0}: {acked} acked, {injected} fault(s) \
         injected, {refused} op(s) refused, {tails} pending tail(s) recovered"
    );
    if bad > 0 {
        format!("error: {bad} schedule(s) violated the invariants\n{out}")
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_market::Market;

    fn market() -> Market {
        Market::open_qdp(include_str!("../data/figure1.qdp")).unwrap()
    }

    #[test]
    fn quote_and_buy() {
        let m = market();
        let out = run_command(&m, "quote Q(x, y) :- R(x), S(x, y), T(y)");
        assert!(out.contains("price : $6.00"), "{out}");
        assert!(out.contains("σ[R.X=a1]"));
        let out = run_command(&m, "buy Q(x, y) :- R(x), S(x, y), T(y)");
        assert!(out.contains("charged $6.00"), "{out}");
        assert!(out.contains("(a1, b1)"));
        let out = run_command(&m, "ledger");
        assert!(out.contains("1 sale(s), revenue $6.00"), "{out}");
    }

    #[test]
    fn classify_and_catalog() {
        let m = market();
        let out = run_command(&m, "classify Q(x, y) :- R(x), S(x, y), T(y)");
        assert!(out.contains("GeneralizedChain"), "{out}");
        let out = run_command(&m, "classify Q(x) :- S(x, y)");
        assert!(out.contains("NpComplete"), "{out}");
        let out = run_command(&m, "catalog");
        assert!(out.contains("S(X, Y)"), "{out}");
        assert!(out.contains("dataset sellable: true"), "{out}");
    }

    #[test]
    fn insert_via_cli() {
        let m = market();
        let out = run_command(&m, "insert T(b2)");
        assert!(out.contains("1 tuple(s) added"), "{out}");
        let out = run_command(&m, "insert T(nope)");
        assert!(out.contains("error"), "{out}");
        let out = run_command(&m, "insert garbage");
        assert!(out.contains("insert expects"), "{out}");
    }

    #[test]
    fn price_is_a_quote_alias() {
        let m = market();
        let out = run_command(&m, "price Q(x, y) :- R(x), S(x, y), T(y)");
        assert!(out.contains("price : $6.00"), "{out}");
    }

    #[test]
    fn price_batch_from_file() {
        let m = market();
        let path = std::env::temp_dir().join("qbdp_cli_batch_test.txt");
        std::fs::write(
            &path,
            "# batch of three, one bad\n\
             Q(x, y) :- R(x), S(x, y), T(y)\n\
             \n\
             Q(x) :- R(x)\n\
             not a rule\n",
        )
        .unwrap();
        let out = run_command(&m, &format!("price --batch {} --threads 2", path.display()));
        std::fs::remove_file(&path).ok();
        assert!(out.contains("$6.00"), "{out}");
        assert!(out.contains("error"), "{out}");
        assert!(out.contains("priced 2/3 queries"), "{out}");
    }

    #[test]
    fn price_batch_flag_errors_are_friendly() {
        let m = market();
        assert!(run_command(&m, "price --batch").contains("expects a file path"));
        assert!(run_command(&m, "price --batch /nonexistent-qbdp").contains("cannot read"));
        let out = run_command(&m, "price --batch x --threads many");
        assert!(out.contains("--threads expects"), "{out}");
    }

    #[test]
    fn unknown_and_help() {
        let m = market();
        assert!(run_command(&m, "frobnicate").contains("unknown command"));
        assert!(run_command(&m, "help").contains("quote <rule>"));
        assert_eq!(run_command(&m, ""), "");
    }

    #[test]
    fn repl_session() {
        let m = market();
        let input = "help\n# a comment\nquote Q(x) :- R(x)\nquit\nnever reached\n";
        let mut out = Vec::new();
        repl(&m, input.as_bytes(), &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("commands:"));
        assert!(text.contains("price :"));
        assert!(!text.contains("never reached"));
    }

    #[test]
    fn mini_market_file_loads() {
        let m = Market::open_qdp(include_str!("../data/mini_market.qdp")).unwrap();
        let out = run_command(&m, "quote Q(n, s) :- Company(n, s), Deal(n, z)");
        assert!(out.contains("price"), "{out}");
    }

    #[test]
    fn setprice_revises_and_validates() {
        let m = market();
        let out = run_command(&m, "setprice T.Y=b2 250");
        assert!(out.contains("now priced at $2.50"), "{out}");
        assert!(run_command(&m, "setprice T.Y=b2").contains("setprice expects"));
        assert!(run_command(&m, "setprice T.Y=b2 lots").contains("integer price"));
        assert!(run_command(&m, "setprice T.Y=zz 5").starts_with("error:"));
    }

    #[test]
    fn compact_and_sync_need_a_durable_market() {
        let m = market();
        assert!(run_command(&m, "compact").contains("needs a durable market"));
        assert!(run_command(&m, "sync").contains("needs a durable market"));
    }

    #[test]
    fn durable_serve_snapshot_replay_cycle() {
        use qbdp_market::{DurableMarket, FsyncPolicy};
        let dir = std::env::temp_dir().join(format!("qbdp_cli_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.display().to_string();

        // serve-dir semantics: seed, mutate through the generic CLI path.
        let dm = DurableMarket::create(
            &dir,
            include_str!("../data/figure1.qdp"),
            FsyncPolicy::Never,
        )
        .unwrap();
        assert!(run_command(&dm, "insert T(b2)").contains("1 tuple(s) added"));
        assert!(run_command(&dm, "buy Q(x) :- R(x)").contains("charged"));
        assert!(run_command(&dm, "setprice T.Y=b2 250").contains("now priced"));
        assert!(run_command(&dm, "sync").contains("stable storage"));
        let live_qdp = dm.market().to_qdp();
        drop(dm);

        // replay reports the recovered state and a monotone probe verdict.
        let probes = vec!["Q(x, y) :- R(x), S(x, y), T(y)".to_string()];
        let out = replay_dir(&dir_s, &probes);
        assert!(out.contains("event(s) replayed"), "{out}");
        assert!(out.contains("1 sale(s)"), "{out}");
        assert!(out.contains("monotone (Prop 2.22"), "{out}");

        // snapshot compacts; reopening still reproduces the state.
        let out = snapshot_dir(&dir_s);
        assert!(out.contains("compacted"), "{out}");
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.market().to_qdp(), live_qdp);
        assert_eq!(back.wal_position(), 0);
        drop(back);

        // replay after compaction: nothing left to replay, state intact.
        let out = replay_dir(&dir_s, &[]);
        assert!(out.contains("0 event(s) replayed"), "{out}");
        assert!(out.contains("1 sale(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_unknown_dir_is_an_error() {
        let out = replay_dir("/nonexistent-qbdp-dir", &[]);
        assert!(out.starts_with("error:"), "{out}");
        let out = snapshot_dir("/nonexistent-qbdp-dir");
        assert!(out.starts_with("error:"), "{out}");
    }
}
