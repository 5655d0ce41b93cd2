//! One measured run of one workload: set-up, saturation, warm-up, open
//! loop, oracle, traced replay, then cold reopens alternating with set-ups.
//!
//! The served configuration is the one `qbdp serve` runs: a
//! `DurableMarket` with `FsyncPolicy::Always`, telemetry on,
//! `batch_workers: 0`, `max_conns: 1024`, and `Server::run` on its own
//! thread in this process. Load arrives over real sockets from one buyer
//! thread with two keep-alive connections; `price_storm` adds one seller
//! thread calling `MarketOps::set_price`.
//!
//! The saturation phase runs against a market of its own, set up like
//! the one the open loop then gets. A closed loop does as much work as the
//! machine allows, so whatever it leaves behind (log length, cached
//! quotes, revised prices) varies with the machine's speed; the open
//! loop's market holds only what the seeded schedule put in it, so its
//! latencies, its counters and the cold reopen that closes the run are
//! the same work on every run of a seed.

use crate::gen::{self, Arrivals, Reply, Wire};
use crate::layers::{self, ClientSpan, Delta, Snap, SpanLog};
use crate::reference;
use crate::report::{self, Histogram, Metric, RunResult};
use crate::workload::{self, Fixture, Kind, Revision};
use qbdp_catalog::QdpFile;
use qbdp_core::price_points::PriceList;
use qbdp_core::{Price, Pricer};
use qbdp_determinacy::selection::SelectionView;
use qbdp_market::{
    fingerprint, DurableMarket, FsyncPolicy, Market, MarketError, MarketHealth, MarketOps,
    MarketPolicy, Purchase,
};
use qbdp_obs::{Ctr, Hst};
use qbdp_query::parser::parse_rule;
use qbdp_serve::{ResponseParser, Server, ServerConfig, ShutdownFlag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A bug planted on purpose, to show the oracle catches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plant {
    /// One purchase is answered one cent above its true price.
    OffByOneCent,
    /// One purchase is acknowledged but never written to the log.
    DroppedAck,
}

impl Plant {
    /// Parse `off-by-one-cent` / `dropped-ack`.
    pub fn parse(s: &str) -> Option<Plant> {
        match s {
            "off-by-one-cent" => Some(Plant::OffByOneCent),
            "dropped-ack" => Some(Plant::DroppedAck),
            _ => None,
        }
    }
}

/// How much work a run does besides its timed phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A quick pass through every step, at a twentieth of the rates, so
    /// an unoptimized test build keeps up (tests).
    Smoke,
}

impl Scale {
    /// `full` / `smoke`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Whether a step repeated `n` times since `started` has been repeated
    /// for `span`: at least once, and for the whole span at full scale.
    fn timed_enough(self, n: usize, started: Instant, span: Duration) -> bool {
        match self {
            Scale::Full => n >= 1 && started.elapsed() >= span,
            Scale::Smoke => n >= 1,
        }
    }

    /// Open-loop rate multiplier.
    fn rate_factor(self) -> f64 {
        match self {
            Scale::Full => 1.0,
            Scale::Smoke => 0.05,
        }
    }

    /// Served novel-query prices checked after the run.
    fn sample(self) -> usize {
        match self {
            Scale::Full => 200,
            Scale::Smoke => 20,
        }
    }

    /// Requests replayed through the layers in a traced run.
    fn replay(self) -> usize {
        match self {
            Scale::Full => 2_000,
            Scale::Smoke => 20,
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Traffic seed.
    pub seed: u64,
    /// Seconds measured (saturation 15%, warm-up 10%, open loop 65%,
    /// reopens and set-ups 10%).
    pub seconds: f64,
    /// Replay the layers and report per-layer metrics.
    pub trace: bool,
    /// Full or smoke.
    pub scale: Scale,
    /// Output directory (`target/qbench`).
    pub out: PathBuf,
    /// A deliberate bug, for the oracle's own tests.
    pub plant: Option<Plant>,
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: [&str; 3] = ["cpu_per_op_refs", "setup_s", "recovery_refs"];

/// Write-path diagnostics: measured only where a workload writes, and 0
/// on the others. They stay in the run's record and table but not on its
/// result line, whose per-layer metrics are defined on every workload.
pub const WRITE_PATH: [&str; 8] = [
    "purchase_p50_us",
    "purchase_p99_us",
    "revise_p50_us",
    "revise_p99_us",
    "serve.purchase_service_p50_us",
    "store.wal_append_p50_us",
    "store.fsync_p50_us",
    "store.fsync_p99_us",
];

/// Whether metric `name` goes on the result line of a run with `trace`
/// on (the per-layer metrics) or off (the end-to-end ones).
pub fn on_result_line(name: &str, trace: bool) -> bool {
    if trace {
        !END_TO_END.contains(&name) && !WRITE_PATH.contains(&name)
    } else {
        END_TO_END.contains(&name)
    }
}

/// What a run produced.
pub struct Outcome {
    /// Every metric, oracle verdict and operation counts.
    pub result: RunResult,
    /// Oracle failures (empty when correct).
    pub errors: Vec<String>,
    /// Human-readable report.
    pub table: String,
}

/// Which phase a response belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Saturation,
    Warm,
    Open,
}

/// Fewest operations of one kind a latency window should expect: a
/// window's p99 then rests on at least ten samples beyond it.
const WINDOW_SAMPLES: f64 = 1_000.0;

/// Width of the saturation phase's throughput windows, seconds.
const RPS_WINDOW_S: f64 = 0.5;

/// Width of the halves a traced run alternates between, seconds.
const TRACE_HALF_S: f64 = 1.0;

/// How long stragglers may take after a phase ends before they count
/// as failed.
const GRACE: Duration = Duration::from_secs(2);

/// How long the first set-up is repeated for.
const SETUP_BATCH: Duration = Duration::from_millis(500);

/// How long each round of the closing phase repeats the cold reopen,
/// and the reference computation before and after it, before it sets up
/// once.
const REOPEN_ROUND: Duration = Duration::from_millis(50);
const REFERENCE_ROUND: Duration = Duration::from_millis(10);

/// Closed-loop depth per connection in the saturation phase.
const SATURATION_DEPTH: usize = 16;

/// Purchase number at which a planted bug fires.
const PLANT_AT: u64 = 3;

/// Mismatch messages kept per run (all are counted).
const MAX_ERRORS: usize = 20;

/// Client spans kept per traced run (a stride thins the rest).
const MAX_CLIENT_SPANS: u64 = 20_000;

/// Latencies of one kind of operation, per window of due time. A
/// percentile is reported as the lower quartile over the phase's whole
/// windows of each window's percentile (see [`report::better_quartile`]),
/// so a slow spell on the machine moves some windows, not the result.
struct Windows {
    width_ns: f64,
    hists: Vec<Histogram>,
}

impl Windows {
    /// Windows wide enough to expect [`WINDOW_SAMPLES`] operations at
    /// `rate` per second, and at least a second wide.
    fn for_rate(rate: f64) -> Windows {
        Windows {
            width_ns: (WINDOW_SAMPLES / rate.max(1e-9)).max(1.0) * 1e9,
            hists: Vec::new(),
        }
    }

    fn record(&mut self, due_ns: u64, latency_ns: u64) {
        let w = (due_ns as f64 / self.width_ns) as usize;
        if self.hists.len() <= w {
            self.hists.resize_with(w + 1, Histogram::default);
        }
        self.hists[w].record(latency_ns);
    }

    /// Lower quartile over the windows that end within `secs` of each
    /// non-empty window's quantile `q`, in microseconds (0 when none has
    /// values).
    fn quantile_us(&self, q: f64, secs: f64) -> f64 {
        let whole = ((secs * 1e9 / self.width_ns) as usize).max(1);
        let per: Vec<f64> = self
            .hists
            .iter()
            .take(whole)
            .filter_map(|h| h.quantile(q))
            .collect();

        report::better_quartile(&per, true).unwrap_or(0.0) / 1e3
    }

    /// Every window merged.
    fn pooled(&self) -> Histogram {
        let mut all = Histogram::default();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }
}

/// Everything the response stream tells the oracle and the metrics.
struct Tally<'a> {
    fx: &'a Fixture,
    expected: &'a [Option<u64>],
    sampled: &'a [bool],
    trace: bool,
    span_stride: u64,
    attempted: u64,
    failed: u64,
    refusals: BTreeMap<u16, u64>,
    mismatches: u64,
    errors: Vec<String>,
    /// Purchases acknowledged by the market being served.
    acked_purchases: u64,
    acked_cents: u64,
    served_sample: BTreeMap<u32, u64>,
    sat_done: Vec<u64>,
    sat_quotes: &'a AtomicU64,
    quotes: Windows,
    purchases: Windows,
    quotes_traced: Histogram,
    quotes_untraced: Histogram,
    quote_bytes: Histogram,
    spans: Vec<ClientSpan>,
}

impl Tally<'_> {
    fn error(&mut self, msg: String) {
        self.mismatches += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    fn observe(&mut self, r: Reply<'_>, phase: Phase) {
        self.attempted += 1;
        let req = r.req as usize;
        let kind = self.fx.req_kind[req];
        let query = self.fx.req_query[req] as usize;
        let Some(resp) = r.response.filter(|_| r.ok()) else {
            self.failed += 1;
            *self
                .refusals
                .entry(r.response.map_or(0, |resp| resp.status))
                .or_default() += 1;
            return;
        };
        let Some(cents) = price_cents(&resp.body) else {
            self.error(format!(
                "2xx response to `{}` carries no finite price_cents",
                self.fx.queries[query]
            ));
            return;
        };
        if let Some(want) = self.expected[query] {
            if cents != want {
                self.error(format!(
                    "{kind:?} `{}` answered {cents}¢, cold price is {want}¢",
                    self.fx.queries[query]
                ));
            }
        }
        if self.sampled[query] && phase != Phase::Saturation {
            self.served_sample.entry(query as u32).or_insert(cents);
        }
        if kind == Kind::Purchase {
            self.acked_purchases += 1;
            self.acked_cents += cents;
        }
        match phase {
            Phase::Warm => {}
            Phase::Saturation => {
                let w = (r.done_ns as f64 / 1e9 / RPS_WINDOW_S) as usize;
                if self.sat_done.len() <= w {
                    self.sat_done.resize(w + 1, 0);
                }
                self.sat_done[w] += 1;
                if kind == Kind::Quote {
                    self.sat_quotes.fetch_add(1, Ordering::Relaxed);
                }
            }
            Phase::Open => {
                let traced = self.trace && traced_half(r.due_ns);
                match kind {
                    Kind::Quote => {
                        self.quotes.record(r.due_ns, r.latency_ns());
                        self.quote_bytes.record(resp.body.len() as u64);
                        if self.trace {
                            if traced {
                                self.quotes_traced.record(r.latency_ns());
                            } else {
                                self.quotes_untraced.record(r.latency_ns());
                            }
                        }
                    }
                    Kind::Purchase => {
                        self.purchases.record(r.due_ns, r.latency_ns());
                    }
                }
                if traced && (r.op as u64).is_multiple_of(self.span_stride) {
                    self.spans.push(ClientSpan {
                        op: r.op,
                        req: r.req,
                        due_ns: r.due_ns,
                        sent_ns: r.sent_ns,
                        done_ns: r.done_ns,
                    });
                }
            }
        }
    }
}

/// Traced runs record client spans in every other second, so the cost of
/// recording shows as the gap between the two halves.
fn traced_half(due_ns: u64) -> bool {
    ((due_ns as f64 / 1e9 / TRACE_HALF_S) as u64).is_multiple_of(2)
}

/// The first `"price_cents":N` of a response body (a purchase's first one
/// is its quote's).
fn price_cents(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"price_cents\":";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits: &[u8] = &body[at..];
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// A market that misbehaves once, on purpose (see [`Plant`]).
struct Planted<'a> {
    dm: &'a DurableMarket,
    plant: Plant,
    purchases: AtomicU64,
}

impl MarketOps for Planted<'_> {
    fn base(&self) -> &Market {
        self.dm.market()
    }

    fn insert(
        &self,
        relation: &str,
        tuples: Vec<qbdp_catalog::Tuple>,
    ) -> Result<usize, MarketError> {
        self.dm.insert(relation, tuples)
    }

    fn set_price(&self, view: &str, price: Price) -> Result<(), MarketError> {
        self.dm.set_price(view, price)
    }

    fn purchase_str(&self, query: &str) -> Result<Purchase, MarketError> {
        if self.purchases.fetch_add(1, Ordering::Relaxed) != PLANT_AT {
            return self.dm.purchase_str(query);
        }
        match self.plant {
            Plant::OffByOneCent => {
                let mut p = self.dm.purchase_str(query)?;
                p.quote.price = Price::cents(p.quote.price.as_cents() + 1);
                Ok(p)
            }
            // The in-memory path records the sale without logging it.
            Plant::DroppedAck => self.dm.market().purchase_str(query),
        }
    }

    fn set_policy(&self, policy: MarketPolicy) -> Result<(), MarketError> {
        self.dm.set_policy(policy)
    }

    fn durable(&self) -> Option<&DurableMarket> {
        Some(self.dm)
    }

    fn health(&self) -> MarketHealth {
        self.dm.health()
    }
}

/// Open the durable market `qbdp serve` would in a fresh `dir`, warm its
/// cache, bind; the time it took is pushed onto `times`.
fn setup(
    fx: &Fixture,
    dir: &Path,
    times: &mut Vec<f64>,
) -> Result<(DurableMarket, Server), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let dm = DurableMarket::create(dir, &fx.qdp, FsyncPolicy::Always)
        .map_err(|e| format!("create market: {e}"))?;
    dm.set_policy(MarketPolicy {
        telemetry: true,
        batch_workers: 0,
        ..dm.market().policy()
    })
    .map_err(|e| format!("set policy: {e}"))?;
    let warm: Vec<&str> = fx.warm.iter().map(|&i| fx.queries[i].as_str()).collect();
    for (q, r) in warm.iter().zip(dm.market().quote_batch(&warm)) {
        r.map_err(|e| format!("warm quote `{q}`: {e}"))?;
    }
    let server = Server::bind(ServerConfig {
        max_conns: 1024,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    times.push(t.elapsed().as_secs_f64());
    Ok((dm, server))
}

/// Cold-reopen the market in `dir`; the time it took is pushed onto
/// `times`.
fn reopen(dir: &Path, times: &mut Vec<f64>) -> Result<DurableMarket, String> {
    let t = Instant::now();
    let dm =
        DurableMarket::open(dir, FsyncPolicy::Always).map_err(|e| format!("cold reopen: {e}"))?;
    times.push(t.elapsed().as_secs_f64());
    Ok(dm)
}

/// Repeat a timed `step` for `span`.
fn batch(
    scale: Scale,
    span: Duration,
    mut step: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut n = 0;
    while !scale.timed_enough(n, started, span) {
        step()?;
        n += 1;
    }
    Ok(())
}

/// Run `server` over `ops` on its own thread while `load` drives it from
/// this one; the server is stopped however the load ends. Returns the
/// load's result and the readiness backend the server used.
fn serving<T>(
    server: &mut Server,
    ops: &dyn MarketOps,
    load: impl FnOnce(SocketAddr) -> Result<T, String>,
) -> Result<(T, &'static str), String> {
    struct StopOnDrop<'a>(&'a ShutdownFlag);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.request();
        }
    }
    let addr = server.local_addr();
    let shutdown = ShutdownFlag::new();
    std::thread::scope(|s| {
        let server_thread = s.spawn(|| server.run(ops, &shutdown));
        let stop = StopOnDrop(&shutdown);
        let loaded = load(addr);
        drop(stop);
        let served = server_thread.join();
        let out = loaded?;
        let stats = served
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        Ok((out, stats.backend))
    })
}

/// Cold price of `query` in cents, from an independent pricer.
fn cold_cents(pricer: &Pricer, query: &str) -> Result<u64, String> {
    let q = parse_rule(pricer.catalog().schema(), query).map_err(|e| format!("{query}: {e}"))?;
    let quote = pricer.price_cq(&q).map_err(|e| format!("{query}: {e}"))?;
    if !quote.price.is_finite() {
        return Err(format!("{query}: not for sale"));
    }
    Ok(quote.price.as_cents())
}

/// A pricer rebuilt from a market's `.qdp` serialization.
fn pricer_from_qdp(text: &str) -> Result<Pricer, String> {
    let file = QdpFile::parse(text).map_err(|e| format!("reparse to_qdp: {e}"))?;
    let mut prices = PriceList::new();
    for (attr, value, cents) in file.prices {
        prices.set(SelectionView::new(attr, value), Price::cents(cents));
    }
    Pricer::new(file.catalog, file.instance, prices).map_err(|e| format!("rebuild pricer: {e}"))
}

/// `view → cents` of a price list, for exact comparison.
fn price_map(list: &PriceList, catalog: &qbdp_catalog::Catalog) -> BTreeMap<String, u64> {
    list.iter()
        .map(|(v, p)| (v.display(catalog.schema()), p.as_cents()))
        .collect()
}

/// Quote `query` over a fresh blocking connection.
fn quote_over_http(addr: SocketAddr, query: &str) -> Result<(u16, Vec<u8>), String> {
    let mut c = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    c.write_all(&gen::post("/quote", query))
        .map_err(|e| format!("write: {e}"))?;
    let mut parser = ResponseParser::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = c.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        parser.feed(&buf[..n]);
        if let Some(r) = parser.next_response() {
            return Ok((r.status, r.body));
        }
    }
}

/// After the load has quiesced, every pool query served over HTTP must
/// equal a cold pricer rebuilt from the market's own serialization
/// (`price_storm`, whose prices move during the run).
fn check_served_prices(
    dm: &DurableMarket,
    addr: SocketAddr,
    fx: &Fixture,
) -> Result<Vec<String>, String> {
    let pricer = pricer_from_qdp(&dm.market().to_qdp())?;
    let mut errors = Vec::new();
    for q in &fx.queries {
        let want = cold_cents(&pricer, q)?;
        match quote_over_http(addr, q) {
            Ok((200, body)) if price_cents(&body) == Some(want) => {}
            Ok((status, body)) => errors.push(format!(
                "after quiescing, `{q}` served {status} {:?}, cold price {want}¢",
                price_cents(&body)
            )),
            Err(e) => errors.push(format!("after quiescing, `{q}`: {e}")),
        }
    }
    Ok(errors)
}

/// Seller revisions: what was acknowledged, and how long each took from
/// its due time.
struct Seller {
    acked: Vec<Revision>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    open: Windows,
}

impl Seller {
    fn revise(&mut self, dm: &DurableMarket, rev: Revision) -> bool {
        self.attempted += 1;
        match dm.set_price(&rev.view, Price::cents(rev.cents)) {
            Ok(()) => {
                self.acked.push(rev);
                true
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < MAX_ERRORS {
                    self.errors
                        .push(format!("revision {} = {}¢: {e}", rev.view, rev.cents));
                }
                false
            }
        }
    }
}

/// The market's ledger must hold exactly the acknowledged purchases, and
/// its price list exactly the seed list with the acknowledged revisions
/// applied. Both tallies then start over for the next market.
fn check_ledger(
    dm: &DurableMarket,
    fx: &Fixture,
    tally: &mut Tally<'_>,
    seller: &mut Seller,
) -> Vec<String> {
    let mut errors = Vec::new();
    let sales = dm.market().sales() as u64;
    let revenue = dm.market().revenue().as_cents();
    if sales != tally.acked_purchases || revenue != tally.acked_cents {
        errors.push(format!(
            "ledger holds {sales} sales for {revenue}¢; {} purchases were acknowledged for {}¢",
            tally.acked_purchases, tally.acked_cents
        ));
    }
    let want = price_map(
        &workload::revised(fx.prices(), fx.catalog(), &seller.acked),
        fx.catalog(),
    );
    let got = dm
        .market()
        .with_pricer(|p| price_map(p.prices(), p.catalog()));
    if want != got {
        errors.push("the final price list differs from the acknowledged revisions".to_string());
    }
    tally.acked_purchases = 0;
    tally.acked_cents = 0;
    seller.acked.clear();
    errors
}

/// Phase lengths, seconds.
struct Phases {
    saturation: f64,
    warm: f64,
    open: f64,
    closing: f64,
}

impl Phases {
    fn of(seconds: f64) -> Phases {
        Phases {
            saturation: seconds * 0.15,
            warm: seconds * 0.10,
            open: seconds * 0.65,
            closing: seconds * 0.10,
        }
    }
}

/// Run one workload once, under fixed allocator thresholds (see
/// [`crate::sys::keep_freed_memory`]).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    crate::sys::keep_freed_memory();
    let fx = workload::build(&cfg.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;
    let run_dir = cfg
        .out
        .join(format!("run-{}-{}", fx.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let outcome = run_in(cfg, &fx, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    outcome
}

fn run_in(cfg: &Config, fx: &Fixture, run_dir: &Path) -> Result<Outcome, String> {
    let rate = workload::rate(fx.name) * cfg.scale.rate_factor();
    let phases = Phases::of(cfg.seconds);
    let revising = !fx.static_prices;
    let (sat_dir, open_dir) = (run_dir.join("saturation"), run_dir.join("open"));

    // ---- set-up, timed in a batch now and again in the closing phase ----
    let mut setup_s = Vec::new();
    let mut sat_market = None;
    batch(cfg.scale, SETUP_BATCH, || {
        sat_market = None;
        sat_market = Some(setup(fx, &sat_dir, &mut setup_s)?);
        Ok(())
    })?;
    let (dm, mut server) = sat_market.ok_or("no set-up ran")?;

    // ---- oracle reference: independent cold prices ----------------------
    let reference = fx.cold_pricer();
    let mut expected = vec![None; fx.queries.len()];
    if fx.static_prices {
        for &i in &fx.checked {
            expected[i] = Some(cold_cents(&reference, &fx.queries[i])?);
        }
    }
    let mut sampled = vec![false; fx.queries.len()];
    for &i in &fx.sampled {
        sampled[i] = true;
    }

    let sat_quotes = AtomicU64::new(0);
    let traced_ops = (rate * phases.open / 2.0) as u64;
    let quote_share = 1.0 - fx.purchase_share();
    let mut tally = Tally {
        fx,
        expected: &expected,
        sampled: &sampled,
        trace: cfg.trace,
        span_stride: traced_ops.div_ceil(MAX_CLIENT_SPANS).max(1),
        attempted: 0,
        failed: 0,
        refusals: BTreeMap::new(),
        mismatches: 0,
        errors: Vec::new(),
        acked_purchases: 0,
        acked_cents: 0,
        served_sample: BTreeMap::new(),
        sat_done: Vec::new(),
        sat_quotes: &sat_quotes,
        quotes: Windows::for_rate(rate * quote_share),
        purchases: Windows::for_rate(rate * fx.purchase_share()),
        quotes_traced: Histogram::default(),
        quotes_untraced: Histogram::default(),
        quote_bytes: Histogram::default(),
        spans: Vec::new(),
    };
    let revision_rate = rate * workload::REVISIONS_PER_QUOTE;
    let seller = Mutex::new(Seller {
        acked: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        open: Windows::for_rate(revision_rate),
    });
    let mut errors = Vec::new();

    // ---- saturation: closed loop on a market of its own -----------------
    // The seller keeps pace at one revision per four completed quotes.
    let (sat_stats, backend) = serving(&mut server, &dm, |addr| {
        let mut wire = Wire::connect(addr, 2).map_err(|e| format!("connect: {e}"))?;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0053_4154);
        let sat_done = AtomicBool::new(false);
        let stats = std::thread::scope(|s| {
            let revisions = s.spawn(|| {
                if !revising {
                    return;
                }
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5245_5631);
                let mut done = 0u64;
                while !sat_done.load(Ordering::Relaxed) {
                    let due = (sat_quotes.load(Ordering::Relaxed) as f64
                        * workload::REVISIONS_PER_QUOTE) as u64;
                    if done < due {
                        let rev = workload::next_revision(&mut rng);
                        lock(&seller).revise(&dm, rev);
                        done += 1;
                    } else {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            });
            let stats = gen::closed_loop(
                &mut wire,
                &fx.requests,
                SATURATION_DEPTH,
                phases.saturation,
                GRACE,
                || fx.pick(&mut rng),
                |r| tally.observe(r, Phase::Saturation),
            );
            sat_done.store(true, Ordering::Relaxed);
            revisions
                .join()
                .map_err(|_| "saturation seller panicked".to_string())?;
            Ok::<_, String>(stats)
        })?;
        drop(wire);
        if revising {
            errors.extend(check_served_prices(&dm, addr, fx)?);
        }
        Ok(stats)
    })?;
    errors.extend(check_ledger(&dm, fx, &mut tally, &mut lock(&seller)));
    drop(server);
    drop(dm);
    let _ = std::fs::remove_dir_all(&sat_dir);

    // ---- warm-up and open loop on a fresh market -------------------------
    let (dm, mut server) = setup(fx, &open_dir, &mut setup_s)?;
    let planted = cfg.plant.map(|plant| Planted {
        dm: &dm,
        plant,
        purchases: AtomicU64::new(0),
    });
    let ops: &dyn MarketOps = match &planted {
        Some(p) => p,
        None => &dm,
    };
    let ((open_stats, refs, before, after), _) = serving(&mut server, ops, |addr| {
        let mut wire = Wire::connect(addr, 2).map_err(|e| format!("connect: {e}"))?;

        // Warm-up: the open loop at its rate, not measured.
        let warm = Arrivals::poisson(cfg.seed ^ 0x5741_524d, rate, phases.warm, |r| fx.pick(r));
        gen::open_loop(&mut wire, &fx.requests, warm, GRACE, |r| {
            tally.observe(r, Phase::Warm)
        });

        // Poisson arrivals at the workload's fixed rate; the seller
        // revises on its own Poisson schedule, and a third thread times
        // the reference computation.
        let before = Snap::take(&dm);
        let arrivals = Arrivals::poisson(cfg.seed, rate, phases.open, |r| fx.pick(r));
        let done = AtomicBool::new(false);
        let (stats, refs) = std::thread::scope(|s| {
            let sampler = s.spawn(|| reference::sample(&done));
            let revisions = s.spawn(|| {
                if !revising {
                    return;
                }
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5245_5632);
                let schedule =
                    Arrivals::poisson(cfg.seed ^ 0x5245_5633, revision_rate, phases.open, |_| 0);
                let t0 = Instant::now();
                for op in schedule {
                    let due = Duration::from_nanos(op.due_ns);
                    if let Some(wait) = due.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let rev = workload::next_revision(&mut rng);
                    let mut seller = lock(&seller);
                    if seller.revise(&dm, rev) {
                        let ns = t0.elapsed().saturating_sub(due).as_nanos() as u64;
                        seller.open.record(op.due_ns, ns);
                    }
                }
            });
            let stats = {
                let _done = SetOnDrop(&done);
                gen::open_loop(&mut wire, &fx.requests, arrivals, GRACE, |r| {
                    tally.observe(r, Phase::Open)
                })
            };
            let refs = sampler
                .join()
                .map_err(|_| "reference sampler panicked".to_string())?;
            revisions
                .join()
                .map_err(|_| "open-loop seller panicked".to_string())?;
            Ok::<_, String>((stats, refs))
        })?;
        let after = Snap::take(&dm);
        drop(wire);
        if revising {
            errors.extend(check_served_prices(&dm, addr, fx)?);
        }
        Ok((stats, refs, before, after))
    })?;
    drop(server);
    let mut seller = seller.into_inner().unwrap_or_else(|e| e.into_inner());
    errors.extend(tally.errors.iter().cloned());
    if tally.mismatches > tally.errors.len() as u64 {
        errors.push(format!("… {} price mismatches in all", tally.mismatches));
    }
    errors.extend(seller.errors.iter().cloned());

    // ---- oracle: novel-query sample, ledger and prices --------------------
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5341_4d50);
    let mut distinct: Vec<(u32, u64)> = tally.served_sample.iter().map(|(&q, &c)| (q, c)).collect();
    for _ in 0..cfg.scale.sample().min(distinct.len()) {
        let (q, cents) = distinct.swap_remove(rng.gen_range(0..distinct.len()));
        let want = cold_cents(&reference, &fx.queries[q as usize])?;
        if cents != want {
            errors.push(format!(
                "`{}` was served at {cents}¢, cold price is {want}¢",
                fx.queries[q as usize]
            ));
        }
    }
    let acked_purchases = tally.acked_purchases;
    errors.extend(check_ledger(&dm, fx, &mut tally, &mut seller));

    // ---- traced replay ---------------------------------------------------
    let replayed = if cfg.trace {
        let mut spans = SpanLog::default();
        let r = layers::replay(&dm, fx, &tally.spans, cfg.scale.replay(), &mut spans);
        let dir = cfg.out.join("trace");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.jsonl", fx.name));
        std::fs::write(&path, spans.text())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Some(r)
    } else {
        None
    };

    // ---- closing phase: reopens, the reference and a set-up, in turn ----
    // A round times the reference computation right before and after its
    // cold reopens, so both meet the machine at one speed (see
    // [`reference`]); `recovery_refs` is their ratio's median over the
    // rounds, which span the whole phase.
    dm.sync().map_err(|e| format!("sync: {e}"))?;
    let fp = fingerprint(dm.market());
    drop(dm);
    let mut recovery_s = Vec::new();
    let reopened = reopen(&open_dir, &mut recovery_s)?;
    if fingerprint(reopened.market()) != fp {
        errors.push("the cold-reopened market differs from the one that served".to_string());
    }
    let recovered = reopened.market().sales() as u64;
    if recovered != acked_purchases {
        errors.push(format!(
            "{acked_purchases} purchases were acknowledged, {recovered} survived a cold reopen"
        ));
    }
    drop(reopened);
    let late_dir = run_dir.join("setup");
    let (mut reference_s, mut recovery_refs) = (Vec::new(), Vec::new());
    batch(cfg.scale, Duration::from_secs_f64(phases.closing), || {
        let (reopens, passes) = (recovery_s.len(), reference_s.len());
        let mut time_passes = || {
            batch(cfg.scale, REFERENCE_ROUND, || {
                reference_s.push(reference::wall_s());
                Ok(())
            })
        };
        time_passes()?;
        batch(cfg.scale, REOPEN_ROUND, || {
            reopen(&open_dir, &mut recovery_s).map(drop)
        })?;
        time_passes()?;
        if let (Some(r), Some(p)) = (
            report::median(&recovery_s[reopens..]),
            report::median(&reference_s[passes..]),
        ) {
            recovery_refs.push(r / p);
        }
        setup(fx, &late_dir, &mut setup_s).map(drop)
    })?;

    // ---- metrics ---------------------------------------------------------
    let delta = Delta {
        a: &before,
        b: &after,
    };
    let open_s = phases.open;
    let quotes = tally.quotes.pooled();
    let n_quotes = quotes.count();
    let n_purchases = tally.purchases.pooled().count();
    let n_revisions = seller.open.pooled().count();
    let quote_p50 = tally.quotes.quantile_us(0.5, open_s);
    let tail = quotes.tail();
    let rps_windows = ((phases.saturation / RPS_WINDOW_S) as usize).max(1);
    let rates: Vec<f64> = (0..rps_windows)
        .map(|w| tally.sat_done.get(w).copied().unwrap_or(0) as f64 / RPS_WINDOW_S)
        .collect();
    let attempted = tally.attempted + seller.attempted;
    let failed = tally.failed + seller.failed;
    let service_p50 = delta.quantile(Hst::ServeQuoteLatencyUs, 0.5);
    let service_n = delta.count(Hst::ServeQuoteLatencyUs);
    let (hits, misses) = (
        delta.ctr(Ctr::MarketCacheHits),
        delta.ctr(Ctr::MarketCacheMisses),
    );
    let hit_ratio = Delta::ratio(hits, hits + misses);
    let invalidations = delta.ctr(Ctr::MarketInvalidations);
    let (cold, warm) = (
        delta.ctr(Ctr::FlowSolvesCold),
        delta.ctr(Ctr::FlowSolvesWarm),
    );
    let appends = delta.ctr(Ctr::StoreWalAppends);
    let fsyncs = delta.count(Hst::WalFsyncUs);
    let wall = after.at.duration_since(before.at).as_secs_f64();
    // CPU the market and server spent: the process's, less the load
    // generator's own thread and the reference sampler's.
    let served_cpu_s =
        (after.cpu_s - before.cpu_s) - (after.load_cpu_s - before.load_cpu_s) - refs.thread_cpu_s;
    let ops = n_quotes + n_purchases + n_revisions;
    let cpu_per_op_s = served_cpu_s / ops.max(1) as f64;
    let pass_cpu_s = report::median(&refs.pass_cpu_s).unwrap_or(0.0);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let quartile = |v: &[f64], lower| report::better_quartile(v, lower).unwrap_or(0.0);
    let n = |v: &[f64]| v.len() as u64;
    let count = |c: Ctr| delta.ctr(c) as f64;
    let mut rows: Vec<(&str, &'static str, f64, u64)> = vec![
        (
            "cpu_per_op_refs",
            "ref",
            if pass_cpu_s > 0.0 {
                cpu_per_op_s / pass_cpu_s
            } else {
                0.0
            },
            ops,
        ),
        (
            "setup_s",
            "s",
            report::median(&setup_s).unwrap_or(0.0),
            n(&setup_s),
        ),
        (
            "recovery_refs",
            "ref",
            report::median(&recovery_refs).unwrap_or(0.0),
            n(&recovery_refs),
        ),
        // Per-layer metrics from here on.
        (
            "peak_rss_mb",
            "MiB",
            crate::sys::peak_rss_mib().unwrap_or(0.0),
            1,
        ),
        ("cpu_us_per_op", "us", cpu_per_op_s * 1e6, ops),
        (
            "recovery_s",
            "s",
            quartile(&recovery_s, true),
            n(&recovery_s),
        ),
        (
            "ref.open_cpu_us",
            "us",
            pass_cpu_s * 1e6,
            n(&refs.pass_cpu_s),
        ),
        (
            "ref.closing_us",
            "us",
            report::median(&reference_s).unwrap_or(0.0) * 1e6,
            n(&reference_s),
        ),
        ("quote_p50_us", "us", quote_p50, n_quotes),
        (
            "quote_p99_us",
            "us",
            tally.quotes.quantile_us(0.99, open_s),
            n_quotes,
        ),
        ("max_rps", "1/s", quartile(&rates, false), n(&rates)),
        (
            "quote_tail_us",
            "us",
            tail.map_or(0.0, |t| t.value / 1e3),
            n_quotes,
        ),
        (
            "purchase_p50_us",
            "us",
            tally.purchases.quantile_us(0.5, open_s),
            n_purchases,
        ),
        (
            "purchase_p99_us",
            "us",
            tally.purchases.quantile_us(0.99, open_s),
            n_purchases,
        ),
        (
            "revise_p50_us",
            "us",
            seller.open.quantile_us(0.5, open_s),
            n_revisions,
        ),
        (
            "revise_p99_us",
            "us",
            seller.open.quantile_us(0.99, open_s),
            n_revisions,
        ),
        (
            "failed_ratio",
            "ratio",
            Delta::ratio(failed, attempted),
            attempted,
        ),
        ("serve.service_p50_us", "us", service_p50, service_n),
        (
            "serve.service_p99_us",
            "us",
            delta.quantile(Hst::ServeQuoteLatencyUs, 0.99),
            service_n,
        ),
        (
            "serve.purchase_service_p50_us",
            "us",
            delta.quantile(Hst::ServePurchaseLatencyUs, 0.5),
            delta.count(Hst::ServePurchaseLatencyUs),
        ),
        // Signed: the service histogram's log₂ buckets can put its p50 a
        // little above the client's.
        ("serve.wait_p50_us", "us", quote_p50 - service_p50, n_quotes),
        (
            "serve.response_bytes",
            "bytes",
            tally.quote_bytes.quantile(0.5).unwrap_or(0.0),
            tally.quote_bytes.count(),
        ),
        ("market.cache_hit_ratio", "ratio", hit_ratio, hits + misses),
        (
            "market.columns_per_revision",
            "count",
            Delta::ratio(delta.ctr(Ctr::MarketColumnsInvalidated), invalidations),
            invalidations,
        ),
        ("market.cached_quotes", "count", after.cached as f64, 1),
        (
            "market.cached_quotes_growth",
            "count",
            after.cached as f64 - before.cached as f64,
            1,
        ),
        (
            "market.admission_rejects",
            "count",
            count(Ctr::MarketAdmissionRejects),
            1,
        ),
        (
            "core.plan_hits",
            "count",
            after.plan.hits.wrapping_sub(before.plan.hits) as f64,
            1,
        ),
        (
            "core.plan_warm_reprices",
            "count",
            after
                .plan
                .warm_reprices
                .wrapping_sub(before.plan.warm_reprices) as f64,
            1,
        ),
        (
            "flow.cold_solves_per_miss",
            "ratio",
            Delta::ratio(cold, misses),
            misses,
        ),
        ("flow.warm_solves", "count", warm as f64, 1),
        (
            "flow.warm_fallbacks",
            "count",
            count(Ctr::FlowWarmFallbacks),
            1,
        ),
        (
            "flow.fuel_per_solve",
            "count",
            Delta::ratio(delta.ctr(Ctr::FlowFuelSpent), cold + warm),
            cold + warm,
        ),
        ("store.wal_writes", "count", appends as f64, 1),
        (
            "store.wal_append_p50_us",
            "us",
            delta.quantile(Hst::WalAppendUs, 0.5),
            delta.count(Hst::WalAppendUs),
        ),
        (
            "store.fsync_p50_us",
            "us",
            delta.quantile(Hst::WalFsyncUs, 0.5),
            fsyncs,
        ),
        (
            "store.fsync_p99_us",
            "us",
            delta.quantile(Hst::WalFsyncUs, 0.99),
            fsyncs,
        ),
        (
            "store.fsyncs_per_write",
            "ratio",
            Delta::ratio(fsyncs, appends),
            appends,
        ),
        (
            "store.wal_bytes_per_write",
            "bytes",
            Delta::ratio(after.wal_pos.saturating_sub(before.wal_pos), appends),
            appends,
        ),
        (
            "gen.late_p99_us",
            "us",
            open_stats.late_ns.quantile(0.99).unwrap_or(0.0) / 1e3,
            open_stats.late_ns.count(),
        ),
        ("gen.backlog_end", "count", open_stats.backlog_end as f64, 1),
        (
            "gen.cpu_util",
            "ratio",
            Delta::ratio(sat_stats.busy_ns, sat_stats.wall_ns),
            1,
        ),
        (
            "proc.cpu_util",
            "ratio",
            (after.cpu_s - before.cpu_s) / (wall * nproc).max(1e-9),
            1,
        ),
    ];
    if let Some(r) = &replayed {
        let p50 = layers::p50;
        let (http, json, hit) = (p50(&r.http_parse), p50(&r.json_encode), p50(&r.hit));
        let (parse, render) = (p50(&r.parse), p50(&r.render));
        let cold_sorted = report::sort(r.price_cold.clone());
        let cold_p50 = report::percentile(&cold_sorted, 0.5).unwrap_or(0.0);
        let cold_p99 = report::percentile(&cold_sorted, 0.99).unwrap_or(0.0);
        let traced = tally.quotes_traced.quantile(0.5).unwrap_or(0.0);
        let untraced = tally.quotes_untraced.quantile(0.5).unwrap_or(0.0);
        let overhead = if untraced > 0.0 {
            (traced - untraced) / untraced * 100.0
        } else {
            0.0
        };
        // The request at the median takes the hit path when most lookups
        // hit, else the miss path.
        let path = if hit_ratio >= 0.5 {
            http + hit + json
        } else {
            http + parse + render + cold_p50 + json
        };
        rows.extend([
            ("serve.http_parse_us", "us", http, n(&r.http_parse)),
            ("serve.json_encode_us", "us", json, n(&r.json_encode)),
            ("market.hit_us", "us", hit, n(&r.hit)),
            ("query.parse_us", "us", parse, n(&r.parse)),
            ("query.render_us", "us", render, n(&r.render)),
            ("query.eval_us", "us", p50(&r.eval), n(&r.eval)),
            ("core.price_cold_p50_us", "us", cold_p50, n(&cold_sorted)),
            ("core.price_cold_p99_us", "us", cold_p99, n(&cold_sorted)),
            (
                "trace.overhead_pct",
                "%",
                overhead,
                tally.quotes_traced.count(),
            ),
            ("trace.unattributed_us", "us", quote_p50 - path, n_quotes),
        ]);
    }
    let metrics: Vec<Metric> = rows
        .into_iter()
        .map(|(name, unit, value, samples)| Metric {
            name: name.to_string(),
            unit,
            value,
            samples: samples as usize,
        })
        .collect();

    let correct = errors.is_empty();
    let mut footer = format!(
        "attempted {attempted}, failed {failed}; open loop {n_quotes} quotes, {n_purchases} purchases ({:.1}%), {n_revisions} revisions",
        Delta::ratio(n_purchases, n_quotes + n_purchases) * 100.0
    );
    if !tally.refusals.is_empty() {
        let _ = write!(
            footer,
            "; failed by status {:?} (0 = transport)",
            tally.refusals
        );
    }
    footer.push_str(if correct {
        "; oracle passed"
    } else {
        "; oracle FAILED"
    });
    let table = render_table(cfg, &metrics, tail, backend, &footer);
    Ok(Outcome {
        result: RunResult {
            workload: fx.name.to_string(),
            seed: cfg.seed,
            correct,
            attempted,
            failed,
            metrics,
        },
        errors,
        table,
    })
}

/// Sets its flag when dropped, however the scope holding it ends.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicked seller thread is reported by its join; its record of
    // revisions stays valid at every step.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn render_table(
    cfg: &Config,
    metrics: &[Metric],
    tail: Option<report::Tail>,
    backend: &str,
    footer: &str,
) -> String {
    let mut t = String::new();
    let _ = writeln!(
        t,
        "qbench {} seed {} ({} s, {} scale, {backend}, nproc {}); * = end-to-end",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.scale.name(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for m in metrics {
        let gated = END_TO_END.contains(&m.name.as_str());
        let label = match (m.name.as_str(), tail) {
            ("quote_tail_us", Some(t)) => format!("quote_tail_us ({})", t.label()),
            _ => m.name.clone(),
        };
        let _ = writeln!(
            t,
            "  {} {label:<34} {:>14.3} {:<6} n={}",
            if gated { "*" } else { " " },
            m.value,
            m.unit,
            m.samples
        );
    }
    let _ = writeln!(t, "  {footer}");
    t
}
