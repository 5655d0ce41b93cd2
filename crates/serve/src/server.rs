//! The event loop: accept, parse, batch-price, respond.
//!
//! Single-threaded readiness loop over [`crate::sys::Poller`];
//! parallelism comes from the market itself — every tick gathers the
//! complete `/quote` requests across **all** connections and prices
//! them in one [`qbdp_market::Market::quote_batch`] call, so the existing scoped
//! worker pool (and the sharded quote cache in front of it) does the
//! fan-out. Pipelined clients therefore get batching for free: depth-64
//! pipelining means 64 queries per batch without any server-side
//! heuristics.
//!
//! Admission is layered: the poller's connection table is capped at
//! [`ServerConfig::max_conns`] (excess accepts get an immediate 503 +
//! close), and per-request admission rides the market's own
//! `MarketPolicy::max_in_flight` (an over-deep batch surfaces
//! `MarketError::Overloaded`, mapped to 429). Backpressure is
//! byte-level: a connection whose response buffer crosses
//! [`crate::conn::OUT_HIGH_WATER`] stops being read until the peer
//! drains, which level-triggered readiness makes automatic.
//!
//! Graceful shutdown ([`ShutdownFlag`]) stops accepting, prices every
//! request that is already fully buffered (the in-flight drain),
//! flushes each connection's responses under a drain deadline, and
//! returns — the caller then syncs/snapshots the durable market.

use crate::conn::{Conn, OUT_HIGH_WATER};
use crate::http::{self, Limits, Method, Request, Step};
use crate::json;
use crate::sys::{self, Event, Interest, Poller, PollerConfig};
use qbdp_market::{MarketHealth, MarketOps};
use qbdp_obs::{Ctr, Gauge, Hst, Stopwatch};
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The listener's poller token; connections start at 1.
const LISTENER_TOKEN: u64 = 0;

/// Poller wait quantum: shutdown and idle sweeps run at least this
/// often even on a silent socket set.
const TICK_MS: i32 = 100;

/// Most pipelined requests pulled from one connection per tick; the
/// rest stay buffered for the next tick so one hot pipeliner cannot
/// starve the table.
const MAX_PIPELINE: usize = 1024;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral port).
    pub addr: String,
    /// Connection-table cap; accepts beyond it get 503 + close.
    pub max_conns: usize,
    /// Idle connections are closed after this long without traffic.
    pub idle_timeout: Duration,
    /// How long graceful shutdown keeps flushing responses.
    pub drain_timeout: Duration,
    /// HTTP size caps.
    pub limits: Limits,
    /// Pin the portable `poll(2)` backend (tests).
    pub force_poll: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 1024,
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            force_poll: false,
        }
    }
}

/// A cloneable stop request: flip it from any thread (or let a SIGTERM/
/// SIGINT flip the process-global latch when built
/// [`ShutdownFlag::with_signals`]).
#[derive(Clone)]
pub struct ShutdownFlag {
    flag: Arc<AtomicBool>,
    follow_signals: bool,
}

impl Default for ShutdownFlag {
    fn default() -> ShutdownFlag {
        ShutdownFlag::new()
    }
}

impl ShutdownFlag {
    /// A flag only [`ShutdownFlag::request`] can set (tests, embedders).
    pub fn new() -> ShutdownFlag {
        ShutdownFlag {
            flag: Arc::new(AtomicBool::new(false)),
            follow_signals: false,
        }
    }

    /// A flag that also honors SIGINT/SIGTERM (installs the handlers).
    pub fn with_signals() -> io::Result<ShutdownFlag> {
        sys::install_shutdown_signals()?;
        Ok(ShutdownFlag {
            flag: Arc::new(AtomicBool::new(false)),
            follow_signals: true,
        })
    }

    /// Ask the server to drain and stop.
    pub fn request(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has anyone (caller or signal) asked for shutdown?
    pub fn requested(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || (self.follow_signals && sys::signal_pending())
    }
}

/// What one [`Server::run`] served, returned after the drain.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Connections accepted into the table.
    pub conns_accepted: u64,
    /// Accepts refused 503 at the connection cap.
    pub conns_rejected: u64,
    /// Complete HTTP requests handled.
    pub requests: u64,
    /// Individual queries priced via `/quote` (lines, not requests).
    pub quotes: u64,
    /// Completed `/purchase` transactions.
    pub purchases: u64,
    /// Framing errors answered 400/413.
    pub http_errors: u64,
    /// Which readiness backend ran (`"epoll"` / `"poll"`).
    pub backend: &'static str,
}

/// Serving-layer failure (the listener or poller died; per-connection
/// I/O errors just close that connection).
#[derive(Debug)]
pub enum ServeError {
    /// Listener/poller-level I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// One response, computed or deferred to the tick's quote batch.
enum Deferred {
    Done {
        status: u16,
        reason: &'static str,
        ctype: &'static str,
        body: Vec<u8>,
    },
    QuoteRange {
        start: usize,
        count: usize,
    },
}

/// Bookkeeping for one request between parse and response emission.
struct Slot {
    token: u64,
    keep_alive: bool,
    hist: Hst,
    t0: Stopwatch,
    deferred: Deferred,
}

fn done(status: u16, reason: &'static str, body: String) -> Deferred {
    Deferred::Done {
        status,
        reason,
        ctype: "application/json",
        body: body.into_bytes(),
    }
}

fn bad_request(msg: &str) -> Deferred {
    let mut body = String::from("{\"error\":{\"kind\":\"http\",\"message\":");
    json::push_str_lit(&mut body, msg);
    body.push_str("}}");
    done(400, "Bad Request", body)
}

/// The non-blocking HTTP/1.1 quote server.
pub struct Server {
    listener: TcpListener,
    local: SocketAddr,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    cfg: ServerConfig,
    stats: ServeStats,
}

impl Server {
    /// Bind the listener and open the poller. The socket is live (a
    /// client can connect) but nothing is served until [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let mut poller = Poller::new(PollerConfig {
            force_poll: cfg.force_poll,
        })?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::Read)?;
        let backend = poller.backend_name();
        Ok(Server {
            listener,
            local,
            poller,
            conns: HashMap::new(),
            next_token: 1,
            cfg,
            stats: ServeStats {
                backend,
                ..ServeStats::default()
            },
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The live readiness backend (`"epoll"` / `"poll"`).
    pub fn backend(&self) -> &'static str {
        self.stats.backend
    }

    /// Serve until `shutdown` is requested, then drain and return the
    /// run's stats. All pricing goes through `ops` — a `&dyn MarketOps`,
    /// so plain and durable markets share this code path.
    pub fn run(
        &mut self,
        ops: &dyn MarketOps,
        shutdown: &ShutdownFlag,
    ) -> Result<ServeStats, ServeError> {
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; 16 * 1024];
        let mut last_sweep = Instant::now();
        // audit: bounded(runs until a shutdown request; one iteration per readiness wakeup)
        loop {
            if shutdown.requested() {
                break;
            }
            self.poller.wait(&mut events, TICK_MS)?;
            let now = Instant::now();
            let mut touched: Vec<u64> = Vec::new();
            let mut dead: Vec<u64> = Vec::new();
            // audit: bounded(one pass over this wakeup's readiness events)
            for &ev in events.iter() {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready(now);
                    continue;
                }
                let Some(c) = self.conns.get_mut(&ev.token) else {
                    continue;
                };
                if ev.hangup {
                    c.read_closed = true;
                }
                let mut broken = false;
                if ev.readable && c.pending_out() < OUT_HIGH_WATER {
                    broken |= c.read_available(&mut scratch, now).is_err();
                }
                if ev.writable && !broken {
                    broken |= c.flush(now).is_err();
                }
                if broken {
                    dead.push(ev.token);
                } else {
                    touched.push(ev.token);
                }
            }
            // audit: bounded(one pass over this tick's broken connections)
            for tok in dead {
                self.close_conn(tok);
            }

            let pending = self.harvest(&touched);
            let with_output = self.handle_requests(ops, pending);
            self.settle(&touched, &with_output, now);

            if now.duration_since(last_sweep) >= Duration::from_secs(1) {
                last_sweep = now;
                self.sweep_idle(now);
            }
        }
        self.drain(ops)?;
        Ok(self.stats.clone())
    }

    /// Accept everything queued on the listener.
    fn accept_ready(&mut self, now: Instant) {
        // audit: bounded(accepts drain the listen backlog and stop at WouldBlock)
        loop {
            match self.listener.accept() {
                Ok((mut s, _peer)) => {
                    if self.conns.len() >= self.cfg.max_conns {
                        self.stats.conns_rejected += 1;
                        qbdp_obs::record(Ctr::ServeConnsRejected, 1);
                        let mut buf = Vec::new();
                        http::write_response(
                            &mut buf,
                            503,
                            "Service Unavailable",
                            "application/json",
                            b"{\"error\":{\"kind\":\"capacity\",\"message\":\"connection limit reached\"}}",
                            false,
                        );
                        #[expect(
                            clippy::let_underscore_must_use,
                            reason = "best-effort 503 notice to a rejected conn; the close is the \
                                      real backpressure, and retrying would hold the accept loop"
                        )]
                        let _ = s.write(&buf);
                        continue;
                    }
                    if s.set_nonblocking(true).is_err() {
                        continue;
                    }
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "Nagle off is latency tuning; the connection works without it"
                    )]
                    let _ = s.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(s.as_raw_fd(), token, Interest::Read)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(s, self.cfg.limits, now));
                    self.stats.conns_accepted += 1;
                    qbdp_obs::record(Ctr::ServeConnsAccepted, 1);
                    qbdp_obs::record_gauge(Gauge::ServeOpenConns, self.conns.len() as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // ECONNABORTED and friends: the connection died in the
                // backlog; keep accepting the rest.
                Err(_) => break,
            }
        }
    }

    /// Pull complete requests from the touched connections, answering
    /// framing errors inline.
    fn harvest(&mut self, touched: &[u64]) -> Vec<(u64, Box<Request>)> {
        let mut pending = Vec::new();
        // audit: bounded(one pass over this tick's touched connections)
        for &tok in touched {
            let Some(c) = self.conns.get_mut(&tok) else {
                continue;
            };
            // audit: bounded(at most MAX_PIPELINE requests pulled per connection per tick)
            for _ in 0..MAX_PIPELINE {
                match c.parser.next_request() {
                    Step::NeedMore => break,
                    Step::Ready(r) => pending.push((tok, r)),
                    Step::Fail(e) => {
                        self.stats.http_errors += 1;
                        qbdp_obs::record(Ctr::ServeHttpErrors, 1);
                        let reason = match e.status {
                            413 => "Payload Too Large",
                            _ => "Bad Request",
                        };
                        let mut body = String::from("{\"error\":{\"kind\":\"http\",\"message\":");
                        json::push_str_lit(&mut body, e.reason);
                        body.push_str("}}");
                        http::write_response(
                            &mut c.outbuf,
                            e.status,
                            reason,
                            "application/json",
                            body.as_bytes(),
                            false,
                        );
                        c.close_after_flush = true;
                        break;
                    }
                }
            }
        }
        pending
    }

    /// Route and answer a tick's worth of requests; all `/quote` lines
    /// across all connections are priced in one `quote_batch` call.
    /// Returns the tokens that received output.
    fn handle_requests(
        &mut self,
        ops: &dyn MarketOps,
        pending: Vec<(u64, Box<Request>)>,
    ) -> Vec<u64> {
        if pending.is_empty() {
            return Vec::new();
        }
        let mut lines: Vec<String> = Vec::new();
        let mut slots: Vec<Slot> = Vec::new();
        // audit: bounded(one pass over this tick's parsed requests)
        for (token, req) in pending {
            self.stats.requests += 1;
            qbdp_obs::record(Ctr::ServeRequests, 1);
            let t0 = Stopwatch::start();
            let path = req
                .target
                .split_once('?')
                .map_or(req.target.as_str(), |(p, _)| p);
            let mut hist = Hst::ServeAdminLatencyUs;
            let deferred = match path {
                "/quote" if req.method == Method::Post => {
                    hist = Hst::ServeQuoteLatencyUs;
                    match body_lines(&req.body) {
                        Err(msg) => bad_request(msg),
                        Ok(ls) if ls.is_empty() => {
                            bad_request("empty quote body: send one datalog rule per line")
                        }
                        Ok(ls) => {
                            let start = lines.len();
                            let count = ls.len();
                            lines.extend(ls);
                            Deferred::QuoteRange { start, count }
                        }
                    }
                }
                "/purchase" if req.method == Method::Post => {
                    hist = Hst::ServePurchaseLatencyUs;
                    match single_line(&req.body) {
                        Err(msg) => bad_request(msg),
                        Ok(q) => match ops.purchase_str(&q) {
                            Ok(p) => {
                                self.stats.purchases += 1;
                                done(200, "OK", json::purchase(&p))
                            }
                            Err(e) => {
                                let (status, reason) = json::status(&e);
                                done(status, reason, json::error(&e))
                            }
                        },
                    }
                }
                "/metrics" if req.method == Method::Get => Deferred::Done {
                    status: 200,
                    reason: "OK",
                    ctype: "text/plain; version=0.0.4",
                    body: ops.metrics_snapshot().into_bytes(),
                },
                "/health" if req.method == Method::Get => {
                    let h = ops.health();
                    let (status, reason) = match h {
                        MarketHealth::Healthy => (200, "OK"),
                        MarketHealth::ReadOnly { .. } => (503, "Service Unavailable"),
                    };
                    done(status, reason, json::health(&h))
                }
                "/quote" | "/purchase" | "/metrics" | "/health" => done(
                    405,
                    "Method Not Allowed",
                    "{\"error\":{\"kind\":\"http\",\"message\":\"method not allowed\"}}"
                        .to_string(),
                ),
                _ => done(
                    404,
                    "Not Found",
                    "{\"error\":{\"kind\":\"http\",\"message\":\"no such endpoint\"}}".to_string(),
                ),
            };
            slots.push(Slot {
                token,
                keep_alive: req.keep_alive,
                hist,
                t0,
                deferred,
            });
        }

        // One batch prices every quote line this tick gathered, across
        // all connections: the market's worker pool and sharded cache
        // do the actual fan-out.
        let results = if lines.is_empty() {
            Vec::new()
        } else {
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            ops.base().quote_batch(&refs)
        };

        let mut with_output = Vec::with_capacity(slots.len());
        // audit: bounded(one pass over this tick's request slots)
        for slot in slots {
            let (status, reason, ctype, body) = match slot.deferred {
                Deferred::Done {
                    status,
                    reason,
                    ctype,
                    body,
                } => (status, reason, ctype, body),
                Deferred::QuoteRange { start, count } => {
                    self.stats.quotes += count as u64;
                    let span = &results[start..start + count];
                    if count == 1 {
                        match &span[0] {
                            Ok(q) => (200, "OK", "application/json", json::quote(q).into_bytes()),
                            Err(e) => {
                                let (status, reason) = json::status(e);
                                (
                                    status,
                                    reason,
                                    "application/json",
                                    json::error(e).into_bytes(),
                                )
                            }
                        }
                    } else {
                        let mut body = String::from("{\"quotes\":[");
                        // audit: bounded(one pass over this request's quote slots)
                        for (i, r) in span.iter().enumerate() {
                            if i > 0 {
                                body.push(',');
                            }
                            match r {
                                Ok(q) => body.push_str(&json::quote(q)),
                                Err(e) => body.push_str(&json::error(e)),
                            }
                        }
                        body.push_str("]}");
                        (200, "OK", "application/json", body.into_bytes())
                    }
                }
            };
            let Some(c) = self.conns.get_mut(&slot.token) else {
                continue;
            };
            http::write_response(&mut c.outbuf, status, reason, ctype, &body, slot.keep_alive);
            if !slot.keep_alive {
                c.close_after_flush = true;
            }
            with_output.push(slot.token);
            // Slow quotes and purchases reach the flight recorder from
            // the market, with their span trees; the server only times.
            if let Some(us) = slot.t0.elapsed_us() {
                qbdp_obs::record_hist(slot.hist, us);
            }
        }
        with_output
    }

    /// Flush opportunistically, retire finished connections, and keep
    /// each survivor's write-interest in sync with its buffer.
    fn settle(&mut self, touched: &[u64], with_output: &[u64], now: Instant) {
        let mut seen: Vec<u64> = Vec::new();
        let mut to_close: Vec<u64> = Vec::new();
        // audit: bounded(one pass over this tick's touched + responded connections)
        for &tok in touched.iter().chain(with_output.iter()) {
            if seen.contains(&tok) {
                continue;
            }
            seen.push(tok);
            let Some(c) = self.conns.get_mut(&tok) else {
                continue;
            };
            let drained = match c.flush(now) {
                Ok(d) => d,
                Err(_) => {
                    to_close.push(tok);
                    continue;
                }
            };
            if drained && (c.close_after_flush || c.read_closed) {
                to_close.push(tok);
                continue;
            }
            let want_write = !drained;
            if want_write != c.watching_write {
                c.watching_write = want_write;
                let interest = if want_write {
                    Interest::ReadWrite
                } else {
                    Interest::Read
                };
                if self
                    .poller
                    .modify(c.stream.as_raw_fd(), tok, interest)
                    .is_err()
                {
                    to_close.push(tok);
                }
            }
        }
        // audit: bounded(one pass over this tick's finished connections)
        for tok in to_close {
            self.close_conn(tok);
        }
    }

    /// Close connections idle past the configured timeout.
    fn sweep_idle(&mut self, now: Instant) {
        let timeout = self.cfg.idle_timeout;
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| now.duration_since(c.last_activity) > timeout)
            .map(|(&tok, _)| tok)
            .collect();
        // audit: bounded(one pass over the idle subset of the connection table)
        for tok in stale {
            self.close_conn(tok);
        }
    }

    /// Deregister and drop one connection.
    fn close_conn(&mut self, token: u64) {
        if let Some(c) = self.conns.remove(&token) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "dropping the stream closes the fd, which leaves the poller either way"
            )]
            let _ = self.poller.deregister(c.stream.as_raw_fd());
            qbdp_obs::record_gauge(Gauge::ServeOpenConns, self.conns.len() as u64);
        }
    }

    /// Graceful shutdown: stop accepting, price every fully-buffered
    /// request, flush responses under the drain deadline, close.
    fn drain(&mut self, ops: &dyn MarketOps) -> Result<(), ServeError> {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "drain never accepts, so a listener left registered only costs a wakeup"
        )]
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        // Price what's already complete in the parse buffers: these are
        // the in-flight requests the shutdown contract promises to
        // answer.
        let all: Vec<u64> = self.conns.keys().copied().collect();
        let pending = self.harvest(&all);
        let _ = self.handle_requests(ops, pending);
        // Everything closes once flushed; half-received requests get a
        // clean close (the client resubmits elsewhere).
        // audit: bounded(one pass over the connection table)
        for c in self.conns.values_mut() {
            c.close_after_flush = true;
        }
        let deadline = Instant::now() + self.cfg.drain_timeout;
        let mut events: Vec<Event> = Vec::new();
        // audit: bounded(flush rounds stop at the drain deadline or an empty table)
        while !self.conns.is_empty() && Instant::now() < deadline {
            let now = Instant::now();
            let mut to_close: Vec<u64> = Vec::new();
            // audit: bounded(one pass over the remaining connection table)
            for (&tok, c) in self.conns.iter_mut() {
                match c.flush(now) {
                    Ok(true) => to_close.push(tok),
                    Ok(false) => {
                        if !c.watching_write {
                            c.watching_write = true;
                            // Without write interest the rest of the
                            // response would never be flushed.
                            if self
                                .poller
                                .modify(c.stream.as_raw_fd(), tok, Interest::ReadWrite)
                                .is_err()
                            {
                                to_close.push(tok);
                            }
                        }
                    }
                    Err(_) => to_close.push(tok),
                }
            }
            // audit: bounded(one pass over this round's finished connections)
            for tok in to_close {
                self.close_conn(tok);
            }
            if self.conns.is_empty() {
                break;
            }
            self.poller.wait(&mut events, 50)?;
        }
        let leftover: Vec<u64> = self.conns.keys().copied().collect();
        // audit: bounded(one pass over connections that outlived the drain deadline)
        for tok in leftover {
            self.close_conn(tok);
        }
        qbdp_obs::record_gauge(Gauge::ServeOpenConns, 0);
        Ok(())
    }
}

/// Split a `/quote` body into datalog lines (one query per line).
fn body_lines(body: &[u8]) -> Result<Vec<String>, &'static str> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// A `/purchase` body: exactly one non-empty line.
fn single_line(body: &[u8]) -> Result<String, &'static str> {
    let mut lines = body_lines(body)?;
    match lines.len() {
        0 => Err("empty purchase body: send one datalog rule"),
        1 => Ok(lines.swap_remove(0)),
        _ => Err("one query per purchase; batch quoting is POST /quote"),
    }
}
