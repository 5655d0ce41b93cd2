//! End-to-end serving tests: real sockets, real markets, both poller
//! backends, panic containment on the served path, and the
//! graceful-shutdown recovery-equivalence guarantee: a drained server's
//! durable state must fingerprint-match a cold reopen of the same
//! directory — no acked purchase lost.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp_market::{fingerprint, DurableMarket, Market, MarketOps, MarketPolicy};
use qbdp_obs::flight::{self, Why};
use qbdp_serve::{sys, ResponseParser, Server, ServerConfig, ShutdownFlag};
use qbdp_store::FsyncPolicy;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{PoisonError, RwLock};
use std::time::Duration;

const FIG1_QDP: &str = include_str!("../../../data/figure1.qdp");

/// The injected engine panic is process-wide and one-shot: tests that
/// price hold this shared, and the test that arms the trap holds it
/// exclusively, so no other test's quote can trip it.
static ENGINE: RwLock<()> = RwLock::new(());

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qbdp-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One request/response exchange on a fresh connection.
fn exchange(addr: SocketAddr, req: &[u8]) -> (u16, String) {
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.write_all(req).unwrap();
    let _ = c.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    let _ = c.read_to_end(&mut raw);
    let mut rp = ResponseParser::new();
    rp.feed(&raw);
    let r = rp.next_response().expect("one full response");
    (r.status, String::from_utf8_lossy(&r.body).into_owned())
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Serve `ops` on an ephemeral port, run `body`, request shutdown, and
/// return the drained server's stats.
fn serve(
    ops: &dyn MarketOps,
    force_poll: bool,
    body: impl FnOnce(SocketAddr) + Send,
) -> qbdp_serve::ServeStats {
    let _engine = ENGINE.read().unwrap_or_else(PoisonError::into_inner);
    serve_exclusive(ops, force_poll, body)
}

/// [`serve`] for a caller already holding [`ENGINE`].
fn serve_exclusive(
    ops: &dyn MarketOps,
    force_poll: bool,
    body: impl FnOnce(SocketAddr) + Send,
) -> qbdp_serve::ServeStats {
    let mut server = Server::bind(ServerConfig {
        force_poll,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let shutdown = ShutdownFlag::new();
    let stopper = shutdown.clone();
    std::thread::scope(|s| {
        let h = s.spawn(move || server.run(ops, &shutdown));
        body(addr);
        stopper.request();
        h.join().unwrap().unwrap()
    })
}

fn roundtrip_on(force_poll: bool) {
    let market = Market::open_qdp(FIG1_QDP).unwrap();
    let stats = serve(&market, force_poll, |addr| {
        let (st, body) = exchange(addr, &post("/quote", "Q(x) :- R(x)\n"));
        assert_eq!(st, 200, "{body}");
        assert!(body.contains("\"price_cents\":400"), "{body}");
        assert!(body.contains("\"quality\":\"exact\""), "{body}");

        // A batch of lines prices in one engine call, answers as one doc.
        let (st, body) = exchange(
            addr,
            &post(
                "/quote",
                "Q(x) :- R(x)\nQ(y) :- T(y)\nQ(x, y) :- R(x), S(x, y), T(y)\n",
            ),
        );
        assert_eq!(st, 200);
        assert!(body.starts_with("{\"quotes\":["), "{body}");
        assert_eq!(body.matches("\"price_cents\"").count(), 3, "{body}");

        // Unparsable datalog is a 400 with a structured error, not a hang.
        let (st, body) = exchange(addr, &post("/quote", "this is not datalog\n"));
        assert_eq!(st, 400, "{body}");
        assert!(body.contains("\"error\""), "{body}");

        let (st, body) = exchange(addr, &post("/purchase", "Q(x) :- R(x)"));
        assert_eq!(st, 200, "{body}");
        assert!(body.contains("\"transaction_id\":1"), "{body}");
        assert!(body.contains("\"answer\""), "{body}");

        let (st, _) = exchange(addr, &get("/health"));
        assert_eq!(st, 200);

        // Telemetry is policy-gated; this market never enabled it, but
        // the endpoint itself must still answer.
        let (st, _) = exchange(addr, &get("/metrics"));
        assert_eq!(st, 200);

        let (st, _) = exchange(addr, &get("/nope"));
        assert_eq!(st, 404);
        let (st, _) = exchange(addr, &get("/quote"));
        assert_eq!(st, 405);
    });
    assert_eq!(stats.quotes, 5);
    assert_eq!(stats.purchases, 1);
    assert_eq!(stats.backend, if force_poll { "poll" } else { "epoll" });
    assert_eq!(market.sales(), 1);
}

#[test]
fn quote_purchase_metrics_roundtrip_epoll() {
    roundtrip_on(false);
}

#[test]
fn quote_purchase_metrics_roundtrip_poll() {
    roundtrip_on(true);
}

#[test]
fn durable_market_serves_and_recovery_matches_the_drained_state() {
    let dir = temp_dir("recover");
    let fp_drained = {
        let dm = DurableMarket::create(&dir, FIG1_QDP, FsyncPolicy::EveryN(4)).unwrap();
        serve(&dm, false, |addr| {
            // Several acked purchases with an EveryN tail — exactly the
            // shape the satellite Drop-flush fix protects.
            for q in ["Q(x) :- R(x)", "Q(y) :- T(y)", "Q(x) :- R(x), S(x, y)"] {
                let (st, body) = exchange(addr, &post("/purchase", q));
                assert_eq!(st, 200, "{body}");
            }
            let (st, body) = exchange(addr, &post("/quote", "Q(x) :- R(x)\n"));
            assert_eq!(st, 200, "{body}");
        });
        dm.sync().unwrap();
        fingerprint(dm.market())
    };
    // Cold reopen: every acked purchase must have survived.
    let dm = DurableMarket::open(&dir, FsyncPolicy::Always).unwrap();
    assert_eq!(fingerprint(dm.market()), fp_drained);
    assert_eq!(dm.market().sales(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A market of `n` selections `S.X = v0 … v{n-1}`, one tuple each, so
/// every `Q(y) :- S('vI', y)` buys a view no other purchase touches.
fn selections_qdp(n: usize) -> String {
    let xs: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    let mut qdp = format!(
        "schema S(X, Y)\ncolumn S.X = {{{}}}\ncolumn S.Y = {{w}}\nprice S.Y=w 500\n",
        xs.join(", ")
    );
    for x in &xs {
        qdp.push_str(&format!("tuple S({x}, w)\nprice S.X={x} 100\n"));
    }
    qdp
}

/// Buy `Q(y) :- S('vI', y)` for I = 0, 1, … one at a time on one
/// keep-alive connection, raising a real SIGTERM before attempt
/// `raise_at`, until the draining server stops answering. Returns the
/// purchases acked over the wire.
fn buy_until_drained(addr: SocketAddr, attempts: usize, raise_at: usize) -> u64 {
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut rp = ResponseParser::new();
    let mut buf = [0u8; 4096];
    let mut acked = 0;
    for i in 0..attempts {
        if i == raise_at {
            sys::raise_signal(sys::SIGTERM).unwrap();
        }
        let q = format!("Q(y) :- S('v{i}', y)");
        let req = format!(
            "POST /purchase HTTP/1.1\r\nContent-Length: {}\r\n\r\n{q}",
            q.len()
        );
        if c.write_all(req.as_bytes()).is_err() {
            return acked; // drained: the server stopped reading
        }
        loop {
            match c.read(&mut buf) {
                Ok(0) | Err(_) => return acked, // drained mid-exchange: not acked
                Ok(n) => {
                    rp.feed(&buf[..n]);
                    if let Some(r) = rp.next_response() {
                        if r.status == 200 {
                            acked += 1;
                        }
                        break;
                    }
                }
            }
        }
    }
    acked
}

/// A real SIGTERM in the middle of a purchase stream drains the server
/// (`ShutdownFlag::with_signals`), and a cold reopen of its directory
/// keeps every purchase acked over the wire and fingerprint-matches the
/// drained state, including the `EveryN` tail the log flushes on close.
#[test]
fn sigterm_mid_purchase_stream_drains_and_recovery_keeps_every_ack() {
    const ATTEMPTS: usize = 64;
    sys::clear_signal();
    let dir = temp_dir("sigterm");
    let dm =
        DurableMarket::create(&dir, &selections_qdp(ATTEMPTS), FsyncPolicy::EveryN(8)).unwrap();
    let _engine = ENGINE.read().unwrap_or_else(PoisonError::into_inner);
    let mut server = Server::bind(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let shutdown = ShutdownFlag::with_signals().unwrap();
    let acked = std::thread::scope(|s| {
        let h = s.spawn(|| server.run(&dm, &shutdown));
        let acked = buy_until_drained(addr, ATTEMPTS, ATTEMPTS / 4);
        h.join().unwrap().unwrap();
        acked
    });
    sys::clear_signal();
    dm.sync().unwrap();
    let fp_drained = fingerprint(dm.market());
    drop(dm);

    let dm = DurableMarket::open(&dir, FsyncPolicy::Always).unwrap();
    assert!(acked > 0, "the SIGTERM landed before any purchase acked");
    assert!(
        acked < ATTEMPTS as u64,
        "the server kept serving purchases after the SIGTERM"
    );
    assert!(
        dm.market().sales() as u64 >= acked,
        "lost acked purchases: {acked} acked, {} recovered",
        dm.market().sales()
    );
    assert_eq!(fingerprint(dm.market()), fp_drained);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An engine panic on a served cache miss is contained at the market
/// boundary: the request that tripped it gets a 500 `internal`, and the
/// same server answers the next request at Figure 1's $6.
#[test]
fn engine_panic_on_the_served_path_is_a_500_and_the_next_request_prices() {
    let _engine = ENGINE.write().unwrap_or_else(PoisonError::into_inner);
    let q = "Q(x, y) :- R(x), S(x, y), T(y)";
    for path in ["/quote", "/purchase"] {
        // A fresh market per path: the query must miss the quote cache
        // to reach the engine.
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        serve_exclusive(&market, false, |addr| {
            qbdp_core::fault::arm_panic();
            let (st, body) = exchange(addr, &post(path, q));
            assert_eq!(st, 500, "{path}: {body}");
            assert!(body.contains("\"kind\":\"internal\""), "{path}: {body}");
            let (st, body) = exchange(addr, &post(path, q));
            assert_eq!(st, 200, "{path}: {body}");
            assert!(body.contains("\"price_cents\":600"), "{path}: {body}");
        });
    }
}

#[test]
fn repeat_purchase_is_conflict_and_unknown_view_is_404() {
    let market = Market::open_qdp(FIG1_QDP).unwrap();
    serve(&market, false, |addr| {
        let (st, _) = exchange(addr, &post("/purchase", "Q(x) :- R(x)"));
        assert_eq!(st, 200);
        // figure1's ledger refuses a double sale of the same view set
        // only if the market says so; a malformed purchase maps 400.
        let (st, body) = exchange(addr, &post("/purchase", "nonsense"));
        assert_eq!(st, 400, "{body}");
        assert!(body.contains("\"kind\""), "{body}");
    });
}

#[test]
fn keep_alive_connection_serves_many_exchanges() {
    let market = Market::open_qdp(FIG1_QDP).unwrap();
    let stats = serve(&market, false, |addr| {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut rp = ResponseParser::new();
        let mut got = 0;
        for _ in 0..10 {
            c.write_all(&{
                let body = "Q(x) :- R(x)\n";
                format!(
                    "POST /quote HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            })
            .unwrap();
            let mut buf = [0u8; 4096];
            loop {
                let n = c.read(&mut buf).unwrap();
                assert!(n > 0, "server closed a keep-alive connection");
                rp.feed(&buf[..n]);
                if let Some(r) = rp.next_response() {
                    assert_eq!(r.status, 200);
                    got += 1;
                    break;
                }
            }
        }
        assert_eq!(got, 10);
    });
    // Ten requests, one connection.
    assert_eq!(stats.requests, 10);
    assert_eq!(stats.conns_accepted, 1);
}

/// A slow quote or durable purchase sent over HTTP reaches the flight
/// recorder with the span tree of its pricing — traced from the cache
/// lookup on the event loop through the batch worker that priced it.
#[test]
fn slow_served_quote_reaches_the_flight_recorder_with_its_span_tree() {
    let dir = temp_dir("flight");
    let dm = DurableMarket::create(&dir, FIG1_QDP, FsyncPolicy::Never).unwrap();
    dm.set_policy(MarketPolicy {
        telemetry: true,
        batch_workers: 2,
        ..MarketPolicy::default()
    })
    .unwrap();
    flight::set_slow_threshold_us(0);
    // Two cold misses in one request: the batch fans them over two
    // pool workers, away from the thread that looked them up.
    let queries = [
        "Flight(x, y) :- R(x), S(x, y), T(y)",
        "Flight(x, y) :- S(x, y), T(y)",
    ];
    let bought = "Bought(x, y) :- R(x), S(x, y)";
    serve(&dm, false, |addr| {
        let (st, body) = exchange(addr, &post("/quote", &format!("{}\n", queries.join("\n"))));
        assert_eq!(st, 200, "{body}");
        let (st, body) = exchange(addr, &post("/purchase", bought));
        assert_eq!(st, 200, "{body}");
    });
    let records = flight::dump();
    for query in queries.into_iter().chain([bought]) {
        let record = records
            .iter()
            .rev()
            .find(|r| r.query == query)
            .unwrap_or_else(|| panic!("`{query}` was not captured: {records:?}"));
        assert_eq!(record.why, Why::Slow);
        for stage in ["cache_lookup", "classify", "flow_solve"] {
            assert!(
                record.spans.iter().any(|s| s.name == stage),
                "`{query}` lost its `{stage}` span: {:?}",
                record.spans
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
