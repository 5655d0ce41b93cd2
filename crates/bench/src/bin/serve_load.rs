//! E19: the serve-path load harness — a Zipf(1.1) buyer population
//! hammering `qbdp-serve` over real sockets. Three phases:
//!
//! 1. **Throughput**: pipelined keep-alive clients drive cached-path
//!    `/quote` traffic (the quote cache is warmed first, so the server's
//!    event loop, parser, and batch hand-off are what's measured, not
//!    the pricing engine). Full scale must sustain ≥100k quotes/sec.
//! 2. **Latency**: a concurrent unpipelined probe measures end-to-end
//!    request latency under that load: p50/p99/p999.
//! 3. **Drain**: buyers purchase distinct views over a durable market
//!    until a real SIGTERM lands mid-load; the server drains, and the
//!    directory is reopened cold to prove recovery equivalence — every
//!    acked purchase survives, byte-for-byte fingerprint match.
//!
//! Results land in `BENCH_serve.json`. `QBDP_E19_SCALE=ci` runs the
//! reduced CI shape (same phases, smaller numbers, no ≥100k assertion).

#![allow(
    clippy::expect_used,
    reason = "a measurement harness may abort with a message"
)]

use qbdp_catalog::{tuple, Catalog, CatalogBuilder, Column};
use qbdp_core::price_points::PriceList;
use qbdp_core::Price;
use qbdp_determinacy::selection::SelectionView;
use qbdp_market::{fingerprint, DurableMarket, Market, MarketPolicy};
use qbdp_serve::{sys, ResponseParser, Server, ServerConfig, ShutdownFlag};
use qbdp_store::FsyncPolicy;
use qbdp_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Column domain size; also the size of the cached query pool.
const N: i64 = 64;

struct Scale {
    name: &'static str,
    /// Pipelined connections driving the throughput phase.
    clients: usize,
    /// Requests in flight per client write burst.
    pipeline: usize,
    /// Bursts per client.
    bursts: usize,
    /// Unpipelined latency samples.
    probe_samples: usize,
    /// Purchases attempted before/through the SIGTERM.
    buy_attempts: usize,
    /// Throughput floor asserted at the end (quotes/sec).
    min_qps: f64,
}

fn scale() -> Scale {
    match std::env::var("QBDP_E19_SCALE").as_deref() {
        Ok("ci") => Scale {
            name: "ci",
            clients: 2,
            pipeline: 32,
            bursts: 40,
            probe_samples: 300,
            buy_attempts: 24,
            min_qps: 5_000.0,
        },
        _ => Scale {
            name: "full",
            clients: 4,
            pipeline: 64,
            bursts: 400,
            probe_samples: 2_000,
            buy_attempts: 48,
            min_qps: 100_000.0,
        },
    }
}

/// The E17 chain instance, sized for a selection pool of `N` cached
/// queries.
fn seed_market() -> Market {
    let col = Column::int_range(0, N);
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
    for x in 0..N {
        instance.insert(r, tuple![x]).expect("R tuple");
        instance.insert(t, tuple![x]).expect("T tuple");
        for k in 1..4 {
            instance.insert(s, tuple![x, (x + k) % N]).expect("S tuple");
        }
    }
    let mut tags = PriceList::new();
    for attr in catalog.schema().all_attrs() {
        for v in catalog.column(attr).iter() {
            tags.set(SelectionView::new(attr, v.clone()), Price::cents(100));
        }
    }
    Market::open(catalog, instance, tags).expect("chain market opens")
}

/// The cached query pool the Zipf population draws from.
fn query_pool() -> Vec<String> {
    (0..N).map(|c| format!("Q(y) :- S({c}, y)")).collect()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let c = TcpStream::connect(addr).expect("connect to quote server");
    c.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    c.set_nodelay(true).expect("nodelay");
    c
}

fn quote_request(q: &str) -> Vec<u8> {
    format!(
        "POST /quote HTTP/1.1\r\nContent-Length: {}\r\n\r\n{q}",
        q.len()
    )
    .into_bytes()
}

/// One pipelined client: `bursts` rounds of `pipeline` Zipf-sampled
/// quote requests, counting 200s. Returns quotes acked.
fn throughput_client(
    addr: SocketAddr,
    pool: &[String],
    zipf: &Zipf,
    seed: u64,
    pipeline: usize,
    bursts: usize,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = connect(addr);
    let mut rp = ResponseParser::new();
    let mut acked = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    for _ in 0..bursts {
        let mut burst = Vec::with_capacity(pipeline * 64);
        for _ in 0..pipeline {
            burst.extend_from_slice(&quote_request(&pool[zipf.sample(&mut rng)]));
        }
        c.write_all(&burst).expect("burst write");
        let mut got = 0;
        while got < pipeline {
            let n = c.read(&mut buf).expect("burst read");
            assert!(n > 0, "server closed mid-burst");
            rp.feed(&buf[..n]);
            while let Some(r) = rp.next_response() {
                assert_eq!(r.status, 200, "quote failed under load");
                got += 1;
                acked += 1;
            }
        }
    }
    acked
}

/// The unpipelined probe: request → full response → sample, on a
/// keep-alive connection, concurrent with the throughput clients.
fn latency_probe(addr: SocketAddr, pool: &[String], zipf: &Zipf, samples: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(0xE19);
    let mut c = connect(addr);
    let mut rp = ResponseParser::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let req = quote_request(&pool[zipf.sample(&mut rng)]);
        let t0 = Instant::now();
        c.write_all(&req).expect("probe write");
        loop {
            let n = c.read(&mut buf).expect("probe read");
            assert!(n > 0, "server closed the probe connection");
            rp.feed(&buf[..n]);
            if let Some(r) = rp.next_response() {
                assert_eq!(r.status, 200);
                out.push(t0.elapsed().as_secs_f64() * 1e6);
                break;
            }
        }
    }
    out.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    out
}

fn pct(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64) * p) as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Purchase distinct views one at a time until the server drains away
/// beneath us; a SIGTERM is raised mid-stream by the caller's timer.
fn purchase_until_drained(addr: SocketAddr, attempts: usize, acked: &AtomicU64) {
    let mut c = connect(addr);
    let mut rp = ResponseParser::new();
    let mut buf = vec![0u8; 16 * 1024];
    for i in 0..attempts {
        let q = format!("Q(y) :- S({i}, y)");
        let req = format!(
            "POST /purchase HTTP/1.1\r\nContent-Length: {}\r\n\r\n{q}",
            q.len()
        );
        if c.write_all(req.as_bytes()).is_err() {
            return; // drained: the server stopped reading
        }
        loop {
            match c.read(&mut buf) {
                Ok(0) | Err(_) => return, // drained mid-exchange: not acked
                Ok(n) => {
                    rp.feed(&buf[..n]);
                    if let Some(r) = rp.next_response() {
                        if r.status == 200 {
                            acked.fetch_add(1, Ordering::Relaxed);
                        }
                        break;
                    }
                }
            }
        }
        // A beat between purchases so the SIGTERM lands mid-stream.
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn main() {
    let sc = scale();
    let pool = query_pool();
    let zipf = Zipf::new(pool.len(), 1.1);
    println!(
        "E19 — serve load ({} scale): {} pipelined clients × {} × {} requests, Zipf(1.1) over {} cached queries",
        sc.name, sc.clients, sc.bursts, sc.pipeline, pool.len()
    );

    let dir = std::env::temp_dir().join(format!("qbdp-e19-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed_qdp = seed_market().to_qdp();

    // ---- phases 1+2: throughput + latency under one server run -------
    let dm = DurableMarket::create(&dir, &seed_qdp, FsyncPolicy::EveryN(8))
        .expect("durable market opens");
    dm.set_policy(MarketPolicy {
        telemetry: true,
        ..dm.market().policy()
    })
    .expect("policy applies");
    // Warm the quote cache: the measured region is the serving path.
    for q in &pool {
        dm.market().quote_str(q).expect("warmup quote");
    }

    let mut server = Server::bind(ServerConfig {
        max_conns: 64,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = server.local_addr();
    let shutdown = ShutdownFlag::new();
    let stopper = shutdown.clone();
    let (quotes_acked, elapsed, lat, stats) = std::thread::scope(|s| {
        let server_thread = s.spawn(|| server.run(&dm, &shutdown).expect("server runs"));
        let t0 = Instant::now();
        let clients: Vec<_> = (0..sc.clients)
            .map(|i| {
                let (pool, zipf) = (&pool, &zipf);
                s.spawn(move || {
                    throughput_client(
                        addr,
                        pool,
                        zipf,
                        0xC0FFEE + i as u64,
                        sc.pipeline,
                        sc.bursts,
                    )
                })
            })
            .collect();
        let probe = s.spawn(|| latency_probe(addr, &pool, &zipf, sc.probe_samples));
        let acked: u64 = clients.into_iter().map(|h| h.join().expect("client")).sum();
        let elapsed = t0.elapsed().as_secs_f64();
        let lat = probe.join().expect("probe");
        stopper.request();
        let stats = server_thread.join().expect("server thread");
        (acked, elapsed, lat, stats)
    });
    let qps = quotes_acked as f64 / elapsed;
    let (p50, p99, p999) = (pct(&lat, 0.50), pct(&lat, 0.99), pct(&lat, 0.999));
    println!(
        "  throughput: {quotes_acked} quotes in {elapsed:.2}s = {qps:.0} quotes/sec ({} backend)",
        stats.backend
    );
    println!("  latency under load: p50 {p50:.0} µs   p99 {p99:.0} µs   p999 {p999:.0} µs");

    // ---- phase 3: SIGTERM drain + recovery equivalence ---------------
    sys::clear_signal();
    let mut server = Server::bind(ServerConfig {
        max_conns: 64,
        ..ServerConfig::default()
    })
    .expect("rebind");
    let addr = server.local_addr();
    let shutdown = ShutdownFlag::with_signals().expect("signal flag");
    let acked = AtomicU64::new(0);
    let drain_stats = std::thread::scope(|s| {
        let server_thread = s.spawn(|| server.run(&dm, &shutdown).expect("drain run"));
        let buyer = s.spawn(|| purchase_until_drained(addr, sc.buy_attempts, &acked));
        // Let roughly half the purchases land, then deliver a real
        // SIGTERM to the process — the event loop must drain.
        std::thread::sleep(Duration::from_millis(sc.buy_attempts as u64));
        sys::raise_signal(sys::SIGTERM).expect("raise SIGTERM");
        let stats = server_thread.join().expect("drain thread");
        buyer.join().expect("buyer");
        stats
    });
    let acked = acked.load(Ordering::Relaxed);
    dm.sync().expect("post-drain sync");
    let fp_drained = fingerprint(dm.market());
    let sales_drained = dm.market().sales();
    drop(dm);
    let dm = DurableMarket::open(&dir, FsyncPolicy::Always).expect("cold reopen");
    let fp_recovered = fingerprint(dm.market());
    let sales_recovered = dm.market().sales();
    println!(
        "  drain: {} purchase(s) acked over the wire, {} sale(s) drained, {} recovered",
        acked, sales_drained, sales_recovered
    );
    assert_eq!(
        fp_recovered, fp_drained,
        "cold recovery diverged from the drained server state"
    );
    assert!(
        sales_recovered as u64 >= acked,
        "lost acked purchases: {acked} acked, {sales_recovered} recovered"
    );
    assert!(acked > 0, "the SIGTERM landed before any purchase acked");
    let _ = std::fs::remove_dir_all(&dir);

    // ---- report ------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"E19\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", sc.name);
    let _ = writeln!(json, "  \"backend\": \"{}\",", stats.backend);
    let _ = writeln!(json, "  \"clients\": {},", sc.clients);
    let _ = writeln!(json, "  \"pipeline_depth\": {},", sc.pipeline);
    let _ = writeln!(json, "  \"zipf_theta\": 1.1,");
    let _ = writeln!(json, "  \"query_pool\": {},", pool.len());
    let _ = writeln!(json, "  \"quotes_acked\": {quotes_acked},");
    let _ = writeln!(json, "  \"elapsed_secs\": {elapsed:.3},");
    let _ = writeln!(json, "  \"quotes_per_sec\": {qps:.0},");
    let _ = writeln!(json, "  \"latency_p50_us\": {p50:.1},");
    let _ = writeln!(json, "  \"latency_p99_us\": {p99:.1},");
    let _ = writeln!(json, "  \"latency_p999_us\": {p999:.1},");
    let _ = writeln!(json, "  \"drain_purchases_acked\": {acked},");
    let _ = writeln!(json, "  \"drain_sales_recovered\": {sales_recovered},");
    let _ = writeln!(json, "  \"drain_requests_total\": {}", drain_stats.requests);
    json.push('}');
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("  wrote BENCH_serve.json");

    assert!(
        qps >= sc.min_qps,
        "throughput floor missed: {qps:.0} < {} quotes/sec",
        sc.min_qps
    );
    println!(
        "  PASS: ≥{:.0} quotes/sec sustained, recovery equivalent",
        sc.min_qps
    );
}
