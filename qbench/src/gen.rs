//! Load generation over real sockets: one thread drives two non-blocking
//! keep-alive connections, either open-loop from a seeded arrival stream
//! ([`Arrivals`]) or closed-loop at a fixed number of outstanding requests.
//!
//! Open-loop requests are written when they fall due, whether or not
//! earlier responses have arrived, and each latency runs from the
//! request's *due* time, not its send time: a stall is charged to every
//! request that fell due during it (no coordinated omission, as in wrk2).
//! Responses are matched to requests first-in-first-out per connection,
//! which HTTP/1.1 pipelining guarantees.

use crate::report::Histogram;
use qbdp_serve::{Response, ResponseParser};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One scheduled request: when it falls due (nanoseconds after the phase
/// starts) and which entry of the request table it sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Due time, ns after the phase start.
    pub due_ns: u64,
    /// Index into the request table.
    pub req: u32,
}

/// Poisson arrivals, generated lazily so a long, fast schedule costs no
/// memory: each arrival's time and request come from one seeded stream,
/// so a seed always yields the same arrivals and the same requests.
pub struct Arrivals<F> {
    rng: StdRng,
    rate: f64,
    end_ns: f64,
    t_ns: f64,
    pick: F,
}

impl<F: FnMut(&mut StdRng) -> u32> Arrivals<F> {
    /// Arrivals at `rate` per second for `secs` seconds; `pick` chooses
    /// each arrival's request.
    pub fn poisson(seed: u64, rate: f64, secs: f64, pick: F) -> Arrivals<F> {
        Arrivals {
            rng: StdRng::seed_from_u64(seed),
            rate,
            end_ns: secs * 1e9,
            t_ns: 0.0,
            pick,
        }
    }
}

impl<F: FnMut(&mut StdRng) -> u32> Iterator for Arrivals<F> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let u: f64 = self.rng.gen();
        self.t_ns += -(1.0 - u).ln() / self.rate * 1e9;
        if self.t_ns >= self.end_ns {
            self.end_ns = 0.0;
            return None;
        }
        let req = (self.pick)(&mut self.rng);
        Some(Op {
            due_ns: self.t_ns as u64,
            req,
        })
    }
}

/// `POST <path>` with `body` as one HTTP/1.1 request.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What happened to one request.
#[derive(Debug)]
pub struct Reply<'a> {
    /// The request's index in its phase (schedule position, or issue order
    /// for the closed loop).
    pub op: usize,
    /// Request-table index it sent.
    pub req: u32,
    /// When it fell due (open loop) or was sent (closed loop), ns after
    /// the phase start.
    pub due_ns: u64,
    /// When its bytes were handed to the socket, ns after the phase start.
    pub sent_ns: u64,
    /// When its response was read, ns after the phase start.
    pub done_ns: u64,
    /// The response, or `None` when the request failed at the transport
    /// (connection lost, or no answer before the grace deadline).
    pub response: Option<&'a Response>,
}

impl Reply<'_> {
    /// Latency from due time to response, ns.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// A 2xx response arrived.
    pub fn ok(&self) -> bool {
        self.response
            .is_some_and(|r| (200..300).contains(&r.status))
    }
}

struct Pending {
    op: usize,
    req: u32,
    due_ns: u64,
    sent_ns: u64,
}

/// One non-blocking keep-alive connection with its send buffer and the
/// FIFO of requests awaiting responses.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inflight: VecDeque<Pending>,
    parser: ResponseParser,
    alive: bool,
}

/// Generator-side health of one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Requests issued.
    pub issued: u64,
    /// Requests that got no response (transport error, or unanswered at the
    /// grace deadline).
    pub lost: u64,
    /// How late each request was written after falling due, ns (open loop).
    pub late_ns: Histogram,
    /// Requests sent but unanswered when the last one fell due.
    pub backlog_end: u64,
    /// Time the generator spent doing work (not waiting), ns.
    pub busy_ns: u64,
    /// Phase wall time, ns.
    pub wall_ns: u64,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inflight: VecDeque::new(),
            parser: ResponseParser::new(),
            alive: true,
        })
    }
}

/// Bytes read per `read` call. `ResponseParser` moves the unparsed rest
/// of its buffer on every response, so a large read would cost time
/// quadratic in its length; a few kilobytes keep that cost negligible.
const READ_CHUNK: usize = 4 * 1024;

/// The generator's connections.
pub struct Wire {
    addr: SocketAddr,
    conns: Vec<Conn>,
    buf: Vec<u8>,
}

impl Wire {
    /// Open `n` keep-alive connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Wire> {
        let conns = (0..n)
            .map(|_| Conn::open(addr))
            .collect::<io::Result<_>>()?;
        Ok(Wire {
            addr,
            conns,
            buf: vec![0u8; READ_CHUNK],
        })
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// The live connection for the `k`-th request (round robin).
    fn route(&self, k: usize) -> Option<usize> {
        let n = self.conns.len();
        (0..n).map(|d| (k + d) % n).find(|&i| self.conns[i].alive)
    }

    /// Queue one request; `false` when every connection is dead.
    fn send(&mut self, bytes: &[u8], p: Pending) -> bool {
        let Some(i) = self.route(p.op) else {
            return false;
        };
        let c = &mut self.conns[i];
        c.out.extend_from_slice(bytes);
        c.inflight.push_back(p);
        true
    }

    /// Write what the sockets accept, read what has arrived, and report
    /// every completed or failed request. Returns whether anything moved.
    fn pump(&mut self, t0: Instant, on_reply: &mut dyn FnMut(Reply<'_>)) -> bool {
        let mut moved = false;
        let addr = self.addr;
        for c in self.conns.iter_mut().filter(|c| c.alive) {
            while !c.out.is_empty() {
                match c.stream.write(&c.out) {
                    Ok(0) => {
                        c.alive = false;
                        break;
                    }
                    Ok(n) => {
                        c.out.drain(..n);
                        moved = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.alive = false;
                        break;
                    }
                }
            }
            while c.alive {
                match c.stream.read(&mut self.buf) {
                    Ok(0) => c.alive = false,
                    Ok(n) => {
                        moved = true;
                        let done_ns = t0.elapsed().as_nanos() as u64;
                        c.parser.feed(&self.buf[..n]);
                        while let Some(resp) = c.parser.next_response() {
                            let Some(p) = c.inflight.pop_front() else {
                                // A response nobody asked for: the stream
                                // is out of step, so nothing on it can be
                                // trusted any more.
                                c.alive = false;
                                break;
                            };
                            on_reply(Reply {
                                op: p.op,
                                req: p.req,
                                due_ns: p.due_ns,
                                sent_ns: p.sent_ns,
                                done_ns,
                                response: Some(&resp),
                            });
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => c.alive = false,
                }
            }
            if !c.alive {
                replace(c, addr, t0, on_reply);
            }
        }
        moved
    }

    /// Report every outstanding request as lost and return how many.
    fn abandon(&mut self, t0: Instant, on_reply: &mut dyn FnMut(Reply<'_>)) -> u64 {
        let mut lost = 0;
        for c in self.conns.iter_mut().filter(|c| !c.inflight.is_empty()) {
            lost += c.inflight.len() as u64;
            replace(c, self.addr, t0, on_reply);
        }
        lost
    }
}

/// Fail every request outstanding on `c` and put a fresh connection in
/// its place: the old stream is broken, or may still carry answers to
/// the failed requests, which would be matched to later ones.
fn replace(c: &mut Conn, addr: SocketAddr, t0: Instant, on_reply: &mut dyn FnMut(Reply<'_>)) {
    let done_ns = t0.elapsed().as_nanos() as u64;
    for p in c.inflight.drain(..) {
        on_reply(Reply {
            op: p.op,
            req: p.req,
            due_ns: p.due_ns,
            sent_ns: p.sent_ns,
            done_ns,
            response: None,
        });
    }
    match Conn::open(addr) {
        Ok(fresh) => *c = fresh,
        Err(_) => {
            c.out.clear();
            c.alive = false;
        }
    }
}

/// Drive `arrivals` open-loop: each request is written when it falls due,
/// and every request still unanswered `grace` after the last one fell due
/// is reported lost. `on_reply` sees every request exactly once.
pub fn open_loop(
    wire: &mut Wire,
    requests: &[Vec<u8>],
    arrivals: impl Iterator<Item = Op>,
    grace: Duration,
    mut on_reply: impl FnMut(Reply<'_>),
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let mut arrivals = arrivals.peekable();
    let t0 = Instant::now();
    let grace_ns = grace.as_nanos() as u64;
    let mut last_due_ns = 0u64;
    let mut next = 0usize;
    let mut backlog_taken = false;
    loop {
        let iter_start = Instant::now();
        let now_ns = t0.elapsed().as_nanos() as u64;
        let mut moved = false;
        while let Some(op) = arrivals.next_if(|op| op.due_ns <= now_ns) {
            let p = Pending {
                op: next,
                req: op.req,
                due_ns: op.due_ns,
                sent_ns: now_ns,
            };
            stats.issued += 1;
            stats.late_ns.record(now_ns - op.due_ns);
            last_due_ns = op.due_ns;
            if !wire.send(&requests[op.req as usize], p) {
                stats.lost += 1;
                on_reply(Reply {
                    op: next,
                    req: op.req,
                    due_ns: op.due_ns,
                    sent_ns: now_ns,
                    done_ns: now_ns,
                    response: None,
                });
            }
            next += 1;
            moved = true;
        }
        moved |= wire.pump(t0, &mut on_reply);
        let next_due = arrivals.peek().map(|op| op.due_ns);
        if !backlog_taken && next_due.is_none() {
            stats.backlog_end = wire.outstanding() as u64;
            backlog_taken = true;
        }
        let outstanding = wire.outstanding();
        if next_due.is_none() && outstanding == 0 {
            break;
        }
        if next_due.is_none() && now_ns > last_due_ns + grace_ns {
            stats.lost += wire.abandon(t0, &mut on_reply);
            break;
        }
        if moved {
            stats.busy_ns += iter_start.elapsed().as_nanos() as u64;
        } else {
            idle(next_due, now_ns, outstanding);
        }
    }
    stats.wall_ns = t0.elapsed().as_nanos() as u64;
    stats
}

/// Drive a closed loop: keep `depth` requests outstanding on every
/// connection for `secs`, drawing each request from `next_req`, then wait
/// up to `grace` for the stragglers. Latency runs from the send time.
pub fn closed_loop(
    wire: &mut Wire,
    requests: &[Vec<u8>],
    depth: usize,
    secs: f64,
    grace: Duration,
    mut next_req: impl FnMut() -> u32,
    mut on_reply: impl FnMut(Reply<'_>),
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let t0 = Instant::now();
    let end_ns = (secs * 1e9) as u64;
    let deadline_ns = end_ns + grace.as_nanos() as u64;
    let mut issued = 0usize;
    loop {
        let iter_start = Instant::now();
        let now_ns = t0.elapsed().as_nanos() as u64;
        let mut moved = false;
        if now_ns < end_ns {
            for i in 0..wire.conns.len() {
                while wire.conns[i].alive && wire.conns[i].inflight.len() < depth {
                    let req = next_req();
                    let p = Pending {
                        op: issued,
                        req,
                        due_ns: now_ns,
                        sent_ns: now_ns,
                    };
                    let c = &mut wire.conns[i];
                    c.out.extend_from_slice(&requests[req as usize]);
                    c.inflight.push_back(p);
                    issued += 1;
                    stats.issued += 1;
                    moved = true;
                }
            }
            if wire.conns.iter().all(|c| !c.alive) {
                break;
            }
        }
        moved |= wire.pump(t0, &mut on_reply);
        if now_ns >= end_ns && wire.outstanding() == 0 {
            break;
        }
        if now_ns > deadline_ns {
            stats.lost += wire.abandon(t0, &mut on_reply);
            break;
        }
        if moved {
            stats.busy_ns += iter_start.elapsed().as_nanos() as u64;
        } else {
            std::thread::yield_now();
        }
    }
    stats.wall_ns = t0.elapsed().as_nanos() as u64;
    stats
}

/// Wait for the next thing to do. Responses can arrive at any moment, so
/// with requests outstanding the generator only yields; with none, it may
/// sleep until shortly before the next request falls due.
fn idle(next_due_ns: Option<u64>, now_ns: u64, outstanding: usize) {
    const SLEEP_MARGIN_NS: u64 = 1_000_000;
    match next_due_ns {
        Some(due) if outstanding == 0 && due > now_ns + 2 * SLEEP_MARGIN_NS => {
            std::thread::sleep(Duration::from_nanos(due - now_ns - SLEEP_MARGIN_NS));
        }
        _ => std::thread::yield_now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub HTTP server: answers each request on each connection in
    /// order, echoing its body, after sleeping `stall` before the request
    /// whose body is `stall_on`.
    fn stub(
        stall_on: Option<&'static str>,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr");
        let handle = std::thread::spawn(move || {
            let mut workers = Vec::new();
            for _ in 0..2 {
                let (mut s, _) = listener.accept().expect("accept");
                workers.push(std::thread::spawn(move || {
                    let mut parser = qbdp_serve::http::RequestParser::new(Default::default());
                    let mut buf = vec![0u8; 16 * 1024];
                    loop {
                        let n = match s.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => n,
                        };
                        parser.feed(&buf[..n]);
                        let mut out = Vec::new();
                        while let qbdp_serve::http::Step::Ready(req) = parser.next_request() {
                            if stall_on.is_some_and(|b| b.as_bytes() == req.body.as_slice()) {
                                std::thread::sleep(stall);
                            }
                            qbdp_serve::http::write_response(
                                &mut out,
                                200,
                                "OK",
                                "text/plain",
                                &req.body,
                                true,
                            );
                        }
                        if s.write_all(&out).is_err() {
                            return;
                        }
                    }
                }));
            }
            for w in workers {
                w.join().expect("stub worker");
            }
        });
        (addr, handle)
    }

    /// A schedule as bytes (due time and request per op), for comparing two
    /// schedules exactly.
    fn schedule_bytes(ops: impl Iterator<Item = Op>, requests: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        for op in ops {
            out.extend_from_slice(&op.due_ns.to_le_bytes());
            out.extend_from_slice(&requests[op.req as usize]);
        }
        out
    }

    fn table(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| post("/quote", &format!("q{i}"))).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_schedules() {
        let reqs = table(50);
        let pick = |rng: &mut StdRng| rng.gen_range(0..50u32);
        let bytes = |seed| schedule_bytes(Arrivals::poisson(seed, 2_000.0, 0.5, pick), &reqs);
        assert_eq!(bytes(7), bytes(7));
        assert_ne!(bytes(7), bytes(8));
        let ops: Vec<Op> = Arrivals::poisson(7, 2_000.0, 0.5, pick).collect();
        let n = ops.len() as f64;
        assert!(
            (800.0..1200.0).contains(&n),
            "Poisson count {n} far from 1,000"
        );
        assert!(ops.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(ops.last().is_some_and(|op| op.due_ns < 500_000_000));
    }

    #[test]
    fn pipelined_responses_match_fifo_per_connection() {
        let (addr, server) = stub(None, Duration::ZERO);
        let reqs = table(400);
        let mut wire = Wire::connect(addr, 2).expect("connect");
        let mut seen = vec![false; 0];
        let stats = closed_loop(
            &mut wire,
            &reqs,
            16,
            0.2,
            Duration::from_secs(5),
            {
                let mut k = 0u32;
                move || {
                    k += 1;
                    k % 400
                }
            },
            |r| {
                let body = &r.response.expect("stub answers everything").body;
                assert_eq!(
                    body,
                    format!("q{}", r.req).as_bytes(),
                    "response matched to the wrong request"
                );
                if seen.len() <= r.op {
                    seen.resize(r.op + 1, false);
                }
                assert!(!seen[r.op], "request answered twice");
                seen[r.op] = true;
            },
        );
        assert_eq!(stats.lost, 0);
        assert!(stats.issued > 32, "the closed loop kept requests pipelined");
        drop(wire);
        server.join().expect("stub");
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        // 1 request/ms; the stub stalls 50 ms on request 20, so requests
        // due during the stall must each see latency ≈ (stall end − due),
        // measured from the due time — a send-time clock would hide it.
        const STALL_MS: u64 = 50;
        let (addr, server) = stub(Some("q20"), Duration::from_millis(STALL_MS));
        let reqs = table(120);
        let schedule = (0..120u32).map(|i| Op {
            due_ns: u64::from(i) * 1_000_000,
            req: i,
        });
        let mut wire = Wire::connect(addr, 2).expect("connect");
        let mut lat_ms = vec![0.0f64; 120];
        let stats = open_loop(&mut wire, &reqs, schedule, Duration::from_secs(5), |r| {
            assert!(r.ok());
            lat_ms[r.op] = r.latency_ns() as f64 / 1e6;
        });
        assert_eq!(stats.lost, 0);
        // Request 20 itself waits the whole stall.
        assert!(
            lat_ms[20] >= STALL_MS as f64 - 1.0,
            "stalled request: {} ms",
            lat_ms[20]
        );
        // Every later request on the stalled connection that fell due
        // during the stall (even ops: connection 0) waits until it ends.
        for j in (22..20 + STALL_MS as usize).step_by(2) {
            let owed = (STALL_MS as f64) - (j as f64 - 20.0) - 1.0;
            assert!(
                lat_ms[j] >= owed,
                "request {j} due {} ms into the stall saw {} ms, owed ≥ {owed} ms",
                j - 20,
                lat_ms[j]
            );
        }
        // The other connection's requests were not held up.
        let odd_max = (21..20 + STALL_MS as usize)
            .step_by(2)
            .map(|j| lat_ms[j])
            .fold(0.0, f64::max);
        assert!(
            odd_max < STALL_MS as f64 / 2.0,
            "unstalled connection saw {odd_max} ms"
        );
        drop(wire);
        server.join().expect("stub");
    }
}
