//! HTTP parser and server torture suite (ISSUE 9 satellite).
//!
//! Feeds the incremental parser and a live server split, pipelined,
//! oversized, and malformed requests — byte-by-byte header trickles,
//! mid-header connection drops, `Content-Length` lies — and asserts
//! nothing panics, framing errors answer 400/413 exactly once, and the
//! connection table survives abusive peers.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qbdp_serve::http::{RequestParser, Step};
use qbdp_serve::{Limits, Method, ResponseParser, Server, ServerConfig, ShutdownFlag};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

const FIG1_QDP: &str = include_str!("../../../data/figure1.qdp");

// ---------------------------------------------------------------- parser

/// Drain everything currently decodable, collecting terminal errors.
fn drain(p: &mut RequestParser) -> (Vec<qbdp_serve::Request>, Vec<u16>) {
    let (mut reqs, mut errs) = (Vec::new(), Vec::new());
    loop {
        match p.next_request() {
            Step::NeedMore => return (reqs, errs),
            Step::Ready(r) => reqs.push(*r),
            Step::Fail(e) => {
                errs.push(e.status);
                return (reqs, errs);
            }
        }
    }
}

#[test]
fn byte_by_byte_header_feed_yields_one_request() {
    let raw = b"POST /quote HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nQ(x)";
    let mut p = RequestParser::new(Limits::default());
    let mut seen = Vec::new();
    for b in raw.iter() {
        p.feed(std::slice::from_ref(b));
        let (reqs, errs) = drain(&mut p);
        assert!(errs.is_empty());
        seen.extend(reqs);
    }
    assert_eq!(seen.len(), 1);
    assert_eq!(seen[0].method, Method::Post);
    assert_eq!(seen[0].body, b"Q(x)");
}

#[test]
fn pipelined_burst_decodes_in_order() {
    let mut raw = Vec::new();
    for i in 0..32 {
        raw.extend_from_slice(
            format!(
                "POST /quote HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                i % 7,
                "x".repeat(i % 7)
            )
            .as_bytes(),
        );
    }
    let mut p = RequestParser::new(Limits::default());
    p.feed(&raw);
    let (reqs, errs) = drain(&mut p);
    assert!(errs.is_empty());
    assert_eq!(reqs.len(), 32);
    for (i, r) in reqs.iter().enumerate() {
        assert_eq!(r.body.len(), i % 7);
    }
}

#[test]
fn ten_thousand_pipelined_requests_in_one_feed() {
    const N: usize = 10_000;
    let mut raw = Vec::new();
    for i in 0..N {
        let body = format!("Q{i}(x) :- R(x)");
        raw.extend_from_slice(
            format!(
                "POST /quote HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    let mut p = RequestParser::new(Limits::default());
    p.feed(&raw);
    assert_eq!(p.buffered(), raw.len());
    let (reqs, errs) = drain(&mut p);
    assert!(errs.is_empty());
    assert_eq!(reqs.len(), N);
    assert_eq!(p.buffered(), 0);
    for (i, r) in reqs.iter().enumerate() {
        let want = format!("Q{i}(x) :- R(x)");
        assert_eq!(r.body, want.as_bytes());
        // Each body owns exactly its bytes, not the rest of the backlog.
        assert_eq!(r.body.capacity(), want.len());
    }
    // The parser keeps working after the backlog: a request split across
    // two feeds still decodes.
    p.feed(b"POST /quote HTTP/1.1\r\nContent-Length: 4\r\n\r\nQ(");
    assert!(matches!(p.next_request(), Step::NeedMore));
    p.feed(b"x)GET /health HTTP/1.1\r\n\r\n");
    let (reqs, errs) = drain(&mut p);
    assert!(errs.is_empty());
    assert_eq!(reqs.len(), 2);
    assert_eq!(reqs[0].body, b"Q(x)");
    assert_eq!(reqs[1].target, "/health");
}

#[test]
fn content_length_lies_are_terminal_400() {
    // Two Content-Length headers that disagree.
    let mut p = RequestParser::new(Limits::default());
    p.feed(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde");
    let (_, errs) = drain(&mut p);
    assert_eq!(errs, vec![400]);

    // Non-numeric length.
    let mut p = RequestParser::new(Limits::default());
    p.feed(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    let (_, errs) = drain(&mut p);
    assert_eq!(errs, vec![400]);

    // Negative length (sign is not a digit).
    let mut p = RequestParser::new(Limits::default());
    p.feed(b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n");
    let (_, errs) = drain(&mut p);
    assert_eq!(errs, vec![400]);

    // Transfer-Encoding smuggling attempt.
    let mut p = RequestParser::new(Limits::default());
    p.feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
    let (_, errs) = drain(&mut p);
    assert_eq!(errs, vec![400]);
}

#[test]
fn broken_parser_stays_broken() {
    let mut p = RequestParser::new(Limits::default());
    p.feed(b"BOGUS\r\n\r\n");
    assert!(matches!(p.next_request(), Step::Fail(e) if e.status == 400));
    // Feeding a now-valid request after the error must not resurrect it.
    p.feed(b"GET / HTTP/1.1\r\n\r\n");
    assert!(matches!(p.next_request(), Step::Fail(e) if e.status == 400));
}

#[test]
fn oversized_head_and_body_are_413() {
    let limits = Limits {
        max_head: 128,
        max_body: 16,
    };
    let mut p = RequestParser::new(limits);
    let mut junk = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    junk.extend(std::iter::repeat_n(b'a', 256));
    p.feed(&junk);
    let (_, errs) = drain(&mut p);
    assert_eq!(errs, vec![413]);

    // Declared body beyond the cap fails at the header, before any body
    // byte arrives — the server never buffers what it will refuse.
    let mut p = RequestParser::new(limits);
    p.feed(b"POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
    let (_, errs) = drain(&mut p);
    assert_eq!(errs, vec![413]);
}

#[test]
fn random_garbage_never_panics() {
    // Deterministic xorshift garbage: every chunk either errors or waits,
    // but the parser must not panic or loop.
    let mut state = 0x243f_6a88_85a3_08d3_u64;
    for round in 0..64 {
        let mut p = RequestParser::new(Limits {
            max_head: 256,
            max_body: 64,
        });
        let mut bytes = Vec::new();
        for _ in 0..(round * 7 + 3) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bytes.push((state >> 32) as u8);
        }
        p.feed(&bytes);
        let _ = drain(&mut p);
    }
}

// ---------------------------------------------------------------- server

/// Run a figure-1 market server on an ephemeral port for `body`.
fn with_server(force_poll: bool, body: impl FnOnce(SocketAddr) + Send) {
    let market = qbdp_market::Market::open_qdp(FIG1_QDP).unwrap();
    let mut server = Server::bind(ServerConfig {
        max_conns: 8,
        idle_timeout: Duration::from_millis(400),
        force_poll,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let shutdown = ShutdownFlag::new();
    let stopper = shutdown.clone();
    std::thread::scope(|s| {
        let h = s.spawn(move || server.run(&market, &shutdown));
        body(addr);
        stopper.request();
        h.join().unwrap().unwrap();
    });
}

fn send_all(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    c.write_all(bytes).unwrap();
    let _ = c.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    let _ = c.read_to_end(&mut out);
    out
}

fn statuses(raw: &[u8]) -> Vec<u16> {
    let mut rp = ResponseParser::new();
    rp.feed(raw);
    let mut out = Vec::new();
    while let Some(r) = rp.next_response() {
        out.push(r.status);
    }
    out
}

#[test]
fn malformed_request_gets_400_and_close() {
    with_server(false, |addr| {
        let raw = send_all(addr, b"NONSENSE\r\n\r\nGET / HTTP/1.1\r\n\r\n");
        // Exactly one 400; the pipelined follow-up dies with the conn.
        assert_eq!(statuses(&raw), vec![400]);
    });
}

#[test]
fn oversized_head_gets_413_and_close() {
    with_server(false, |addr| {
        let mut raw = b"GET /health HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 16 * 1024));
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(statuses(&send_all(addr, &raw)), vec![413]);
    });
}

#[test]
fn mid_header_drop_leaves_server_healthy() {
    with_server(false, |addr| {
        // Drop a connection mid-header, twice, then verify the server
        // still answers a clean request.
        for _ in 0..2 {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"POST /quote HTTP/1.1\r\nContent-Le").unwrap();
            drop(c);
        }
        let raw = send_all(addr, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(statuses(&raw), vec![200]);
    });
}

#[test]
fn content_length_short_body_times_out_without_hanging_others() {
    with_server(false, |addr| {
        // Liar: declares 100 bytes, sends 5, keeps the socket open. The
        // idle sweep must reap it while other clients stay served.
        let mut liar = TcpStream::connect(addr).unwrap();
        liar.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        liar.write_all(b"POST /quote HTTP/1.1\r\nContent-Length: 100\r\n\r\nQ(x)\n")
            .unwrap();
        let raw = send_all(addr, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(statuses(&raw), vec![200]);
        // The idle timeout (400ms here) closes the liar: read returns 0.
        let mut buf = [0u8; 64];
        loop {
            match liar.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("liar socket should be closed, got {e}"),
            }
        }
    });
}

#[test]
fn pipelined_quotes_come_back_in_order_on_poll_backend() {
    with_server(true, |addr| {
        let mut raw = Vec::new();
        for _ in 0..16 {
            raw.extend_from_slice(
                b"POST /quote HTTP/1.1\r\nContent-Length: 13\r\n\r\nQ(x) :- R(x)\n",
            );
        }
        raw.extend_from_slice(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
        let got = statuses(&send_all(addr, &raw));
        assert_eq!(got.len(), 17);
        assert!(got.iter().all(|s| *s == 200), "{got:?}");
    });
}

#[test]
fn connection_cap_rejects_with_503() {
    with_server(false, |addr| {
        // Fill the 8-slot table with idle keep-alive connections.
        let held: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Give the event loop a beat to accept them all.
        std::thread::sleep(Duration::from_millis(200));
        let raw = send_all(addr, b"GET /health HTTP/1.1\r\n\r\n");
        assert_eq!(statuses(&raw), vec![503]);
        drop(held);
    });
}
