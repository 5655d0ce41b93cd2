//! An incremental, allocation-light HTTP/1.1 message layer.
//!
//! The server's [`RequestParser`] consumes bytes as they arrive —
//! split across arbitrarily many reads, or many pipelined requests in
//! one read — and emits complete [`Request`]s in arrival order. The
//! grammar is deliberately the small, strict subset a quote API needs:
//!
//! * request line `METHOD SP target SP HTTP/1.0|1.1`,
//! * `Content-Length`-framed bodies only (`Transfer-Encoding` is
//!   rejected with 400 — a pricing API has no use for chunked uploads,
//!   and smuggling ambiguity is not worth supporting them),
//! * conflicting or malformed `Content-Length` values are a hard 400
//!   (the classic request-smuggling vector),
//! * head and body sizes are capped ([`Limits`]) with 413 beyond.
//!
//! A parse error is terminal for the connection: the server writes the
//! mapped status and closes, because resynchronizing a byte stream
//! after a framing error is guesswork. Everything here is panic-free
//! (the workspace lints deny `unwrap`/`expect`/`panic!`) and every
//! loop is structurally bounded (audit R4).

/// Size caps for one request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes of request line + headers (including the blank
    /// line). 413 beyond.
    pub max_head: usize,
    /// Maximum declared `Content-Length`. 413 beyond.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head: 8 * 1024,
            max_body: 64 * 1024,
        }
    }
}

/// Request method, collapsed to what the router distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// Anything else (routed to 405).
    Other,
}

/// One complete request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Method token.
    pub method: Method,
    /// Raw request target (path, with any query string intact).
    pub target: String,
    /// Whether the connection survives this exchange
    /// (HTTP/1.1 default-on, `Connection: close` / HTTP/1.0 off).
    pub keep_alive: bool,
    /// The `Content-Length`-framed body (empty when none was sent).
    pub body: Vec<u8>,
}

/// A terminal framing error, with the status the server should write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HttpError {
    /// 400 or 413.
    pub status: u16,
    /// Short human-readable cause, safe to echo in the response body.
    pub reason: &'static str,
}

impl HttpError {
    const fn bad(reason: &'static str) -> HttpError {
        HttpError {
            status: 400,
            reason,
        }
    }

    const fn too_large(reason: &'static str) -> HttpError {
        HttpError {
            status: 413,
            reason,
        }
    }
}

/// One [`RequestParser::next_request`] step.
#[derive(Debug)]
pub enum Step {
    /// No complete message buffered; feed more bytes.
    NeedMore,
    /// One complete request, consumed from the buffer.
    Ready(Box<Request>),
    /// Terminal framing error; the connection must close.
    Fail(HttpError),
}

enum State {
    /// Scanning for the `\r\n\r\n` head terminator.
    Head,
    /// Head parsed; waiting for `need` body bytes.
    Body { need: usize, req: Box<Request> },
    /// A framing error already reported; the stream is unusable.
    Broken(HttpError),
}

/// Incremental request parser: `feed` bytes, then drain with
/// `next_request` until [`Step::NeedMore`].
///
/// Requests are consumed by advancing a read offset, and the consumed
/// prefix is dropped once per `feed`, so draining a pipelined backlog of
/// `n` requests costs `O(n)` rather than one copy of the rest per request.
/// Each body is copied into a `Vec` of exactly its length.
pub struct RequestParser {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    start: usize,
    /// Resume offset (into `buf`, never before `start`) for the
    /// head-terminator scan, so a header split across N reads costs one
    /// pass total, not N.
    scanned: usize,
    state: State,
    limits: Limits,
}

impl RequestParser {
    /// A fresh parser with the given caps.
    pub fn new(limits: Limits) -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            state: State::Head,
            limits,
        }
    }

    /// Append newly-read bytes, first dropping what was consumed.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a message.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pull the next complete request out of the buffer.
    pub fn next_request(&mut self) -> Step {
        match &mut self.state {
            State::Broken(e) => Step::Fail(*e),
            State::Head => self.scan_head(),
            State::Body { need, .. } => {
                let need = *need;
                let Some(body) = self.buf.get(self.start..self.start + need) else {
                    return Step::NeedMore;
                };
                let body = body.to_vec();
                self.start += need;
                self.scanned = self.start;
                let prev = std::mem::replace(&mut self.state, State::Head);
                match prev {
                    State::Body { mut req, .. } => {
                        req.body = body;
                        Step::Ready(req)
                    }
                    // The outer match proved we hold a Body.
                    _ => Step::Fail(HttpError::bad("parser state desync")),
                }
            }
        }
    }

    fn fail(&mut self, e: HttpError) -> Step {
        self.state = State::Broken(e);
        Step::Fail(e)
    }

    fn scan_head(&mut self) -> Step {
        let terminator = find_terminator(&self.buf, self.scanned);
        let Some(head_end) = terminator else {
            if self.buffered() > self.limits.max_head {
                return self.fail(HttpError::too_large("request head exceeds max_head"));
            }
            self.scanned = self.buf.len().saturating_sub(3).max(self.start);
            return Step::NeedMore;
        };
        if head_end - self.start + 4 > self.limits.max_head {
            return self.fail(HttpError::too_large("request head exceeds max_head"));
        }
        let parsed = parse_head(&self.buf[self.start..head_end], self.limits);
        self.start = head_end + 4;
        self.scanned = self.start;
        match parsed {
            Err(e) => self.fail(e),
            Ok((req, 0)) => Step::Ready(req),
            Ok((req, need)) => {
                self.state = State::Body { need, req };
                self.next_request()
            }
        }
    }
}

/// Find `\r\n\r\n` starting the scan at `from` (a resume offset that is
/// always ≥ 3 bytes before any unscanned terminator).
fn find_terminator(buf: &[u8], from: usize) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    // audit: bounded(one pass over the buffered head, capped by Limits::max_head)
    for i in from..=buf.len() - 4 {
        if &buf[i..i + 4] == b"\r\n\r\n" {
            return Some(i);
        }
    }
    None
}

/// Parse a complete head (`buf` excludes the terminator). Returns the
/// request shell plus the declared body length.
fn parse_head(head: &[u8], limits: Limits) -> Result<(Box<Request>, usize), HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::bad("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method_tok = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method_tok.is_empty() || target.is_empty() || parts.next().is_some() {
        return Err(HttpError::bad("malformed request line"));
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::bad("unsupported HTTP version")),
    };
    if !target.starts_with('/') {
        return Err(HttpError::bad("request target must be origin-form"));
    }
    let method = match method_tok {
        "GET" => Method::Get,
        "POST" => Method::Post,
        _ => Method::Other,
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = keep_alive_default;
    // audit: bounded(one pass over the head's lines, capped by Limits::max_head)
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::bad("header line without a colon"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::bad("malformed header name"));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize = value
                .parse()
                .map_err(|_| HttpError::bad("non-numeric Content-Length"))?;
            if let Some(prev) = content_length {
                if prev != n {
                    // Two different declared lengths is the classic
                    // smuggling ambiguity; refuse outright.
                    return Err(HttpError::bad("conflicting Content-Length headers"));
                }
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::bad("Transfer-Encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let need = content_length.unwrap_or(0);
    if need > limits.max_body {
        return Err(HttpError::too_large("declared body exceeds max_body"));
    }
    Ok((
        Box::new(Request {
            method,
            target: target.to_string(),
            keep_alive,
            body: Vec::new(),
        }),
        need,
    ))
}

/// Serialize one response into `out` (appended, for pipelining).
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    use std::io::Write as _;
    let conn = if keep_alive { "keep-alive" } else { "close" };
    #[expect(
        clippy::let_underscore_must_use,
        reason = "writing into a Vec cannot fail; the io::Result is structural"
    )]
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body);
}

/// One parsed response (the client half, used by tests and the load
/// harness — the server never parses responses).
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether the server intends to keep the connection open.
    pub keep_alive: bool,
}

/// Incremental response parser, mirror of [`RequestParser`]. Assumes
/// the strict framing [`write_response`] produces (Content-Length
/// always present).
pub struct ResponseParser {
    buf: Vec<u8>,
    scanned: usize,
    state: RespState,
}

enum RespState {
    Head,
    Body { need: usize, resp: Response },
}

impl Default for ResponseParser {
    fn default() -> ResponseParser {
        ResponseParser::new()
    }
}

impl ResponseParser {
    /// A fresh response parser.
    pub fn new() -> ResponseParser {
        ResponseParser {
            buf: Vec::new(),
            scanned: 0,
            state: RespState::Head,
        }
    }

    /// Append newly-read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pull the next complete response; `None` means feed more bytes.
    /// A malformed response also returns `None` forever — the callers
    /// are harnesses talking to this crate's own server, where
    /// malformed framing means the test already failed.
    pub fn next_response(&mut self) -> Option<Response> {
        if let RespState::Body { need, .. } = &self.state {
            let need = *need;
            if self.buf.len() < need {
                return None;
            }
            let rest = self.buf.split_off(need);
            let body = std::mem::replace(&mut self.buf, rest);
            self.scanned = 0;
            let prev = std::mem::replace(&mut self.state, RespState::Head);
            if let RespState::Body { mut resp, .. } = prev {
                resp.body = body;
                return Some(resp);
            }
            return None;
        }
        let head_end = find_terminator(&self.buf, self.scanned)?;
        let head = self.buf[..head_end].to_vec();
        let rest = self.buf.split_off(head_end + 4);
        self.buf = rest;
        self.scanned = 0;
        let text = String::from_utf8_lossy(&head).into_owned();
        let mut lines = text.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut need = 0usize;
        let mut keep_alive = true;
        // audit: bounded(one pass over a single response head)
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    need = value.parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = !value.eq_ignore_ascii_case("close");
                }
            }
        }
        self.state = RespState::Body {
            need,
            resp: Response {
                status,
                body: Vec::new(),
                keep_alive,
            },
        };
        self.next_response()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> (Vec<Request>, Option<HttpError>) {
        let mut p = RequestParser::new(Limits::default());
        p.feed(bytes);
        let mut out = Vec::new();
        loop {
            match p.next_request() {
                Step::NeedMore => return (out, None),
                Step::Ready(r) => out.push(*r),
                Step::Fail(e) => return (out, Some(e)),
            }
        }
    }

    #[test]
    fn simple_get() {
        let (reqs, err) = parse_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(err.is_none());
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, Method::Get);
        assert_eq!(reqs[0].target, "/health");
        assert!(reqs[0].keep_alive);
    }

    #[test]
    fn post_with_body_and_pipelined_get() {
        let (reqs, err) = parse_all(
            b"POST /quote HTTP/1.1\r\nContent-Length: 4\r\n\r\nQ()\nGET /metrics HTTP/1.1\r\n\r\n",
        );
        assert!(err.is_none());
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].body, b"Q()\n");
        assert_eq!(reqs[1].target, "/metrics");
    }

    #[test]
    fn byte_by_byte_feed() {
        let raw = b"POST /quote HTTP/1.0\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nhi";
        let mut p = RequestParser::new(Limits::default());
        let mut got = None;
        for &b in raw.iter() {
            p.feed(&[b]);
            if let Step::Ready(r) = p.next_request() {
                got = Some(*r);
            }
        }
        let r = got.expect("request completes on the final byte");
        assert_eq!(r.body, b"hi");
        assert!(r.keep_alive, "HTTP/1.0 + keep-alive header");
    }

    #[test]
    fn conflicting_content_length_is_400() {
        let (_, err) =
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nAAAA");
        assert_eq!(err.map(|e| e.status), Some(400));
    }

    #[test]
    fn oversized_head_is_413() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X: {}\r\n\r\n", "a".repeat(9000)).as_bytes());
        let (_, err) = parse_all(&raw);
        assert_eq!(err.map(|e| e.status), Some(413));
    }

    #[test]
    fn response_roundtrip() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "application/json", b"{}", true);
        let mut p = ResponseParser::new();
        p.feed(&out);
        let r = p.next_response().expect("complete");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"{}");
        assert!(r.keep_alive);
    }
}
