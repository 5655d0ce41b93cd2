//! The flight recorder: a fixed-size ring of span trees from quotes
//! that went wrong.
//!
//! Latency histograms tell you *that* the tail is bad; the flight
//! recorder tells you *why*: for every slow, degraded, contended, or
//! panicking quote the market captures the full per-stage span tree
//! (plus the query text and outcome) into a small ring. `qbdp stats
//! --flight` dumps it newest-last.
//!
//! # Eviction policy
//!
//! The ring holds [`CAPACITY`] records. Capture appends; when full, the
//! **oldest record is evicted** regardless of reason — recent context
//! beats old context for post-hoc debugging, and a bounded ring means
//! the recorder can run forever without an allocator treadmill. A
//! monotone sequence number survives eviction, so a dump shows how many
//! records were lost (`first seq > 1` ⇒ older captures rolled off).
//!
//! # Locking is fine here — deliberately
//!
//! Captures happen only on rare, already-slow outcomes (a degraded
//! quote has burnt its whole budget; a contended purchase has retried
//! eight times), so this module uses a plain `std::sync::Mutex`: the
//! crate's one lock, `#[expect]`ed against the `disallowed_types` rule
//! in `crates/obs/clippy.toml`. The never-wait guarantee covers the
//! per-quote `record*` path, not the crash dump; a unit test holds the
//! ring and checks that every record call still returns.

use crate::metrics::{record, Ctr};
use crate::trace::Span;
use std::sync::atomic::{AtomicU64, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "the flight ring is captured only on rare failure paths, never by `record*`"
)]
use std::sync::Mutex;

/// Ring capacity: enough tail context to debug a bad minute, small
/// enough to never matter for memory.
pub const CAPACITY: usize = 32;

/// Why a quote earned a flight record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Why {
    /// Latency crossed the slow threshold ([`set_slow_threshold_us`]).
    Slow,
    /// The quote was served degraded (budget exhausted, interval price).
    Degraded,
    /// A durable purchase exhausted its revalidation retries.
    Contended,
    /// Pricing panicked and was contained.
    Panicked,
}

impl Why {
    /// Stable lowercase tag for exports.
    pub fn tag(self) -> &'static str {
        match self {
            Why::Slow => "slow",
            Why::Degraded => "degraded",
            Why::Contended => "contended",
            Why::Panicked => "panicked",
        }
    }
}

/// One captured quote: outcome, query, wall time, and the span tree.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Monotone capture sequence number (1-based; gaps mean eviction).
    pub seq: u64,
    /// Why this quote was captured.
    pub why: Why,
    /// The (rendered) query text.
    pub query: String,
    /// End-to-end wall time in microseconds.
    pub total_us: u64,
    /// Free-form outcome detail (error text, interval, …).
    pub detail: String,
    /// The stage spans collected while pricing (may be empty if the
    /// panic fired before any stage closed).
    pub spans: Vec<Span>,
}

static SEQ: AtomicU64 = AtomicU64::new(0);
#[expect(
    clippy::disallowed_types,
    reason = "the flight ring is captured only on rare failure paths, never by `record*`"
)]
static RING: Mutex<Vec<FlightRecord>> = Mutex::new(Vec::new());
/// Quotes at least this slow are captured even when healthy.
/// `u64::MAX` (the default) disables slow-capture.
static SLOW_US: AtomicU64 = AtomicU64::new(u64::MAX);

/// Set the slow-quote capture threshold in microseconds
/// (`u64::MAX` disables).
pub fn set_slow_threshold_us(us: u64) {
    SLOW_US.store(us, Ordering::Relaxed);
}

/// The current slow-quote threshold in microseconds.
pub fn slow_threshold_us() -> u64 {
    SLOW_US.load(Ordering::Relaxed)
}

/// Capture one record (no-op while telemetry is disabled). Takes the
/// ring lock — callers are rare failure paths, never the hot path.
pub fn capture(why: Why, query: &str, total_us: u64, detail: String, spans: Vec<Span>) {
    if !crate::metrics::enabled() {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    record(Ctr::FlightCaptures, 1);
    if let Ok(mut ring) = RING.lock() {
        if ring.len() >= CAPACITY {
            ring.remove(0);
        }
        ring.push(FlightRecord {
            seq,
            why,
            query: query.to_string(),
            total_us,
            detail,
            spans,
        });
    }
}

/// Snapshot the ring, oldest first.
pub fn dump() -> Vec<FlightRecord> {
    RING.lock().map(|r| r.clone()).unwrap_or_default()
}

/// Empty the ring (tests; the sequence counter keeps running).
pub fn clear() {
    if let Ok(mut ring) = RING.lock() {
        ring.clear();
    }
}

/// Render records as JSONL, one object per record, spans inlined.
pub fn to_jsonl(records: &[FlightRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let mut spans = String::new();
        let mut sorted: Vec<&Span> = r.spans.iter().collect();
        sorted.sort_by_key(|s| (s.start_us, s.depth));
        for (i, s) in sorted.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            spans.push_str(&format!(
                "{{\"span\":\"{}\",\"detail\":\"{}\",\"depth\":{},\"start_us\":{},\"dur_us\":{},\"n\":{},\"fuel\":{}}}",
                s.name, s.detail, s.depth, s.start_us, s.dur_us, s.n, s.fuel
            ));
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"why\":\"{}\",\"query\":{},\"total_us\":{},\"detail\":{},\"spans\":[{}]}}\n",
            r.seq,
            r.why.tag(),
            crate::export::json_string(&r.query),
            r.total_us,
            crate::export::json_string(&r.detail),
            spans
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{record_gauge, record_hist, set_enabled, Gauge, Hst, Stopwatch};
    use std::time::Duration;

    fn span(name: &'static str) -> Span {
        Span {
            name,
            detail: "",
            n: 0,
            fuel: 0,
            start_us: 0,
            dur_us: 1,
            depth: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let _g = crate::test_guard();
        set_enabled(true);
        clear();
        let base = SEQ.load(Ordering::Relaxed);
        for i in 0..(CAPACITY as u64 + 5) {
            capture(
                Why::Degraded,
                &format!("Q{i}() :- R(x)"),
                i,
                String::new(),
                vec![span("flow_solve")],
            );
        }
        let dumped = dump();
        set_enabled(false);
        assert_eq!(dumped.len(), CAPACITY, "ring is bounded");
        assert_eq!(
            dumped.first().map(|r| r.seq),
            Some(base + 6),
            "the five oldest rolled off"
        );
        assert!(
            dumped.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
            "sequence stays dense inside the ring"
        );
    }

    /// The record path never waits: with the ring held, every
    /// `record*` call (and the stopwatch that feeds them) still returns.
    #[test]
    fn record_path_never_waits_on_the_ring() {
        let _g = crate::test_guard();
        set_enabled(true);
        let ring = RING.lock().unwrap_or_else(|e| e.into_inner());
        let (done, finished) = std::sync::mpsc::channel();
        let recorder = std::thread::spawn(move || {
            record(Ctr::FlightCaptures, 1);
            record_gauge(Gauge::InFlight, 1);
            record_hist(Hst::QuoteLatencyUs, 1);
            Stopwatch::start().stop(Hst::QuoteLatencyUs);
            done.send(()).ok();
        });
        let returned = finished.recv_timeout(Duration::from_secs(5));
        drop(ring);
        recorder.join().unwrap();
        set_enabled(false);
        assert!(returned.is_ok(), "a record call waited on the flight ring");
    }

    #[test]
    fn disabled_capture_is_dropped() {
        let _g = crate::test_guard();
        set_enabled(false);
        clear();
        capture(Why::Slow, "Q() :- R(x)", 9, String::new(), Vec::new());
        assert!(dump().is_empty());
    }

    #[test]
    fn jsonl_escapes_query_text() {
        let rec = FlightRecord {
            seq: 1,
            why: Why::Panicked,
            query: "Q(\"x\") :- R(x)".into(),
            total_us: 3,
            detail: "boom \"quoted\"".into(),
            spans: vec![span("classify")],
        };
        let text = to_jsonl(&[rec]);
        assert!(text.contains("\\\"x\\\""), "quotes escaped: {text}");
        assert!(text.contains("\"why\":\"panicked\""));
        assert!(text.contains("\"span\":\"classify\""));
    }
}
