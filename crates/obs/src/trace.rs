//! Per-quote pricing-pipeline trace spans.
//!
//! A trace is a thread-local buffer of [`Span`]s collected between
//! [`begin`] and [`finish`]. The pricing stages (cache lookup →
//! plan-cache diff → normalization → flow solve → hitting set) open
//! [`SpanGuard`]s; each guard measures its own wall time and records
//! its outcome (`detail`), an optional magnitude (`n`), and the budget
//! fuel consumed inside it. Spans carry an explicit `depth` so the flat
//! buffer renders back into a tree (children are pushed before their
//! parents close; sort by `start_us` to display).
//!
//! The whole module is thread-local and allocation-shy: when no trace
//! is active on the current thread, [`span`] reads one thread-local
//! flag and returns an inert guard — no clock read, no allocation.
//! A quote whose pricing moves to a batch worker carries its trace
//! along: [`suspend`] parks the buffer in a value, the worker
//! [`resume`]s it, so one quote is one span tree whichever threads
//! served it. Nothing here ever takes a lock (`crates/obs/clippy.toml`
//! disallows them: spans are `record*` paths by construction).
//!
//! The market drives the lifecycle: [`begin`] before pricing,
//! [`finish`] after, then either discards the spans (fast healthy
//! quote), hands them to the flight recorder (slow/degraded/contended/
//! panicking), and/or parks them in the thread's `last` slot for
//! `qbdp price --trace` to fetch via [`take_last`].

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One completed pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`"cache_lookup"`, `"flow_solve"`, …).
    pub name: &'static str,
    /// Outcome tag (`"hit"`, `"warm"`, `"cold"`, `""` when mute).
    pub detail: &'static str,
    /// Optional magnitude (branch index, entries swept, …).
    pub n: u64,
    /// Budget fuel consumed inside this span.
    pub fuel: u64,
    /// Microseconds from trace start to span open.
    pub start_us: u64,
    /// Span wall time in microseconds.
    pub dur_us: u64,
    /// Nesting depth (0 = top level).
    pub depth: u16,
}

struct Buf {
    t0: Instant,
    depth: u16,
    spans: Vec<Span>,
}

thread_local! {
    /// Fast gate: is a trace active on this thread?
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static BUF: RefCell<Option<Buf>> = const { RefCell::new(None) };
    /// The most recent finished trace, kept only in keep-last mode.
    static LAST: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// Keep-last mode: `qbdp price --trace` turns this on so the CLI
    /// can fetch the spans after the market has finished the quote.
    static KEEP_LAST: Cell<bool> = const { Cell::new(false) };
}

/// Is a trace active on the current thread?
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Start collecting spans on this thread (clears any previous buffer).
pub fn begin() {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        match b.as_mut() {
            Some(buf) => {
                buf.spans.clear();
                buf.depth = 0;
                buf.t0 = Instant::now();
            }
            None => {
                *b = Some(Buf {
                    t0: Instant::now(),
                    depth: 0,
                    spans: Vec::with_capacity(16),
                });
            }
        }
    });
    ACTIVE.with(|a| a.set(true));
}

/// Stop collecting and return the spans (empty if no trace was active).
/// In keep-last mode the spans are also copied into the thread's `last`
/// slot for [`take_last`].
pub fn finish() -> Vec<Span> {
    if !active() {
        return Vec::new();
    }
    ACTIVE.with(|a| a.set(false));
    let spans = BUF.with(|b| {
        b.borrow_mut()
            .as_mut()
            .map(|buf| std::mem::take(&mut buf.spans))
            .unwrap_or_default()
    });
    if KEEP_LAST.with(|k| k.get()) {
        LAST.with(|l| *l.borrow_mut() = spans.clone());
    }
    spans
}

/// A trace taken off its thread by [`suspend`], to be continued by
/// [`resume`] — possibly on another thread. Inert when none was active.
pub struct Suspended(Option<Buf>);

/// Stop collecting on this thread and hand over the open trace.
pub fn suspend() -> Suspended {
    if !active() {
        return Suspended(None);
    }
    ACTIVE.with(|a| a.set(false));
    Suspended(BUF.with(|b| b.borrow_mut().take()))
}

/// Continue a [`suspend`]ed trace on this thread, same time origin.
pub fn resume(trace: Suspended) {
    let Some(buf) = trace.0 else { return };
    BUF.with(|b| *b.borrow_mut() = Some(buf));
    ACTIVE.with(|a| a.set(true));
}

/// Turn keep-last mode on or off for this thread.
pub fn set_keep_last(on: bool) {
    KEEP_LAST.with(|k| k.set(on));
}

/// Take the most recent finished trace on this thread (keep-last mode).
pub fn take_last() -> Vec<Span> {
    LAST.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// An in-flight stage. Inert (all `None`/zero) when no trace is active,
/// so guards are free on untraced quotes. Records itself on drop.
pub struct SpanGuard {
    name: &'static str,
    detail: &'static str,
    n: u64,
    fuel: u64,
    start: Option<Instant>,
    start_us: u64,
    depth: u16,
}

/// Open a stage span. Cheap no-op when no trace is active.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !active() {
        return SpanGuard {
            name,
            detail: "",
            n: 0,
            fuel: 0,
            start: None,
            start_us: 0,
            depth: 0,
        };
    }
    let now = Instant::now();
    let (start_us, depth) = BUF.with(|b| {
        let mut b = b.borrow_mut();
        match b.as_mut() {
            Some(buf) => {
                let d = buf.depth;
                buf.depth = buf.depth.saturating_add(1);
                (now.duration_since(buf.t0).as_micros() as u64, d)
            }
            None => (0, 0),
        }
    });
    SpanGuard {
        name,
        detail: "",
        n: 0,
        fuel: 0,
        start: Some(now),
        start_us,
        depth,
    }
}

impl SpanGuard {
    /// Tag the span's outcome (`"hit"`, `"warm"`, `"fallback"`, …).
    #[inline]
    pub fn detail(&mut self, d: &'static str) {
        self.detail = d;
    }

    /// Attach a magnitude (branch count, entries swept, …).
    #[inline]
    pub fn n(&mut self, v: u64) {
        self.n = v;
    }

    /// Attach the budget fuel consumed inside this span.
    #[inline]
    pub fn fuel(&mut self, f: u64) {
        self.fuel = f;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = start.elapsed().as_micros() as u64;
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            if let Some(buf) = b.as_mut() {
                buf.depth = buf.depth.saturating_sub(1);
                buf.spans.push(Span {
                    name: self.name,
                    detail: self.detail,
                    n: self.n,
                    fuel: self.fuel,
                    start_us: self.start_us,
                    dur_us,
                    depth: self.depth,
                });
            }
        });
    }
}

/// Record an instantaneous (zero-duration) event span.
pub fn event(name: &'static str, detail: &'static str) {
    if !active() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if let Some(buf) = b.as_mut() {
            let start_us = buf.t0.elapsed().as_micros() as u64;
            let depth = buf.depth;
            buf.spans.push(Span {
                name,
                detail,
                n: 0,
                fuel: 0,
                start_us,
                dur_us: 0,
                depth,
            });
        }
    });
}

/// Render spans as JSONL: one object per span, sorted by start time so
/// the depth field reconstructs the tree top-down.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_us, s.depth));
    let mut out = String::new();
    for s in sorted {
        out.push_str(&format!(
            "{{\"span\":\"{}\",\"detail\":\"{}\",\"depth\":{},\"start_us\":{},\"dur_us\":{},\"n\":{},\"fuel\":{}}}\n",
            s.name, s.detail, s.depth, s.start_us, s.dur_us, s.n, s.fuel
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_flatten() {
        begin();
        {
            let mut outer = span("outer");
            outer.detail("ok");
            {
                let mut inner = span("inner");
                inner.n(3);
                inner.fuel(42);
            }
        }
        event("mark", "tick");
        let spans = finish();
        assert!(!active());
        assert_eq!(spans.len(), 3);
        // Children close (and push) before parents.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].fuel, 42);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].detail, "ok");
        assert_eq!(spans[2].name, "mark");
        assert_eq!(spans[2].dur_us, 0);
    }

    #[test]
    fn inactive_spans_are_inert() {
        assert!(!active());
        let g = span("nothing");
        drop(g);
        assert!(finish().is_empty());
    }

    #[test]
    fn suspended_trace_continues_on_another_thread() {
        begin();
        drop(span("lookup"));
        let parked = suspend();
        assert!(!active(), "suspend stops collection here");
        drop(span("lost"));
        let spans = std::thread::spawn(move || {
            resume(parked);
            drop(span("solve"));
            finish()
        })
        .join()
        .unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["lookup", "solve"]);
        assert!(spans[1].start_us >= spans[0].start_us, "one time origin");
        // An inert trace resumes as nothing.
        resume(suspend());
        assert!(!active());
    }

    #[test]
    fn keep_last_parks_a_copy() {
        set_keep_last(true);
        begin();
        drop(span("stage"));
        let direct = finish();
        let parked = take_last();
        set_keep_last(false);
        assert_eq!(direct, parked);
        assert!(take_last().is_empty(), "take_last drains");
    }

    #[test]
    fn jsonl_orders_by_start() {
        begin();
        {
            let _a = span("first");
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        {
            let _b = span("second");
        }
        let text = to_jsonl(&finish());
        let first = text.lines().next().unwrap_or("");
        assert!(first.contains("\"span\":\"first\""), "got: {text}");
        assert_eq!(text.lines().count(), 2);
    }
}
