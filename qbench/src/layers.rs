//! Per-layer attribution, from two sources:
//!
//! * **Counters** — the program's own `qbdp_obs` registry, plan-cache
//!   stats, WAL position and cache size, read before and after the
//!   open-loop phase ([`Snap`]); the difference is what that phase did.
//! * **Replay** — after the load, the benchmark replays a sample of the
//!   run's requests single-threaded, timing one call into each layer's
//!   public functions ([`replay`]). Each call is a span parented to the
//!   request's root span; spans stay in memory and are written as JSONL
//!   when the run ends.

use crate::json;
use crate::report;
use crate::workload::{Fixture, Kind};
use qbdp_core::{PlanStats, Pricer};
use qbdp_market::{DurableMarket, Purchase};
use qbdp_obs::metrics::{bucket_le, HistSnapshot, NBUCKETS};
use qbdp_obs::{Ctr, Hst};
use qbdp_query::{eval::eval_cq, parser::parse_rule, pretty};
use qbdp_serve::http::{Limits, RequestParser, Step};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Counter state at one instant.
pub struct Snap {
    ctr: Vec<u64>,
    hist: Vec<HistSnapshot>,
    /// Plan-cache tallies.
    pub plan: PlanStats,
    /// End of the WAL, bytes.
    pub wal_pos: u64,
    /// Quotes held in the quote cache.
    pub cached: usize,
    /// Process CPU time, seconds.
    pub cpu_s: f64,
    /// CPU time of the thread that took the snapshot (the load
    /// generator), seconds.
    pub load_cpu_s: f64,
    /// When it was taken.
    pub at: Instant,
}

impl Snap {
    /// Read every counter now.
    pub fn take(dm: &DurableMarket) -> Snap {
        let reg = qbdp_obs::global();
        Snap {
            ctr: Ctr::ALL.iter().map(|&c| reg.counter(c).get()).collect(),
            hist: Hst::ALL.iter().map(|&h| reg.hist(h).snapshot()).collect(),
            plan: dm.market().plan_stats(),
            wal_pos: dm.wal_position(),
            cached: dm.market().cached_quotes(),
            cpu_s: crate::sys::cpu_seconds().unwrap_or(0.0),
            load_cpu_s: crate::sys::thread_cpu_seconds().unwrap_or(0.0),
            at: Instant::now(),
        }
    }
}

/// What happened between two snapshots.
pub struct Delta<'a> {
    /// Earlier snapshot.
    pub a: &'a Snap,
    /// Later snapshot.
    pub b: &'a Snap,
}

impl Delta<'_> {
    /// Counter increase.
    pub fn ctr(&self, c: Ctr) -> u64 {
        self.b.ctr[c as usize].wrapping_sub(self.a.ctr[c as usize])
    }

    fn buckets(&self, h: Hst) -> [u64; NBUCKETS] {
        let (a, b) = (&self.a.hist[h as usize], &self.b.hist[h as usize]);
        let mut out = [0u64; NBUCKETS];
        for (i, o) in out.iter_mut().enumerate() {
            *o = b.buckets[i].wrapping_sub(a.buckets[i]);
        }
        out
    }

    /// Values recorded onto histogram `h`.
    pub fn count(&self, h: Hst) -> u64 {
        self.buckets(h).iter().sum()
    }

    /// Quantile `q` of histogram `h`'s new values, interpolated linearly
    /// inside its log₂ bucket (0 when nothing was recorded).
    pub fn quantile(&self, h: Hst, q: f64) -> f64 {
        bucket_quantile(&self.buckets(h), q)
    }

    /// `num / den`, 0 when `den` is 0.
    pub fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }
}

/// Quantile of log₂-bucketed counts (bucket `i` spans `(2^(i-1), 2^i]`).
pub fn bucket_quantile(buckets: &[u64; NBUCKETS], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let Some(hi) = bucket_le(i) else {
                return lo;
            };
            let frac = (rank - seen) as f64 / n as f64;
            return lo + (hi as f64 - lo) * frac;
        }
        seen += n;
    }
    0.0
}

/// One request as the client saw it during the load (trace runs).
#[derive(Clone, Copy, Debug)]
pub struct ClientSpan {
    /// Position in the open-loop schedule.
    pub op: usize,
    /// Request-table index.
    pub req: u32,
    /// Due, sent and answered, ns after the phase start.
    pub due_ns: u64,
    /// When the bytes went to the socket.
    pub sent_ns: u64,
    /// When the response was read.
    pub done_ns: u64,
}

/// Replayed per-layer timings, microseconds.
#[derive(Default)]
pub struct Replayed {
    /// `RequestParser::feed` + `next_request`.
    pub http_parse: Vec<f64>,
    /// `json::quote` / `json::purchase`.
    pub json_encode: Vec<f64>,
    /// One-query `Market::quote_batch` on a cached key.
    pub hit: Vec<f64>,
    /// `parse_rule`.
    pub parse: Vec<f64>,
    /// `pretty::render`.
    pub render: Vec<f64>,
    /// `eval_cq`.
    pub eval: Vec<f64>,
    /// Cold `Pricer::price_cq`, once per distinct replayed query.
    pub price_cold: Vec<f64>,
}

/// In-memory span log, written as JSONL at the end of a run.
#[derive(Default)]
pub struct SpanLog {
    lines: String,
    next_id: u64,
}

impl SpanLog {
    /// Record one span; returns its id.
    pub fn span(
        &mut self,
        req: usize,
        parent: Option<u64>,
        name: &str,
        clock: &str,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        let _ = write!(self.lines, "{{\"req\":{req},\"id\":{id},\"parent\":");
        match parent {
            Some(p) => {
                let _ = write!(self.lines, "{p}");
            }
            None => self.lines.push_str("null"),
        }
        self.lines.push_str(",\"name\":");
        json::push_str(&mut self.lines, name);
        self.lines.push_str(",\"clock\":");
        json::push_str(&mut self.lines, clock);
        let _ = writeln!(self.lines, ",\"start_ns\":{start_ns},\"dur_ns\":{dur_ns}}}");
        id
    }

    /// The JSONL text.
    pub fn text(&self) -> &str {
        &self.lines
    }
}

/// Time one call, in microseconds since the replay epoch and as a
/// duration, recording it as a span.
fn timed<T>(
    log: &mut SpanLog,
    epoch: Instant,
    req: usize,
    parent: u64,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, f64, u64) {
    let start = Instant::now();
    let out = black_box(f());
    let dur = start.elapsed();
    let start_ns = start.duration_since(epoch).as_nanos() as u64;
    let id = log.span(
        req,
        Some(parent),
        name,
        "replay",
        start_ns,
        dur.as_nanos() as u64,
    );
    (out, dur.as_nanos() as f64 / 1e3, id)
}

/// Replay up to `cap` of the load's requests (evenly spaced) through each
/// layer's public functions, one call at a time.
pub fn replay(
    dm: &DurableMarket,
    fx: &Fixture,
    load: &[ClientSpan],
    cap: usize,
    log: &mut SpanLog,
) -> Replayed {
    let mut out = Replayed::default();
    if load.is_empty() || cap == 0 {
        return out;
    }
    let (catalog, instance, prices) = dm.market().with_pricer(|p| {
        (
            p.catalog().clone(),
            p.instance().clone(),
            p.prices().clone(),
        )
    });
    let pricer = Pricer::new(catalog.clone(), instance.clone(), prices)
        .expect("the served market's own parts rebuild a pricer");
    let schema = catalog.schema();
    let stride = load.len().div_ceil(cap).max(1);
    let mut priced = vec![false; fx.queries.len()];
    let epoch = Instant::now();
    for c in load.iter().step_by(stride) {
        let root = log.span(
            c.op,
            None,
            "request",
            "load",
            c.due_ns,
            c.done_ns - c.due_ns,
        );
        log.span(
            c.op,
            Some(root),
            "client.send",
            "load",
            c.due_ns,
            c.sent_ns - c.due_ns,
        );
        log.span(
            c.op,
            Some(root),
            "client.wait",
            "load",
            c.sent_ns,
            c.done_ns - c.sent_ns,
        );
        let bytes = &fx.requests[c.req as usize];
        let qi = fx.req_query[c.req as usize] as usize;
        let text = fx.queries[qi].as_str();
        let (_, us, _) = timed(log, epoch, c.op, root, "serve.http_parse", || {
            let mut p = RequestParser::new(Limits::default());
            p.feed(bytes);
            matches!(p.next_request(), Step::Ready(_))
        });
        out.http_parse.push(us);
        let (q, us, _) = timed(log, epoch, c.op, root, "query.parse", || {
            parse_rule(schema, text)
        });
        out.parse.push(us);
        let Ok(q) = q else { continue };
        let (_, us, _) = timed(log, epoch, c.op, root, "query.render", || {
            pretty::render(&q, schema)
        });
        out.render.push(us);
        // The first call makes sure the key is cached; the second is the
        // hit path a served quote takes.
        let _ = dm.market().quote_batch(&[text]);
        let (quote, us, _) = timed(log, epoch, c.op, root, "market.quote_batch", || {
            dm.market().quote_batch(&[text])
        });
        out.hit.push(us);
        let Some(Ok(quote)) = quote.into_iter().next() else {
            continue;
        };
        // Every request's query is evaluated, as a purchase's is, so the
        // query layer's evaluator is timed on every workload.
        let (answer, us, _) = timed(log, epoch, c.op, root, "query.eval", || {
            eval_cq(&q, &instance)
        });
        out.eval.push(us);
        let (_, us, _) = match fx.req_kind[c.req as usize] {
            Kind::Quote => timed(log, epoch, c.op, root, "serve.json_encode", || {
                qbdp_serve::json::quote(&quote)
            }),
            Kind::Purchase => {
                let mut answer: Vec<_> =
                    answer.map(|a| a.into_iter().collect()).unwrap_or_default();
                answer.sort();
                let purchase = Purchase {
                    transaction_id: 0,
                    quote,
                    answer,
                };
                timed(log, epoch, c.op, root, "serve.json_encode", || {
                    qbdp_serve::json::purchase(&purchase)
                })
            }
        };
        out.json_encode.push(us);
        if !priced[qi] {
            priced[qi] = true;
            let (_, us, _) = timed(log, epoch, c.op, root, "core.price_cq", || {
                pricer.price_cq(&q)
            });
            out.price_cold.push(us);
        }
    }
    out
}

/// Median of microsecond samples (0 when there are none).
pub fn p50(samples: &[f64]) -> f64 {
    report::percentile(&report::sort(samples.to_vec()), 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantiles_interpolate_inside_log2_buckets() {
        let mut b = [0u64; NBUCKETS];
        assert_eq!(bucket_quantile(&b, 0.5), 0.0);
        // 100 values in (16, 32]: the median sits halfway through.
        b[5] = 100;
        assert_eq!(bucket_quantile(&b, 0.5), 24.0);
        assert_eq!(bucket_quantile(&b, 1.0), 32.0);
        // Add 100 in [0, 1]: the median is now the top of bucket 0.
        b[0] = 100;
        assert_eq!(bucket_quantile(&b, 0.5), 1.0);
        let mut inf = [0u64; NBUCKETS];
        inf[NBUCKETS - 1] = 1;
        assert_eq!(bucket_quantile(&inf, 0.5), (1u64 << 30) as f64);
    }
}
