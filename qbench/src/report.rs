//! Statistics and the one results schema every qbench mode writes.
//!
//! * Within a run: nearest-rank percentiles, over a few samples or over a
//!   fixed-size [`Histogram`], and [`Histogram::tail`] — the highest
//!   percentile of a fixed ladder that still has at least [`MIN_BEYOND`]
//!   samples beyond it, reported with its sample count (a p99.9 over 2,000
//!   samples rests on 2 values and is not reported).
//! * Across runs: [`median`] and [`quartiles`], the latter computed exactly
//!   as Python's `statistics.quantiles(values, n=4)` does.
//! * [`Meta`]: git commit, core count, seed, scale — recorded with every
//!   result.

use crate::json;
use std::fmt::Write as _;
use std::path::Path;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q ∈ (0, 1]` among `n ≥ 1` sorted
/// samples: the smallest index whose rank covers a `q` share of them.
pub fn rank_index(n: usize, q: f64) -> usize {
    debug_assert!(n > 0);
    // The epsilon keeps `0.99 * 100` at rank 99 despite binary rounding.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile of ascending `sorted` samples (`None` when empty).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), q)])
}

/// Sort samples ascending (NaNs last).
pub fn sort(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Sub-buckets per power of two: a recorded value is kept to within
/// 1/128 of itself.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// A log-linear histogram of `u64` values (HdrHistogram's layout):
/// values below 128 are kept exactly, larger ones in 128 linear
/// sub-buckets per power of two. Memory is fixed (about 58 KiB) however
/// many values are recorded, so a run's own bookkeeping does not grow
/// with its request rate.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; SUB + (64 - SUB_BITS as usize) * SUB],
            n: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        SUB + shift as usize * SUB + ((v >> shift) as usize - SUB)
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let (shift, sub) = ((i - SUB) / SUB, (i - SUB) % SUB);
        let width = (1u64 << shift) as f64;
        ((SUB + sub) as f64 * width, width)
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    /// Add every value of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile `q`, placed inside its bucket by rank so the
    /// result varies continuously; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let i = rank_index(self.n as usize, q) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c > i {
                let (lo, width) = Self::bucket(b);
                return Some(lo + width * ((i - seen) as f64 + 0.5) / c as f64);
            }
            seen += c;
        }
        None
    }

    /// The highest of p50, p90, p99, p99.9, p99.99, p99.999 with at least
    /// [`MIN_BEYOND`] values beyond its rank; `None` if even p50 lacks them.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.n as usize;
        LADDER
            .iter()
            .rev()
            .find(|&&q| n > 0 && n - 1 - rank_index(n, q) >= MIN_BEYOND)
            .and_then(|&q| {
                Some(Tail {
                    q,
                    value: self.quantile(q)?,
                    samples: n,
                })
            })
    }
}

/// A tail percentile the sample count supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The quantile, e.g. `0.999`.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

impl Tail {
    /// `p99`, `p99.9`, …
    pub fn label(&self) -> String {
        let pct = self.q * 100.0;
        let s = format!("{pct:.4}");
        format!("p{}", s.trim_end_matches('0').trim_end_matches('.'))
    }
}

/// Percentiles a tail is chosen from.
const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// The quartile of one run's repeated measurements of a quantity on its
/// better side: the lower quartile when lower is better, else the upper
/// one (nearest rank; `None` when empty).
///
/// The benchmark shares its machine, and other tenants only ever add
/// time, in spells that last seconds. A run repeats each measurement — per
/// window of the load, per reopen — and keeps the better quartile, which
/// reflects the program's own cost as long as such spells cover less than
/// three quarters of the repeats. A change to the program
/// moves every repeat, so it moves this quartile too. On a 2-core shared
/// box, a CPU loop timed by the median of 13 one-second windows varied
/// 11% between runs, by their lower quartile 6%.
pub fn better_quartile(values: &[f64], lower_is_better: bool) -> Option<f64> {
    percentile(
        &sort(values.to_vec()),
        if lower_is_better { 0.25 } else { 0.75 },
    )
}

/// Median as `statistics.median` computes it (mean of the middle pair
/// for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sort(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, ported from Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sort(values.to_vec());
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let n = 4usize;
            let m = ld + 1;
            let at = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
            };
            Some((at(1), at(3)))
        }
    }
}

/// One measured metric of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`quote_p99_us`).
    pub name: String,
    /// Unit (`us`, `s`, `1/s`, `MiB`, `ratio`, `count`).
    pub unit: &'static str,
    /// The value, with every digit.
    pub value: f64,
    /// Samples behind it (0 when it is not a sample statistic).
    pub samples: usize,
}

/// Metadata stored with every result.
#[derive(Clone, Debug)]
pub struct Meta {
    /// Commit hash, or `unknown` outside a git checkout.
    pub commit: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// Base workload seed.
    pub seed: u64,
    /// `full` or `smoke`.
    pub scale: String,
    /// Measured seconds per run.
    pub seconds: f64,
}

impl Meta {
    /// Metadata for a run made from `root` (the checkout directory).
    pub fn collect(root: &Path, seed: u64, scale: &str, seconds: f64) -> Meta {
        Meta {
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed,
            scale: scale.to_string(),
            seconds,
        }
    }

    /// Append as a JSON object.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"commit\":");
        json::push_str(out, &self.commit);
        let _ = write!(
            out,
            ",\"nproc\":{},\"seed\":{},\"scale\":",
            self.nproc, self.seed
        );
        json::push_str(out, &self.scale);
        out.push_str(",\"seconds\":");
        json::push_num(out, self.seconds);
        out.push('}');
    }
}

/// Read `HEAD`'s commit from the `.git` of `root` or its nearest ancestor
/// that has one, without running git (the benchmark may run where git is
/// absent; outside a repository this is `None`).
pub fn git_commit(root: &Path) -> Option<String> {
    let root = root.canonicalize().ok()?;
    let git = root
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// The result of one (workload, seed) run: the last stdout line of a run,
/// and one element of a results file's `runs`.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// The run's seed.
    pub seed: u64,
    /// Whether every oracle passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON object of the run protocol: `correct`,
    /// `attempted`, `failed`, and `metrics` (`{name: {value, unit}}`).
    pub fn line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, &m.name);
            out.push_str(":{\"value\":");
            json::push_num(&mut out, m.value);
            out.push_str(",\"unit\":");
            json::push_str(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The fuller record kept in a results file (adds workload, seed and
    /// sample counts).
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"workload\":");
        json::push_str(out, &self.workload);
        let _ = write!(
            out,
            ",\"seed\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.seed, self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(out, &m.name);
            out.push_str(":{\"value\":");
            json::push_num(out, m.value);
            out.push_str(",\"unit\":");
            json::push_str(out, m.unit);
            let _ = write!(out, ",\"samples\":{}}}", m.samples);
        }
        out.push_str("}}");
    }

    /// Parse a run line or a results-file run record. Workload and seed
    /// are taken from the record when present, else from the arguments.
    pub fn from_json(v: &json::Value, workload: &str, seed: u64) -> Result<RunResult, String> {
        let num = |k: &str| v.get(k).and_then(json::Value::as_f64);
        let correct = matches!(v.get("correct"), Some(json::Value::Bool(true)));
        let metrics = v
            .get("metrics")
            .and_then(json::Value::as_object)
            .ok_or("run record has no `metrics` object")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    unit: known_unit(m.get("unit").and_then(json::Value::as_str).unwrap_or("")),
                    value: m
                        .get("value")
                        .and_then(json::Value::as_f64)
                        .ok_or_else(|| format!("metric `{name}` has no numeric value"))?,
                    samples: m
                        .get("samples")
                        .and_then(json::Value::as_f64)
                        .unwrap_or(0.0) as usize,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            workload: v
                .get("workload")
                .and_then(json::Value::as_str)
                .unwrap_or(workload)
                .to_string(),
            seed: num("seed").map_or(seed, |s| s as u64),
            correct,
            attempted: num("attempted").unwrap_or(0.0) as u64,
            failed: num("failed").unwrap_or(0.0) as u64,
            metrics,
        })
    }
}

/// Units are a small closed set; map a parsed one back to its static name.
fn known_unit(u: &str) -> &'static str {
    const UNITS: [&str; 9] = [
        "us", "s", "1/s", "MiB", "ratio", "count", "bytes", "%", "ref",
    ];
    UNITS.iter().find(|&&k| k == u).copied().unwrap_or("?")
}

/// A results file: metadata plus every run, with per-(workload, metric)
/// median and quartiles across the runs.
pub fn results_json(meta: &Meta, runs: &[RunResult]) -> String {
    let mut out = String::from("{\"schema\":\"qbench/1\",\"meta\":");
    meta.push_json(&mut out);
    out.push_str(",\"runs\":[");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        r.push_json(&mut out);
    }
    out.push_str("\n],\"summary\":{");
    for (wi, (workload, table)) in summarize(runs).iter().enumerate() {
        if wi > 0 {
            out.push(',');
        }
        out.push('\n');
        json::push_str(&mut out, workload);
        out.push_str(":{");
        for (mi, row) in table.iter().enumerate() {
            if mi > 0 {
                out.push(',');
            }
            json::push_str(&mut out, &row.name);
            out.push_str(":{\"unit\":");
            json::push_str(&mut out, row.unit);
            for (k, v) in [("median", row.median), ("q1", row.q1), ("q3", row.q3)] {
                let _ = write!(out, ",\"{k}\":");
                json::push_num(&mut out, v);
            }
            let _ = write!(out, ",\"runs\":{}}}", row.runs);
        }
        out.push('}');
    }
    out.push_str("\n}}\n");
    out
}

/// One (workload, metric) row of a summary.
#[derive(Clone, Debug)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Median across runs.
    pub median: f64,
    /// First quartile across runs.
    pub q1: f64,
    /// Third quartile across runs.
    pub q3: f64,
    /// Runs contributing.
    pub runs: usize,
}

/// Group runs by workload (first-seen order) and summarize each metric.
pub fn summarize(runs: &[RunResult]) -> Vec<(String, Vec<Row>)> {
    let mut out: Vec<(String, Vec<Row>)> = Vec::new();
    for r in runs {
        if !out.iter().any(|(w, _)| *w == r.workload) {
            out.push((r.workload.clone(), Vec::new()));
        }
    }
    for (workload, rows) in &mut out {
        let mine: Vec<&RunResult> = runs.iter().filter(|r| r.workload == *workload).collect();
        let mut names: Vec<(&str, &'static str)> = Vec::new();
        for m in mine.iter().flat_map(|r| &r.metrics) {
            if !names.iter().any(|(n, _)| *n == m.name) {
                names.push((&m.name, m.unit));
            }
        }
        for (name, unit) in names {
            let values = values_of(&mine, name);
            let (q1, q3) = quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
            rows.push(Row {
                name: name.to_string(),
                unit,
                median: median(&values).unwrap_or(f64::NAN),
                q1,
                q3,
                runs: values.len(),
            });
        }
    }
    out
}

/// The values of metric `name` across `runs`, in run order.
pub fn values_of(runs: &[&RunResult], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|m| m.name == name))
        .map(|m| m.value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_index_edges() {
        assert_eq!(rank_index(1, 0.5), 0);
        assert_eq!(rank_index(1, 0.999), 0);
        assert_eq!(rank_index(2, 0.5), 0);
        assert_eq!(rank_index(2, 0.51), 1);
        assert_eq!(rank_index(100, 0.99), 98);
        assert_eq!(rank_index(100, 1.0), 99);
        assert_eq!(rank_index(1000, 0.999), 998);
        assert_eq!(rank_index(10, 0.0), 0, "q = 0 clamps to the minimum");
    }

    #[test]
    fn percentile_of_empty_and_single() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
    }

    fn hist(n: u64) -> Histogram {
        let mut h = Histogram::default();
        for v in 0..n {
            h.record(v);
        }
        h
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let t = hist(2000).tail().expect("2,000 samples support p99");
        assert_eq!(t.label(), "p99", "p99.9 of 2,000 leaves only 2 beyond");
        assert_eq!(t.samples, 2000);
        assert_eq!(2000 - 1 - rank_index(2000, 0.99), 20);
        assert_eq!(
            hist(10_000).tail().map(|t| t.label()).as_deref(),
            Some("p99.9")
        );
        assert_eq!(
            hist(10_009).tail().map(|t| t.label()).as_deref(),
            Some("p99.9")
        );
        assert_eq!(
            hist(1_009).tail().map(|t| t.label()).as_deref(),
            Some("p99")
        );
        // Exactly 10 beyond p50 needs 20 samples; 19 is not enough.
        assert_eq!(hist(20).tail().map(|t| t.label()).as_deref(), Some("p50"));
        assert_eq!(hist(19).tail(), None);
        assert_eq!(hist(0).tail(), None);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let h = hist(100_000);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = q * 100_000.0;
            let got = h.quantile(q).expect("non-empty");
            assert!(
                (got - exact).abs() <= exact / 128.0 + 1.0,
                "q{q}: {got} vs {exact}"
            );
        }
        // Small values are exact: 0..100 has median rank 49, placed
        // inside its unit bucket.
        let small = hist(100);
        assert_eq!(small.quantile(0.5), Some(49.5));
        assert_eq!(Histogram::default().quantile(0.5), None);
        // Buckets tile the range: every value lands in the bucket whose
        // bounds contain it.
        for v in [
            0u64,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let (lo, width) = Histogram::bucket(Histogram::index(v));
            // `<=` at the top: u64::MAX rounds up to its bucket's end as f64.
            assert!(
                lo <= v as f64 && v as f64 <= lo + width,
                "{v} outside [{lo}, +{width})"
            );
        }
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median([1, 2, 3, 4]) == 2.5
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[3.0]), Some((3.0, 3.0)));
    }

    #[test]
    fn run_line_round_trips() {
        let r = RunResult {
            workload: "hot_quotes".into(),
            seed: 3,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "quote_p50_us".into(),
                unit: "us",
                value: 12.345678901,
                samples: 9,
            }],
        };
        let v = json::parse(&r.line()).expect("line is JSON");
        let back = RunResult::from_json(&v, "hot_quotes", 3).expect("reads back");
        assert_eq!(back.metrics[0].value, 12.345678901);
        assert!(back.correct);
        let mut full = String::new();
        r.push_json(&mut full);
        let back = RunResult::from_json(&json::parse(&full).expect("JSON"), "x", 0).expect("reads");
        assert_eq!(
            (back.workload.as_str(), back.seed, back.metrics[0].samples),
            ("hot_quotes", 3, 9)
        );
    }
}
