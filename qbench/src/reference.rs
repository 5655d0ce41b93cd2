//! A fixed computation timed alongside the program's work, so the gated
//! costs can be stated in units of the machine's speed at the moment they
//! were measured.
//!
//! The benchmark shares a 2-core machine with other tenants, and their
//! load slows this process's CPU itself, in spells from a second to
//! minutes: a cold reopen of the same market directory took 0.25 ms in one
//! run and 0.39 ms in the next, and its thread CPU time grew with its wall
//! time, so CPU time does not escape the slowdown. This computation
//! (formatting, sorting and indexing short strings: the allocation and
//! comparison work of the market's parsing and catalog building) slows in
//! step. Timed in turn with that reopen for a minute, the reopen took
//! 0.40–0.49 passes of it while both times moved by half. Over ten runs of
//! each workload, reopen time in seconds spread 32–35% (interquartile
//! distance over median); in passes, 4–9%.
//!
//! The benchmark owns this code: a change to the program moves what is
//! measured against the reference, not the reference.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Strings per pass.
const STRINGS: usize = 2_000;

/// How often [`sample`] times a pass.
const PERIOD: Duration = Duration::from_millis(100);

/// One pass of the reference computation.
pub fn pass() {
    let mut lines: Vec<String> = (0..STRINGS)
        .map(|i| format!("tuple R(v{i}, v{})", i * 7 % STRINGS))
        .collect();
    lines.sort();
    let mut index = BTreeMap::new();
    for line in &lines {
        index.insert(line.clone(), line.len());
    }
    std::hint::black_box(index);
}

/// Wall time of one pass, seconds.
pub fn wall_s() -> f64 {
    let t = Instant::now();
    pass();
    t.elapsed().as_secs_f64()
}

/// Passes timed on a thread of their own while the program runs.
pub struct Sampled {
    /// CPU time of each pass, seconds.
    pub pass_cpu_s: Vec<f64>,
    /// CPU time the sampling thread used in all, seconds.
    pub thread_cpu_s: f64,
}

/// Run a pass every [`PERIOD`] on the calling thread until `stop` is set.
///
/// Each pass is timed by the thread's own CPU time, read just after the
/// sleeps before and after it (see [`crate::sys::thread_run_ns`]), so
/// time spent waiting for a CPU the program's threads hold does not count.
/// Empty where the kernel does not report it.
pub fn sample(stop: &AtomicBool) -> Sampled {
    let start = crate::sys::thread_run_ns();
    let mut before = None;
    let mut pass_cpu_s = Vec::new();
    loop {
        std::thread::sleep(PERIOD);
        let now = crate::sys::thread_run_ns();
        if let (Some(a), Some(b)) = (before, now) {
            pass_cpu_s.push(b.saturating_sub(a) as f64 * 1e-9);
        }
        if stop.load(Ordering::Relaxed) {
            let thread_cpu_s = match (start, now) {
                (Some(a), Some(b)) => b.saturating_sub(a) as f64 * 1e-9,
                _ => 0.0,
            };
            return Sampled {
                pass_cpu_s,
                thread_cpu_s,
            };
        }
        before = now;
        pass();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sampled_pass_costs_about_what_a_timed_one_does() {
        let wall = (0..5).map(|_| wall_s()).fold(f64::INFINITY, f64::min);
        let stop = AtomicBool::new(false);
        let sampled = std::thread::scope(|s| {
            let sampler = s.spawn(|| sample(&stop));
            std::thread::sleep(PERIOD * 5);
            stop.store(true, Ordering::Relaxed);
            sampler.join().expect("the sampler returns")
        });
        if cfg!(target_os = "linux") {
            assert!(!sampled.pass_cpu_s.is_empty());
            let cpu = sampled
                .pass_cpu_s
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            assert!(cpu > wall * 0.5 && cpu < wall * 4.0, "{cpu} s vs {wall} s");
            assert!(sampled.thread_cpu_s >= sampled.pass_cpu_s.iter().sum::<f64>());
        }
    }
}
