//! Process statistics from `/proc` (Linux); `None` elsewhere.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time the process has used, seconds.
pub fn cpu_seconds() -> Option<f64> {
    stat_cpu_seconds("/proc/self/stat")
}

/// User + system CPU time the calling thread has used, seconds.
pub fn thread_cpu_seconds() -> Option<f64> {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// Nanoseconds the calling thread has run on a CPU, from
/// `/proc/thread-self/schedstat`. The kernel brings the count up to date
/// whenever the thread is switched out, so read just after a sleep it is
/// exact up to that sleep.
pub fn thread_run_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn stat_cpu_seconds(path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Fix the C allocator's thresholds for serving large blocks from their
/// own mappings and for handing freed memory back to the kernel (glibc;
/// elsewhere this does nothing).
///
/// glibc raises both thresholds the first time the process frees a large
/// mapped block, so by default they depend on the process's past. In runs
/// where a stall had piled up requests (their peak memory shows it), each
/// cold reopen of `durable_buys`' market reused the memory the previous
/// one freed; in the others it mapped and faulted in 2 MiB afresh (510
/// page faults) and took a quarter longer. Fixed thresholds put every run
/// in the first case, the steady state of a long-running server.
#[allow(unsafe_code)]
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: mallopt takes two integers and only changes allocator
        // parameters; a value it does not accept is refused, not applied.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 64 << 20);
        }
    }
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_stats_read_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(super::peak_rss_mib().is_some_and(|m| m > 0.0));
            assert!(super::cpu_seconds().is_some_and(|s| s >= 0.0));
            assert!(super::thread_cpu_seconds().is_some_and(|s| s >= 0.0));
            assert!(super::thread_run_ns().is_some());
        }
    }
}
