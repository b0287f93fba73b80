//! Process-wide resource readings from `/proc/self` (Linux): CPU time,
//! peak resident set, thread count. Each workload runs in a process of
//! its own, so these are per workload. They cover the store's threads
//! *and* the load generator's — one process, stated in the README.

use std::fs;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux this repo targets and std offers no portable way to ask.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU time of the whole process so far, microseconds.
pub fn cpu_micros() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the `)`.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_SEC * 1e6
}

fn status_field(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Live threads in the process right now.
pub fn threads() -> f64 {
    status_field("Threads:").unwrap_or(0.0)
}
