//! End-to-end benchmark of the RAIR reproduction.
//!
//! `perfbench` (the binary) runs one iteration of one workload in a fresh
//! process against the public API of `experiments`, `noc_sim` and
//! `traffic`, and prints one JSON row; `run.py` next to this package
//! drives it. See `README.md` in this directory for the workloads, the
//! metrics and which end-to-end metric each layer metric should move.

pub mod jobs;
pub mod store;
pub mod trace;
pub mod workloads;

use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Environment variables that change what the libraries do (oracle,
/// shards, cold saturation searches, verifier, worker threads). A run with
/// any of them set would not measure the committed configuration, so the
/// benchmark refuses to run.
pub const FORBIDDEN_ENV: [&str; 5] = [
    "RAIR_ORACLE",
    "RAIR_SHARDS",
    "RAIR_COLD_SAT",
    "RAIR_VERIFY",
    "RAIR_THREADS",
];

static START: OnceLock<(Instant, f64)> = OnceLock::new();

/// Fix the process-start reference. `spawned_unix_ns` is the wall-clock
/// time at which the parent spawned this process; without it, the
/// reference is the moment of this call.
pub fn mark_process_start(spawned_unix_ns: Option<u128>) {
    let before_main = spawned_unix_ns.map_or(0.0, |ns| {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_nanos();
        now.saturating_sub(ns) as f64 * 1e-9
    });
    START.get_or_init(|| (Instant::now(), before_main));
}

/// Seconds since the process started (see [`mark_process_start`]).
pub fn since_start() -> f64 {
    let (at, before_main) = START.get_or_init(|| (Instant::now(), 0.0));
    before_main + at.elapsed().as_secs_f64()
}

/// Worker threads the libraries' pools will use.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU time of the whole process (all threads, including
/// exited ones), in seconds.
pub fn cpu_time_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next()?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    // Linux reports these in USER_HZ, which is 100 on every supported ABI.
    Some((utime + stime) / 100.0)
}
