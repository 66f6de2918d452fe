//! What the host and the process report about themselves: CPU time, peak
//! memory, page faults, context switches, and a fixed CPU loop that tells
//! a slow host from a slow program.
//!
//! Everything is read from `/proc/self`; a field that cannot be read
//! reports zero rather than failing the run (the benchmark's correctness
//! verdict never depends on it).

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// `/proc/self/stat` counts CPU time in clock ticks of `USER_HZ`, which is
/// 100 on every Linux architecture this runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// The fields of `/proc/self/stat` after the parenthesised command name
/// (which may itself contain spaces); index 0 is the state field.
fn stat_fields() -> Vec<String> {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            s.rfind(')')
                .map(|i| s[i + 1..].split_whitespace().map(str::to_owned).collect())
        })
        .unwrap_or_default()
}

fn stat_field(fields: &[String], idx: usize) -> u64 {
    fields.get(idx).and_then(|f| f.parse().ok()).unwrap_or(0)
}

/// A point-in-time reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of all threads, exited ones included.
    pub cpu_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl ProcSample {
    pub fn now() -> ProcSample {
        let f = stat_fields();
        ProcSample {
            // stat(5): minflt is field 10, utime 14, stime 15 (1-based,
            // with pid and comm before the state field).
            minor_faults: stat_field(&f, 7),
            cpu_s: (stat_field(&f, 11) + stat_field(&f, 12)) as f64 / TICKS_PER_SECOND,
        }
    }
}

fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find(|l| l.starts_with(key)).and_then(|l| {
        l[key.len()..]
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

/// Peak resident set size in MB since the process started or since the
/// last successful [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_kb(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets the peak-RSS watermark to the current RSS. Returns `false` where
/// the kernel or sandbox refuses, in which case [`peak_rss_mb`] keeps
/// reporting the whole-process peak.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Voluntary + involuntary context switches summed over the live threads.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            s.lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.rsplit(':').next()?.trim().parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Times a fixed single-thread integer loop (~200 ms on the reference
/// host) in milliseconds. The work never changes, so a run whose
/// `host.spin_ms` is high ran on a slow host, whatever its other numbers.
pub fn spin_ms() -> f64 {
    const STEPS: u64 = 120_000_000;
    let t0 = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Cores the scheduler may use, reported next to every thread-dependent
/// result.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse() {
        let status = "Name:\tperf\nVmHWM:\t  20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(20480));
        assert_eq!(status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = ProcSample::now();
        let ms = spin_ms();
        let after = ProcSample::now();
        assert!(ms > 0.0);
        // Skip where /proc is unavailable: both readings are then zero.
        if after.cpu_s > 0.0 {
            assert!(after.cpu_s >= before.cpu_s);
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
