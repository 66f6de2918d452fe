//! Shared measurement utilities for the experiments.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sdg_common::metrics::Summary;
use sdg_common::obs::MetricsSnapshot;
use sdg_runtime::deploy::Deployment;

/// Snapshots published by experiments since the last drain, labelled by
/// engine. The `repro` binary drains this after each experiment when
/// `--metrics` is requested.
static SNAPSHOTS: Mutex<Vec<(String, MetricsSnapshot)>> = Mutex::new(Vec::new());

/// Publishes an engine's metrics snapshot under `label` for the harness
/// to render after the experiment finishes (`repro --metrics json|text`).
pub fn publish_snapshot(label: &str, snapshot: MetricsSnapshot) {
    SNAPSHOTS
        .lock()
        .expect("snapshot collector")
        .push((label.to_string(), snapshot));
}

/// Removes and returns every snapshot published since the last call.
pub fn drain_snapshots() -> Vec<(String, MetricsSnapshot)> {
    std::mem::take(&mut *SNAPSHOTS.lock().expect("snapshot collector"))
}

/// Formats a byte count as a human-readable string.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1} {}", UNITS[unit])
}

/// The closing words of a figure's printed `shape` line. The shapes that
/// compare two timings are printed rather than asserted by `cargo test`:
/// a loaded host can invert them.
pub fn shape_verdict(holds: bool) -> &'static str {
    if holds {
        "as in the paper"
    } else {
        "DEVIATES (rerun on an idle host)"
    }
}

/// Formats a rate as `N.N k/s` or `N.N M/s`.
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1_000_000.0 {
        format!("{:.2} M/s", per_sec / 1_000_000.0)
    } else if per_sec >= 1_000.0 {
        format!("{:.1} k/s", per_sec / 1_000.0)
    } else {
        format!("{per_sec:.1} /s")
    }
}

/// Formats a latency summary as `p50/p95/p99` milliseconds.
pub fn fmt_latency(s: &Summary) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    format!(
        "p50={:.2}ms p95={:.2}ms p99={:.2}ms",
        ms(s.p50),
        ms(s.p95),
        ms(s.p99)
    )
}

/// A background thread draining a deployment's output sink so submitters
/// never stall on a full output channel. Client-visible latencies are
/// recorded by the runtime itself — read them from the deployment's
/// [`MetricsSnapshot::e2e_latency`] — so the drainer only counts events.
pub struct OutputDrainer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl OutputDrainer {
    /// Starts draining `deployment`'s outputs.
    pub fn start(deployment: &Deployment) -> OutputDrainer {
        let stop = Arc::new(AtomicBool::new(false));
        let rx = deployment.outputs().clone();
        let s = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut seen = 0u64;
            while !s.load(Ordering::Acquire) {
                match rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(_) => seen += 1,
                    Err(_) => continue,
                }
            }
            // Drain whatever is left without blocking.
            while rx.try_recv().is_ok() {
                seen += 1;
            }
            seen
        });
        OutputDrainer {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops draining and returns the number of outputs seen.
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.handle
            .take()
            .expect("finish called once")
            .join()
            .unwrap_or(0)
    }
}

impl Drop for OutputDrainer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::metrics::Histogram;

    #[test]
    fn byte_and_rate_formatting() {
        assert_eq!(fmt_bytes(512), "512.0 B");
        assert_eq!(fmt_bytes(2048), "2.0 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MB");
        assert_eq!(fmt_rate(500.0), "500.0 /s");
        assert_eq!(fmt_rate(12_500.0), "12.5 k/s");
        assert_eq!(fmt_rate(2_000_000.0), "2.00 M/s");
    }

    #[test]
    fn latency_formatting() {
        let h = Histogram::new();
        h.record(2_000_000); // 2 ms.
        let s = h.summary();
        assert!(fmt_latency(&s).starts_with("p50=2."));
    }
}
