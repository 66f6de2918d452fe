//! Fig. 8 — streaming wordcount throughput vs window size.
//!
//! The window controls the granularity of state updates: micro-batch
//! engines batch one window's input into a job, so small windows leave the
//! fixed scheduling overhead unamortised and eventually become
//! unsustainable. The SDG pipeline updates state per item and sustains
//! every window size at the same throughput (the paper's headline for
//! fine-grained updates).

use std::time::{Duration, Instant};

use sdg_apps::wc::WcApp;
use sdg_apps::workloads::text_lines;
use sdg_baselines::microbatch::{MicroBatchConfig, MicroBatchWordCount};
use sdg_baselines::naiadlike::{NaiadConfig, NaiadWordCount};
use sdg_runtime::config::RuntimeConfig;

use crate::util::{fmt_rate, shape_verdict};
use crate::Scale;

/// One window-size row. `None` means the engine cannot sustain the window.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Window size.
    pub window: Duration,
    /// SDG pipeline (words/s; same at every window).
    pub sdg: Option<f64>,
    /// Streaming-Spark-like micro-batch engine.
    pub streaming_spark: Option<f64>,
    /// Naiad-like, 1 000-message batches.
    pub naiad_low_latency: Option<f64>,
    /// Naiad-like, 20 000-message batches.
    pub naiad_high_throughput: Option<f64>,
}

/// Measures the SDG wordcount throughput (window-independent).
pub fn sdg_throughput(scale: Scale) -> f64 {
    let app = WcApp::start(2, RuntimeConfig::default()).expect("deploy WC");
    let lines = text_lines(scale.pick(3_000, 30_000), 10, 5_000, 7);
    let words: usize = lines.iter().map(|l| l.split(' ').count()).sum();
    let t0 = Instant::now();
    for line in &lines {
        app.add_line(line).expect("line");
    }
    assert!(app.quiesce(Duration::from_secs(300)));
    let rate = words as f64 / t0.elapsed().as_secs_f64();
    crate::util::publish_snapshot("sdg-wc", app.deployment().metrics());
    app.shutdown();
    rate
}

/// Runs the window sweep.
pub fn run(scale: Scale) -> Vec<Fig8Row> {
    let windows: Vec<Duration> = scale
        .pick(
            vec![5u64, 50, 250, 1_000],
            vec![10, 50, 100, 250, 1_000, 10_000],
        )
        .into_iter()
        .map(Duration::from_millis)
        .collect();
    let vocab: Vec<String> = (0..1_000).map(|i| format!("word{i}")).collect();
    let sdg = sdg_throughput(scale);
    // Every engine gets the same 1 µs modelled per-word cost; differences
    // come from scheduling overhead and batching, as in the paper.
    let per_item = Duration::from_micros(1);

    windows
        .into_iter()
        .map(|window| {
            let mut spark = MicroBatchWordCount::new(MicroBatchConfig {
                // Per-job driver planning + task launch, the cost that made
                // windows below 250 ms unsustainable for Streaming Spark.
                scheduling_overhead: Duration::from_millis(20),
                tasks_per_batch: 4,
                per_item,
            });
            let streaming_spark = spark.max_sustainable_rate(window, &vocab);

            let mut low = NaiadWordCount::new(NaiadConfig {
                batch_size: 1_000,
                batch_overhead: Duration::from_micros(300),
                per_request: per_item,
                ..NaiadConfig::default()
            });
            let naiad_low = low.sustainable_throughput(window, &vocab);

            let mut high = NaiadWordCount::new(NaiadConfig {
                batch_size: 20_000,
                batch_overhead: Duration::from_micros(300),
                per_request: per_item,
                ..NaiadConfig::default()
            });
            let naiad_high = high.sustainable_throughput(window, &vocab);

            let win = format!("{window:?}");
            crate::util::publish_snapshot(&format!("microbatch-wc {win}"), spark.metrics());
            crate::util::publish_snapshot(&format!("naiad-wc-low {win}"), low.metrics());
            crate::util::publish_snapshot(&format!("naiad-wc-high {win}"), high.metrics());

            Fig8Row {
                window,
                sdg: Some(sdg),
                streaming_spark,
                naiad_low_latency: naiad_low,
                naiad_high_throughput: naiad_high,
            }
        })
        .collect()
}

fn cell(v: &Option<f64>) -> String {
    match v {
        Some(rate) => fmt_rate(*rate),
        None => "unsustainable".into(),
    }
}

/// Prints the figure's series.
pub fn print(rows: &[Fig8Row]) {
    println!("# Fig 8 — wordcount throughput vs window size");
    println!(
        "{:<10} {:>14} {:>16} {:>16} {:>16}",
        "window", "SDG", "StreamingSpark", "Naiad-LowLat", "Naiad-HighTput"
    );
    for row in rows {
        println!(
            "{:<10} {:>14} {:>16} {:>16} {:>16}",
            format!("{:?}", row.window),
            cell(&row.sdg),
            cell(&row.streaming_spark),
            cell(&row.naiad_low_latency),
            cell(&row.naiad_high_throughput)
        );
    }
    // The paper's shape for the micro-batch engine: a larger window
    // amortises the per-job scheduling overhead, so the sustainable rate
    // grows with the window.
    let mut sustained = rows
        .iter()
        .filter_map(|r| r.streaming_spark.map(|rate| (r.window, rate)));
    if let (Some((w0, r0)), Some((w1, r1))) = (sustained.next(), sustained.next_back()) {
        println!(
            "shape: StreamingSpark sustains {} at {w0:?} and {} at {w1:?} — {}",
            fmt_rate(r0),
            fmt_rate(r1),
            shape_verdict(r1 > r0)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_the_paper() {
        let rows = run(Scale::Quick);
        // SDG sustains every window at the same (positive) throughput.
        for row in &rows {
            assert!(row.sdg.unwrap() > 0.0);
        }
        // The micro-batch engine is unsustainable at the smallest window
        // but sustains the largest.
        assert!(rows.first().unwrap().streaming_spark.is_none());
        assert!(rows.last().unwrap().streaming_spark.is_some());
        // The large-batch Naiad configuration needs larger windows than the
        // small-batch one.
        let low_min = rows
            .iter()
            .find(|r| r.naiad_low_latency.is_some())
            .map(|r| r.window);
        let high_min = rows
            .iter()
            .find(|r| r.naiad_high_throughput.is_some())
            .map(|r| r.window);
        if let (Some(lo), Some(hi)) = (low_min, high_min) {
            assert!(hi >= lo, "high-throughput min window {hi:?} < low {lo:?}");
        }
        print(&rows);
    }
}
