//! Fig. 13 — checkpointing overhead: latency vs frequency and state size.
//!
//! Top panel: processing latency as the checkpoint interval shrinks, with
//! "No FT" (checkpointing disabled) as the floor. Bottom panel: latency as
//! the checkpointed state grows at a fixed interval. The paper's shape:
//! overhead rises gradually with both knobs, and frequency and size trade
//! off roughly proportionally.

use std::time::Duration;

use crate::fig6_state_size::{measure_sdg_kv_median, EnginePoint, KvMeasure, PER_REQUEST};
use crate::util::{fmt_bytes, fmt_latency, fmt_rate};
use crate::Scale;

/// One frequency-sweep row. `interval = None` is the "No FT" baseline.
#[derive(Debug, Clone)]
pub struct FreqRow {
    /// Checkpoint interval (`None` = disabled).
    pub interval: Option<Duration>,
    /// Measurement.
    pub point: EnginePoint,
}

/// One size-sweep row.
#[derive(Debug, Clone)]
pub struct SizeRow {
    /// Preloaded state bytes.
    pub state_bytes: usize,
    /// Measurement.
    pub point: EnginePoint,
}

/// The two panels of the figure.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Latency vs checkpoint frequency (fixed state size).
    pub by_frequency: Vec<FreqRow>,
    /// Latency vs state size (fixed frequency).
    pub by_size: Vec<SizeRow>,
}

/// Runs both sweeps.
pub fn run(scale: Scale) -> Fig13Result {
    let measure = Duration::from_millis(scale.pick(1_500, 5_000));
    let fixed_bytes = scale.pick(4, 16) * 1024 * 1024;
    let intervals: Vec<Option<Duration>> = scale
        .pick(vec![250u64, 1_000, 2_500], vec![500, 1_000, 2_000, 4_000])
        .into_iter()
        .map(|ms| Some(Duration::from_millis(ms)))
        .chain([None])
        .collect();
    let by_frequency = intervals
        .into_iter()
        .map(|interval| FreqRow {
            interval,
            point: measure_sdg_kv_median(
                &KvMeasure {
                    state_bytes: fixed_bytes,
                    value_bytes: 64,
                    measure,
                    ckpt_interval: interval,
                    synchronous: false,
                    per_request: Some(PER_REQUEST),
                    channel_capacity: 256,
                },
                3,
            ),
        })
        .collect();

    let fixed_interval = Duration::from_millis(scale.pick(500, 2_000));
    let sizes_mb: Vec<usize> = scale.pick(vec![1, 4, 12], vec![4, 16, 32, 64]);
    let by_size = sizes_mb
        .into_iter()
        .map(|mb| {
            let bytes = mb * 1024 * 1024;
            SizeRow {
                state_bytes: bytes,
                point: measure_sdg_kv_median(
                    &KvMeasure {
                        state_bytes: bytes,
                        value_bytes: 64,
                        measure,
                        ckpt_interval: Some(fixed_interval),
                        synchronous: false,
                        per_request: Some(PER_REQUEST),
                        channel_capacity: 256,
                    },
                    3,
                ),
            }
        })
        .collect();

    Fig13Result {
        by_frequency,
        by_size,
    }
}

/// Prints both panels.
pub fn print(result: &Fig13Result) {
    println!("# Fig 13 (top) — latency vs checkpoint frequency");
    for row in &result.by_frequency {
        let label = match row.interval {
            Some(d) => format!("every {d:?}"),
            None => "No FT".into(),
        };
        println!(
            "  {:<14} {:>14}  {}",
            label,
            fmt_rate(row.point.throughput),
            fmt_latency(&row.point.latency)
        );
    }
    println!("# Fig 13 (bottom) — latency vs state size");
    for row in &result.by_size {
        println!(
            "  {:<14} {:>14}  {}",
            fmt_bytes(row.state_bytes),
            fmt_rate(row.point.throughput),
            fmt_latency(&row.point.latency)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_ft_is_the_latency_floor() {
        let base = KvMeasure {
            state_bytes: 4 * 1024 * 1024,
            value_bytes: 64,
            measure: Duration::from_millis(1_500),
            ckpt_interval: None,
            synchronous: false,
            per_request: Some(PER_REQUEST),
            channel_capacity: 256,
        };
        let no_ft = measure_sdg_kv_median(&base, 3);
        let frequent = measure_sdg_kv_median(
            &KvMeasure {
                ckpt_interval: Some(Duration::from_millis(200)),
                ..base
            },
            3,
        );
        // Frequent checkpointing must not *improve* latency: its p95 must
        // be at least ~no-FT's (a 10% allowance absorbs shared-host noise;
        // the repro harness reports the full sweep).
        assert!(
            frequent.latency.p95 as f64 >= no_ft.latency.p95 as f64 * 0.9,
            "ckpt p95 {} well below no-FT p95 {}",
            frequent.latency.p95,
            no_ft.latency.p95
        );
    }
}
