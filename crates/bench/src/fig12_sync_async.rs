//! Fig. 12 — synchronous vs asynchronous checkpointing.
//!
//! The same SDG KV deployment, once with the paper's asynchronous
//! dirty-state protocol and once holding the state lock for the whole
//! serialise-and-write (the Naiad/SEEP behaviour). The paper's shape: as
//! state grows, sync throughput drops by roughly a third and its tail
//! latency reaches seconds, while async throughput dips only a few percent
//! and latency stays an order of magnitude lower.

use std::time::Duration;

use crate::fig6_state_size::{measure_sdg_kv, EnginePoint, KvMeasure, PER_REQUEST};
use crate::util::{fmt_bytes, fmt_latency, fmt_rate};
use crate::Scale;

/// One state-size row.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Preloaded state bytes.
    pub state_bytes: usize,
    /// Asynchronous (dirty-state) checkpointing of base + delta
    /// generations.
    pub asynchronous: EnginePoint,
    /// Synchronous (stop-the-world) checkpointing.
    pub synchronous: EnginePoint,
}

/// Runs the comparison sweep.
pub fn run(scale: Scale) -> Vec<Fig12Row> {
    let sizes_mb: Vec<usize> = scale.pick(vec![2, 8], vec![8, 16, 32]);
    let measure = Duration::from_millis(scale.pick(1_500, 6_000));
    let interval = Duration::from_millis(scale.pick(300, 1_000));

    sizes_mb
        .into_iter()
        .map(|mb| {
            let bytes = mb * 1024 * 1024;
            Fig12Row {
                state_bytes: bytes,
                asynchronous: measure_sdg_kv(&KvMeasure {
                    state_bytes: bytes,
                    value_bytes: 64,
                    measure,
                    ckpt_interval: Some(interval),
                    synchronous: false,
                    per_request: Some(PER_REQUEST),
                    channel_capacity: 256,
                }),
                synchronous: measure_sdg_kv(&KvMeasure {
                    state_bytes: bytes,
                    value_bytes: 64,
                    measure,
                    ckpt_interval: Some(interval),
                    synchronous: true,
                    per_request: Some(PER_REQUEST),
                    channel_capacity: 256,
                }),
            }
        })
        .collect()
}

/// Prints the figure's series.
pub fn print(rows: &[Fig12Row]) {
    println!("# Fig 12 — sync vs async checkpointing");
    for row in rows {
        println!("state = {}", fmt_bytes(row.state_bytes));
        for (name, p) in [("async", &row.asynchronous), ("sync", &row.synchronous)] {
            println!(
                "  {:<6} {:>14}  {}",
                name,
                fmt_rate(p.throughput),
                fmt_latency(&p.latency)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_checkpointing_has_lower_tail_latency() {
        // At a moderate state size with frequent checkpoints, the p99 of
        // the synchronous mode must exceed the asynchronous one.
        let base = KvMeasure {
            state_bytes: 4 * 1024 * 1024,
            value_bytes: 64,
            measure: Duration::from_millis(1_500),
            ckpt_interval: Some(Duration::from_millis(300)),
            synchronous: false,
            per_request: Some(PER_REQUEST),
            channel_capacity: 256,
        };
        let asynchronous = measure_sdg_kv(&base);
        let synchronous = measure_sdg_kv(&KvMeasure {
            synchronous: true,
            ..base
        });
        assert!(
            synchronous.latency.p99 > asynchronous.latency.p99,
            "sync p99 {} must exceed async p99 {}",
            synchronous.latency.p99,
            asynchronous.latency.p99
        );
    }
}
