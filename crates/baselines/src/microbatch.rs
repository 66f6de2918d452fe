//! A discretised-stream (Streaming-Spark-like) wordcount engine.
//!
//! Input is divided into batches of one window's worth of items; each batch
//! is scheduled as a job (fixed task-launch overhead) and applied to an
//! **immutable** state: updating the word counts produces a new state
//! version by cloning the previous map (RDD semantics — "any modification
//! to state must be implemented as the creation of new immutable data",
//! §2.2). The trade-off of §6.1 follows: larger windows amortise overhead
//! and copying (higher throughput), but the smallest sustainable window is
//! bounded below by the per-batch cost.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdg_common::obs::{MetricsRegistry, MetricsSnapshot, TaskShard};

/// Configuration of the micro-batch engine.
#[derive(Debug, Clone)]
pub struct MicroBatchConfig {
    /// Fixed scheduling cost per batch (driver planning + task launch).
    pub scheduling_overhead: Duration,
    /// Number of parallel tasks the batch is split into (each adds launch
    /// cost to the overhead but shares the per-item work).
    pub tasks_per_batch: usize,
    /// Modelled per-item processing cost (applied batched).
    pub per_item: Duration,
}

impl Default for MicroBatchConfig {
    fn default() -> Self {
        MicroBatchConfig {
            // The paper's Streaming Spark could not sustain windows below
            // 250 ms on a cluster; scaled to an in-process simulator we use
            // a few milliseconds of per-batch fixed cost.
            scheduling_overhead: Duration::from_millis(2),
            tasks_per_batch: 4,
            per_item: Duration::ZERO,
        }
    }
}

/// Result of processing one batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchStats {
    /// Items in the batch.
    pub items: usize,
    /// Wall-clock processing time including scheduling overhead.
    pub elapsed: Duration,
}

/// The micro-batch wordcount engine.
#[derive(Debug)]
pub struct MicroBatchWordCount {
    cfg: MicroBatchConfig,
    /// Immutable state version; every batch replaces it wholesale.
    state: Arc<HashMap<String, u64>>,
    versions: u64,
    obs: MetricsRegistry,
    batch_task: TaskShard,
}

impl MicroBatchWordCount {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: MicroBatchConfig) -> Self {
        let obs = MetricsRegistry::new();
        let batch_task = obs.task("batch");
        batch_task.instances.set(cfg.tasks_per_batch as u64);
        obs.state("counts").instances.set(1);
        MicroBatchWordCount {
            cfg,
            state: Arc::new(HashMap::new()),
            versions: 0,
            batch_task: batch_task.shard(),
            obs,
        }
    }

    /// Returns the current count of `word`.
    pub fn count(&self, word: &str) -> u64 {
        self.state.get(word).copied().unwrap_or(0)
    }

    /// Total distinct words tracked.
    pub fn distinct_words(&self) -> usize {
        self.state.len()
    }

    /// Number of state versions created (one per batch).
    pub fn versions(&self) -> u64 {
        self.versions
    }

    /// Freezes the engine's instruments into the shared snapshot schema.
    ///
    /// Every state version is a wholesale clone, so the `counts` SE's
    /// `checkpoints` counter doubles as the version count.
    pub fn metrics(&self) -> MetricsSnapshot {
        let s = self.obs.state("counts");
        s.instances.set(1);
        let bytes: usize = self.state.keys().map(|k| k.len() + 8).sum();
        s.bytes.set(bytes as u64);
        self.obs.snapshot()
    }

    /// Processes one batch of words, producing a new state version.
    pub fn process_batch(&mut self, words: &[String]) -> BatchStats {
        let start = Instant::now();
        // Scheduling: the driver plans the batch and launches its tasks.
        let overhead = self.cfg.scheduling_overhead
            + Duration::from_micros(50) * self.cfg.tasks_per_batch as u32;
        spin_sleep(overhead);
        if !self.cfg.per_item.is_zero() && !words.is_empty() {
            spin_sleep(self.cfg.per_item * words.len() as u32);
        }

        // Immutable update: clone the previous version, then apply.
        let mut next: HashMap<String, u64> = (*self.state).clone();
        for word in words {
            *next.entry(word.clone()).or_insert(0) += 1;
        }
        self.state = Arc::new(next);
        self.versions += 1;
        let elapsed = start.elapsed();
        self.batch_task.add_items_in(words.len() as u64);
        self.batch_task.add_processed(words.len() as u64);
        self.batch_task.record_service(elapsed.as_nanos() as u64);
        self.obs.state("counts").checkpoints.inc();
        BatchStats {
            items: words.len(),
            elapsed,
        }
    }

    /// Measures the maximum sustainable input rate (items/s) at a given
    /// window size: the highest rate at which a window's batch completes
    /// within the window.
    ///
    /// Returns `None` when even a near-empty batch cannot finish within the
    /// window (the collapse region of Fig. 8).
    pub fn max_sustainable_rate(&mut self, window: Duration, vocab: &[String]) -> Option<f64> {
        // Probe batch sizes by doubling, then refine with bisection.
        let fits = |engine: &mut Self, n: usize| -> bool {
            let words: Vec<String> = (0..n).map(|i| vocab[i % vocab.len()].clone()).collect();
            let stats = engine.process_batch(&words);
            stats.elapsed <= window
        };
        if !fits(self, 1) {
            return None;
        }
        let mut lo = 1usize;
        let mut hi = 2usize;
        while fits(self, hi) {
            lo = hi;
            hi *= 2;
            if hi > 4_000_000 {
                break;
            }
        }
        // Bisect between lo (fits) and hi (does not).
        while hi - lo > lo / 8 + 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(self, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo as f64 / window.as_secs_f64())
    }
}

/// Sleeps (or spins for short waits) to model fixed scheduling cost.
fn spin_sleep(d: Duration) {
    if d > Duration::from_micros(200) {
        std::thread::sleep(d);
    } else {
        let end = Instant::now() + d;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("w{}", i % 10)).collect()
    }

    #[test]
    fn batches_update_counts() {
        let mut e = MicroBatchWordCount::new(MicroBatchConfig {
            scheduling_overhead: Duration::from_micros(10),
            tasks_per_batch: 1,
            per_item: Duration::ZERO,
        });
        e.process_batch(&words(20));
        assert_eq!(e.count("w0"), 2);
        assert_eq!(e.count("w9"), 2);
        assert_eq!(e.count("nope"), 0);
        assert_eq!(e.distinct_words(), 10);
        e.process_batch(&words(10));
        assert_eq!(e.count("w0"), 3);
        assert_eq!(e.versions(), 2);
        let snap = e.metrics();
        let batch = snap.task("batch").expect("batch task stats");
        assert_eq!(batch.processed, 30);
        assert_eq!(batch.service.count, 2);
        let counts = snap.state("counts").expect("counts state stats");
        assert_eq!(counts.checkpoints, 2, "one version clone per batch");
        assert!(counts.bytes > 0);
    }

    #[test]
    fn each_batch_pays_scheduling_overhead() {
        let mut e = MicroBatchWordCount::new(MicroBatchConfig {
            scheduling_overhead: Duration::from_millis(3),
            tasks_per_batch: 1,
            per_item: Duration::ZERO,
        });
        let stats = e.process_batch(&words(1));
        assert!(stats.elapsed >= Duration::from_millis(3));
    }

    #[test]
    fn tiny_windows_are_unsustainable() {
        let mut e = MicroBatchWordCount::new(MicroBatchConfig {
            scheduling_overhead: Duration::from_millis(5),
            tasks_per_batch: 2,
            per_item: Duration::ZERO,
        });
        let vocab = words(10);
        assert!(e
            .max_sustainable_rate(Duration::from_millis(1), &vocab)
            .is_none());
    }
}
