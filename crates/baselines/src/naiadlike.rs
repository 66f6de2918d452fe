//! An engine with explicit task state but synchronous global checkpoints.
//!
//! Models the open-source Naiad v0.2 configuration the paper compares
//! against (§6.1): state is mutable and per-task (no copy-on-write cost),
//! input is processed in fixed-size batches with a small per-batch
//! coordination cost, and fault tolerance is **stop-the-world**: at every
//! checkpoint interval, processing halts while the *entire* state is
//! serialised and written to the checkpoint target — a bandwidth-limited
//! disk (`Naiad-Disk`) or memory (`Naiad-NoDisk`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sdg_common::obs::{EventKind, MetricsRegistry, MetricsSnapshot, TaskShard};

/// Where synchronous checkpoints are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaiadCheckpointTarget {
    /// No fault tolerance at all.
    None,
    /// Checkpoints kept in memory (RAM disk): serialisation cost only.
    Memory,
    /// Checkpoints written through a simulated disk with the given
    /// bandwidth in bytes/second.
    Disk {
        /// Write bandwidth of the simulated disk.
        write_bps: u64,
    },
}

/// Configuration of the Naiad-like engine.
#[derive(Debug, Clone)]
pub struct NaiadConfig {
    /// Items per scheduled batch (1 000 for the paper's low-latency
    /// configuration, 20 000 for high throughput).
    pub batch_size: usize,
    /// Fixed coordination cost per batch.
    pub batch_overhead: Duration,
    /// Interval between synchronous global checkpoints.
    pub checkpoint_interval: Duration,
    /// Checkpoint target.
    pub target: NaiadCheckpointTarget,
    /// Modelled per-request service time (applied batched, so batching
    /// amortises nothing of it — it is the work itself). Zero = raw speed.
    pub per_request: Duration,
}

impl Default for NaiadConfig {
    fn default() -> Self {
        NaiadConfig {
            batch_size: 1_000,
            batch_overhead: Duration::from_micros(300),
            checkpoint_interval: Duration::from_secs(10),
            target: NaiadCheckpointTarget::Memory,
            per_request: Duration::ZERO,
        }
    }
}

/// A key/value store running on the Naiad-like engine (Figs 6 and 12).
#[derive(Debug)]
pub struct NaiadKvStore {
    cfg: NaiadConfig,
    state: HashMap<i64, Vec<u8>>,
    state_bytes: usize,
    last_checkpoint: Instant,
    pending: Vec<(i64, Vec<u8>)>,
    /// Instrument registry; reports through the same snapshot schema as
    /// the SDG runtime and the other baselines.
    obs: MetricsRegistry,
    update_task: TaskShard,
    get_task: TaskShard,
}

impl NaiadKvStore {
    /// Creates a store with the given configuration.
    pub fn new(cfg: NaiadConfig) -> Self {
        let obs = MetricsRegistry::new();
        obs.state("kv").instances.set(1);
        NaiadKvStore {
            cfg,
            state: HashMap::new(),
            state_bytes: 0,
            last_checkpoint: Instant::now(),
            pending: Vec::new(),
            update_task: obs.task("update").shard(),
            get_task: obs.task("get").shard(),
            obs,
        }
    }

    /// Approximate state size in bytes.
    pub fn state_bytes(&self) -> usize {
        self.state_bytes
    }

    /// Number of synchronous checkpoints taken so far.
    pub fn checkpoints_taken(&self) -> u64 {
        self.obs.checkpoints().taken.get()
    }

    /// Resets timing histograms after warm-up, keeping counters.
    pub fn reset_observations(&self) {
        self.obs.reset_observations();
    }

    /// Freezes the engine's instruments into the shared snapshot schema.
    pub fn metrics(&self) -> MetricsSnapshot {
        let s = self.obs.state("kv");
        s.instances.set(1);
        s.bytes.set(self.state_bytes as u64);
        self.obs
            .task("update")
            .queue_depth
            .set(self.pending.len() as u64);
        self.obs.snapshot()
    }

    /// Reads a key (served from mutable state, no batching).
    pub fn get(&mut self, key: i64) -> Option<&[u8]> {
        self.get_task.add_items_in(1);
        self.get_task.add_processed(1);
        self.state.get(&key).map(Vec::as_slice)
    }

    /// Enqueues an update; the batch executes when full. Returns the batch
    /// stats when a batch was flushed.
    pub fn update(&mut self, key: i64, value: Vec<u8>) -> Option<Duration> {
        self.update_task.add_items_in(1);
        self.pending.push((key, value));
        if self.pending.len() >= self.cfg.batch_size {
            Some(self.flush())
        } else {
            None
        }
    }

    /// Flushes any pending batch, returning its processing time.
    pub fn flush(&mut self) -> Duration {
        let start = Instant::now();
        spin_sleep(self.cfg.batch_overhead);
        let batch = std::mem::take(&mut self.pending);
        let n = batch.len();
        if !self.cfg.per_request.is_zero() && n > 0 {
            spin_sleep(self.cfg.per_request * n as u32);
        }
        for (key, value) in batch {
            let old = self.state.insert(key, value);
            if let Some(old) = old {
                self.state_bytes -= old.len();
            } else {
                self.state_bytes += 8;
            }
            self.state_bytes += self.state[&key].len();
        }
        // Stop-the-world checkpoint when due: nothing else runs until the
        // full state has been serialised (and written).
        if self.cfg.target != NaiadCheckpointTarget::None
            && self.last_checkpoint.elapsed() >= self.cfg.checkpoint_interval
        {
            self.synchronous_checkpoint();
        }
        let elapsed = start.elapsed();
        // All requests in the batch observe the batch's full latency;
        // the snapshot's `e2e_latency` is derived from these samples.
        let ns = elapsed.as_nanos() as u64;
        self.update_task.record_service(ns);
        self.update_task.add_processed(n as u64);
        for _ in 0..n {
            self.update_task.record_latency(ns);
        }
        elapsed
    }

    /// Serialises the entire state and writes it to the target, stopping
    /// the world for the duration. Returns the pause length.
    pub fn synchronous_checkpoint(&mut self) -> Duration {
        let start = Instant::now();
        let seq = self.obs.checkpoints().taken.get();
        self.obs.record_event(EventKind::CheckpointBegin {
            instance: "kv#0".to_string(),
            seq,
        });
        // Serialise everything (real work proportional to state size).
        let mut snapshot = Vec::with_capacity(self.state_bytes + self.state.len() * 16);
        for (k, v) in &self.state {
            snapshot.extend_from_slice(&k.to_le_bytes());
            snapshot.extend_from_slice(&(v.len() as u64).to_le_bytes());
            snapshot.extend_from_slice(v);
        }
        if let NaiadCheckpointTarget::Disk { write_bps } = self.cfg.target {
            if write_bps > 0 {
                let secs = snapshot.len() as f64 / write_bps as f64;
                std::thread::sleep(Duration::from_secs_f64(secs));
            }
        }
        std::hint::black_box(&snapshot);
        self.last_checkpoint = Instant::now();
        let elapsed = start.elapsed();
        let ckpt = self.obs.checkpoints();
        ckpt.taken.inc();
        ckpt.bytes.add(snapshot.len() as u64);
        // A stop-the-world checkpoint is all barrier: the whole pause is
        // spent synchronised, which is what the sync-phase timer captures.
        ckpt.sync_ns.record_duration(elapsed);
        self.obs.state("kv").checkpoints.inc();
        self.obs.record_event(EventKind::CheckpointBackup {
            instance: "kv#0".to_string(),
            seq,
            bytes: snapshot.len() as u64,
        });
        elapsed
    }
}

/// A wordcount on the Naiad-like engine (Fig. 8).
///
/// Batches have a fixed message count; a window is sustainable only when a
/// full batch completes within it.
#[derive(Debug)]
pub struct NaiadWordCount {
    cfg: NaiadConfig,
    counts: HashMap<String, u64>,
    obs: MetricsRegistry,
    count_task: TaskShard,
}

impl NaiadWordCount {
    /// Creates a wordcount with the given configuration.
    pub fn new(cfg: NaiadConfig) -> Self {
        let obs = MetricsRegistry::new();
        obs.state("counts").instances.set(1);
        NaiadWordCount {
            cfg,
            counts: HashMap::new(),
            count_task: obs.task("count").shard(),
            obs,
        }
    }

    /// Returns the count of `word`.
    pub fn count(&self, word: &str) -> u64 {
        self.counts.get(word).copied().unwrap_or(0)
    }

    /// Freezes the engine's instruments into the shared snapshot schema.
    pub fn metrics(&self) -> MetricsSnapshot {
        let s = self.obs.state("counts");
        s.instances.set(1);
        // Count table footprint: key characters plus an 8-byte counter.
        let bytes: usize = self.counts.keys().map(|k| k.len() + 8).sum();
        s.bytes.set(bytes as u64);
        self.obs.snapshot()
    }

    /// Processes one batch (of the configured size) drawn from `vocab`,
    /// returning the batch latency.
    pub fn process_one_batch(&mut self, vocab: &[String]) -> Duration {
        let start = Instant::now();
        spin_sleep(self.cfg.batch_overhead);
        if !self.cfg.per_request.is_zero() {
            spin_sleep(self.cfg.per_request * self.cfg.batch_size as u32);
        }
        for i in 0..self.cfg.batch_size {
            let word = &vocab[i % vocab.len()];
            *self.counts.entry(word.clone()).or_insert(0) += 1;
        }
        let elapsed = start.elapsed();
        self.count_task.add_items_in(self.cfg.batch_size as u64);
        self.count_task.add_processed(self.cfg.batch_size as u64);
        self.count_task.record_service(elapsed.as_nanos() as u64);
        elapsed
    }

    /// Returns the throughput (items/s) when the window admits the batch
    /// latency, or `None` when the window is smaller than one batch's
    /// processing time (unsustainable, as in Fig. 8).
    pub fn sustainable_throughput(&mut self, window: Duration, vocab: &[String]) -> Option<f64> {
        // Take the median of several batches to de-noise.
        let mut samples: Vec<Duration> = (0..5).map(|_| self.process_one_batch(vocab)).collect();
        samples.sort();
        let latency = samples[samples.len() / 2];
        if latency > window {
            return None;
        }
        Some(self.cfg.batch_size as f64 / latency.as_secs_f64())
    }
}

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

    #[test]
    fn kv_updates_apply_in_batches() {
        let mut kv = NaiadKvStore::new(NaiadConfig {
            batch_size: 3,
            batch_overhead: Duration::from_micros(10),
            checkpoint_interval: Duration::from_secs(3600),
            target: NaiadCheckpointTarget::None,
            per_request: Duration::ZERO,
        });
        assert!(kv.update(1, vec![1]).is_none());
        assert!(kv.update(2, vec![2]).is_none());
        assert!(kv.get(1).is_none(), "not yet flushed");
        assert!(kv.update(3, vec![3]).is_some());
        assert_eq!(kv.get(1), Some(&[1u8][..]));
        assert!(kv.state_bytes() > 0);
        let snap = kv.metrics();
        let update = snap.task("update").expect("update task stats");
        assert_eq!(update.items_in, 3);
        assert_eq!(update.processed, 3);
        assert_eq!((update.latency.count, snap.e2e_latency.count), (3, 3));
        assert_eq!(snap.task("get").expect("get task stats").items_in, 2);
        assert!(snap.state("kv").expect("kv state stats").bytes > 0);
    }

    #[test]
    fn overwrites_keep_byte_accounting_consistent() {
        let mut kv = NaiadKvStore::new(NaiadConfig {
            batch_size: 1,
            batch_overhead: Duration::ZERO,
            checkpoint_interval: Duration::from_secs(3600),
            target: NaiadCheckpointTarget::None,
            per_request: Duration::ZERO,
        });
        kv.update(1, vec![0; 100]);
        let b1 = kv.state_bytes();
        kv.update(1, vec![0; 10]);
        assert_eq!(kv.state_bytes(), b1 - 90);
    }

    #[test]
    fn checkpoint_pause_grows_with_state() {
        let mut kv = NaiadKvStore::new(NaiadConfig {
            batch_size: 100,
            batch_overhead: Duration::ZERO,
            checkpoint_interval: Duration::from_secs(3600),
            target: NaiadCheckpointTarget::Memory,
            per_request: Duration::ZERO,
        });
        for i in 0..200 {
            kv.update(i, vec![0; 1024]);
        }
        let small = kv.synchronous_checkpoint();
        for i in 0..20_000 {
            kv.update(i, vec![0; 1024]);
        }
        let large = kv.synchronous_checkpoint();
        assert!(large > small, "{small:?} vs {large:?}");
        assert_eq!(kv.checkpoints_taken(), 2);
    }

    #[test]
    fn disk_target_is_slower_than_memory() {
        let make = |target| {
            let mut kv = NaiadKvStore::new(NaiadConfig {
                batch_size: 100,
                batch_overhead: Duration::ZERO,
                checkpoint_interval: Duration::from_secs(3600),
                target,
                per_request: Duration::ZERO,
            });
            for i in 0..1_000 {
                kv.update(i, vec![0; 512]);
            }
            kv.synchronous_checkpoint()
        };
        let memory = make(NaiadCheckpointTarget::Memory);
        let disk = make(NaiadCheckpointTarget::Disk {
            write_bps: 10_000_000,
        });
        assert!(disk > memory, "{memory:?} vs {disk:?}");
    }

    #[test]
    fn wordcount_batches_count_correctly() {
        let vocab: Vec<String> = (0..4).map(|i| format!("w{i}")).collect();
        let mut wc = NaiadWordCount::new(NaiadConfig {
            batch_size: 8,
            batch_overhead: Duration::from_micros(10),
            ..NaiadConfig::default()
        });
        wc.process_one_batch(&vocab);
        assert_eq!(wc.count("w0"), 2);
        assert_eq!(wc.count("w3"), 2);
    }

    #[test]
    fn windows_below_batch_latency_are_unsustainable() {
        let vocab: Vec<String> = (0..4).map(|i| format!("w{i}")).collect();
        let mut wc = NaiadWordCount::new(NaiadConfig {
            batch_size: 20_000,
            batch_overhead: Duration::from_millis(2),
            ..NaiadConfig::default()
        });
        assert!(wc
            .sustainable_throughput(Duration::from_micros(100), &vocab)
            .is_none());
        assert!(wc
            .sustainable_throughput(Duration::from_secs(5), &vocab)
            .is_some());
    }
}
