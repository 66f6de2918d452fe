//! Checkpointing configuration.

use std::time::Duration;

use sdg_common::error::{SdgError, SdgResult};

/// Configuration of the checkpointing subsystem.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Whether checkpointing is enabled (`false` = the "No FT" baseline of
    /// Fig. 13).
    pub enabled: bool,
    /// Interval between checkpoints of the same SE instance. The paper uses
    /// 10 s; benches sweep this (Fig. 13 top).
    pub interval: Duration,
    /// Synchronous mode: hold the state lock for the entire serialise +
    /// backup, as Naiad/SEEP do (Fig. 12 baseline). Asynchronous mode locks
    /// only for snapshot initiation and consolidation.
    pub synchronous: bool,
    /// Number of backup stores a checkpoint is partitioned across (`m` in
    /// the m-to-n pattern).
    pub backup_fanout: usize,
    /// Size of the chunk space every checkpoint is written in: a key's
    /// chunk is [`KeyLayout::chunk`](sdg_state::partition::KeyLayout::chunk)
    /// of its stable hash, the same id the cells' dirty tracking marks, so a delta generation rewrites exactly the
    /// chunks dirtied since the previous take. Larger spaces give finer
    /// deltas at slightly more bookkeeping. Must be ≥ `backup_fanout`;
    /// chunks are distributed round-robin.
    pub chunks: usize,
    /// Serialisation thread-pool size (step B2 of Fig. 4).
    pub serialise_threads: usize,
    /// Simulated disk write bandwidth per store in bytes/second; `None`
    /// means unthrottled (RAM-disk, the Naiad-NoDisk configuration).
    /// Reads are unthrottled.
    pub disk_write_bps: Option<u64>,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            enabled: true,
            interval: Duration::from_secs(10),
            synchronous: false,
            backup_fanout: 2,
            chunks: 8,
            serialise_threads: 2,
            disk_write_bps: None,
        }
    }
}

impl CheckpointConfig {
    /// A configuration with checkpointing turned off.
    pub fn disabled() -> Self {
        CheckpointConfig {
            enabled: false,
            ..Self::default()
        }
    }

    /// Starts a chained builder from the default configuration:
    ///
    /// ```
    /// use std::time::Duration;
    /// use sdg_checkpoint::config::CheckpointConfig;
    ///
    /// let cfg = CheckpointConfig::builder()
    ///     .interval(Duration::from_secs(2))
    ///     .backup_fanout(4)
    ///     .chunks(16)
    ///     .build();
    /// assert!(cfg.enabled);
    /// assert_eq!(cfg.backup_fanout, 4);
    /// ```
    pub fn builder() -> CheckpointConfigBuilder {
        CheckpointConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> SdgResult<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.backup_fanout == 0 {
            return Err(SdgError::Config("backup_fanout must be ≥ 1".into()));
        }
        if self.chunks < self.backup_fanout {
            return Err(SdgError::Config(format!(
                "chunks ({}) must be ≥ backup_fanout ({})",
                self.chunks, self.backup_fanout
            )));
        }
        if self.serialise_threads == 0 {
            return Err(SdgError::Config("serialise_threads must be ≥ 1".into()));
        }
        if self.interval.is_zero() {
            return Err(SdgError::Config(
                "checkpoint interval must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Chained builder for [`CheckpointConfig`] (see
/// [`CheckpointConfig::builder`]).
#[derive(Debug, Clone)]
pub struct CheckpointConfigBuilder {
    cfg: CheckpointConfig,
}

impl CheckpointConfigBuilder {
    /// Turns checkpointing on or off.
    pub fn enabled(mut self, on: bool) -> Self {
        self.cfg.enabled = on;
        self
    }

    /// Sets the per-instance checkpoint interval.
    pub fn interval(mut self, interval: Duration) -> Self {
        self.cfg.interval = interval;
        self
    }

    /// Selects synchronous (stop-the-world) mode.
    pub fn synchronous(mut self, on: bool) -> Self {
        self.cfg.synchronous = on;
        self
    }

    /// Sets the backup-store fanout (`m`).
    pub fn backup_fanout(mut self, m: usize) -> Self {
        self.cfg.backup_fanout = m;
        self
    }

    /// Sets the checkpoint chunk space.
    pub fn chunks(mut self, n: usize) -> Self {
        self.cfg.chunks = n;
        self
    }

    /// Sets the serialisation thread-pool size.
    pub fn serialise_threads(mut self, n: usize) -> Self {
        self.cfg.serialise_threads = n;
        self
    }

    /// Sets the simulated per-store disk write bandwidth (`None` =
    /// unthrottled).
    pub fn disk_write_bps(mut self, bps: Option<u64>) -> Self {
        self.cfg.disk_write_bps = bps;
        self
    }

    /// Finishes the chain. Consistency is still checked by
    /// [`CheckpointConfig::validate`] at deploy time.
    pub fn build(self) -> CheckpointConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_every_knob() {
        let cfg = CheckpointConfig::builder()
            .enabled(true)
            .interval(Duration::from_millis(250))
            .synchronous(true)
            .backup_fanout(3)
            .chunks(9)
            .serialise_threads(4)
            .disk_write_bps(Some(1_000_000))
            .build();
        assert!(cfg.enabled && cfg.synchronous);
        assert_eq!(cfg.interval, Duration::from_millis(250));
        assert_eq!(cfg.backup_fanout, 3);
        assert_eq!(cfg.chunks, 9);
        assert_eq!(cfg.serialise_threads, 4);
        assert_eq!(cfg.disk_write_bps, Some(1_000_000));
        cfg.validate().unwrap();
    }

    #[test]
    fn default_is_valid() {
        let cfg = CheckpointConfig::default();
        cfg.validate().unwrap();
    }

    #[test]
    fn disabled_skips_validation() {
        let mut c = CheckpointConfig::disabled();
        c.backup_fanout = 0;
        c.validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = CheckpointConfig {
            backup_fanout: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = CheckpointConfig {
            chunks: 1,
            backup_fanout: 2,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = CheckpointConfig {
            serialise_threads: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = CheckpointConfig {
            interval: Duration::ZERO,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
