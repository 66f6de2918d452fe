//! Runtime and cluster configuration.

use std::collections::HashMap;
use std::time::Duration;

use sdg_checkpoint::config::CheckpointConfig;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{StateId, TaskId};

/// One simulated cluster node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Relative processing speed; `1.0` is a normal node, `0.5` takes twice
    /// as long per item (a straggler, §6.3).
    pub speed: f64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec { speed: 1.0 }
    }
}

/// The simulated cluster: nodes are allocated in order; when the SDG needs
/// more nodes than specified, extra nodes of speed 1.0 are assumed.
#[derive(Debug, Clone, Default)]
pub struct ClusterSpec {
    /// Node specifications in allocation order.
    pub nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// A uniform cluster of `n` normal-speed nodes.
    pub fn uniform(n: usize) -> Self {
        ClusterSpec {
            nodes: vec![NodeSpec::default(); n],
        }
    }

    /// Returns the speed of node `idx` (1.0 for unspecified nodes).
    pub fn speed_of(&self, idx: usize) -> f64 {
        self.nodes.get(idx).map(|n| n.speed).unwrap_or(1.0)
    }
}

/// Reactive runtime-parallelism settings (§3.3 "Runtime parallelism and
/// stragglers").
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Master switch.
    pub enabled: bool,
    /// How often the monitor samples queue depths.
    pub check_interval: Duration,
    /// A task is a bottleneck when its mean queue depth exceeds this
    /// fraction of channel capacity.
    pub high_watermark: f64,
    /// Consecutive saturated samples before scaling out.
    pub patience: u32,
    /// Upper bound on instances per state group. Scale-in stops at the
    /// group's deploy-time instance count.
    pub max_instances: u32,
    /// A task is idle when its mean queue depth falls below this
    /// fraction of channel capacity. Must stay below `high_watermark`.
    pub low_watermark: f64,
    /// Consecutive idle samples before scaling in. Deliberately larger than
    /// `patience` by default: scale-in migrates state, so the monitor should
    /// be slower to reclaim than to grow.
    pub idle_patience: u32,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            enabled: false,
            check_interval: Duration::from_millis(100),
            high_watermark: 0.75,
            patience: 3,
            max_instances: 8,
            low_watermark: 0.1,
            idle_patience: 5,
        }
    }
}

impl ScalingConfig {
    /// Validates internal consistency of the scaling thresholds.
    pub fn validate(&self) -> SdgResult<()> {
        if !(0.0..=1.0).contains(&self.high_watermark) {
            return Err(SdgError::Config(
                "scaling.high_watermark must be in [0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.low_watermark) {
            return Err(SdgError::Config(
                "scaling.low_watermark must be in [0, 1]".into(),
            ));
        }
        if self.low_watermark >= self.high_watermark {
            return Err(SdgError::Config(
                "scaling.low_watermark must be below high_watermark".into(),
            ));
        }
        if self.max_instances == 0 {
            return Err(SdgError::Config("scaling.max_instances must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// The self-healing supervisor: failure detection (caught panics +
/// heartbeat scans) and automatic §5 fail-and-recover with bounded
/// backoff (see [`crate::fault`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Master switch. On by default: a duty of the control thread that
    /// sleeps until a caught panic wakes it (or a heartbeat scan is due).
    pub enabled: bool,
    /// Heuristic hang detection from stalled heartbeat epochs. Off by
    /// default. An instance blocked on downstream backpressure is never
    /// suspected (it is suspended, holding no pool thread), but one that
    /// runs and waits on a stripe lock is: a synchronous checkpoint holds
    /// every stripe lock of its cell through serialise and write, and
    /// `Deployment::with_state` through its merge, so an instance waiting
    /// `heartbeat_interval × miss_threshold` on one is indistinguishable
    /// from a hung one. Hence opt-in, for chaos tests and deployments that
    /// tune the threshold to their checkpoint and state sizes. Panic
    /// detection is precise and always on with the supervisor.
    pub hang_detection: bool,
    /// Heartbeat scan period and staleness unit, and the storm guard: at
    /// most one recovery starts per interval. A panic waits for no scan.
    pub heartbeat_interval: Duration,
    /// Consecutive stalled scans before an instance is declared hung.
    pub miss_threshold: u32,
    /// First retry backoff; doubles per attempt (with jitter).
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff. Must be ≥ `backoff_base`.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            enabled: true,
            hang_detection: false,
            heartbeat_interval: Duration::from_millis(20),
            miss_threshold: 10,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

impl SupervisorConfig {
    /// Validates internal consistency of the supervisor settings.
    pub fn validate(&self) -> SdgResult<()> {
        if self.heartbeat_interval.is_zero() {
            return Err(SdgError::Config(
                "supervisor.heartbeat_interval must be positive".into(),
            ));
        }
        if self.miss_threshold == 0 {
            return Err(SdgError::Config(
                "supervisor.miss_threshold must be ≥ 1".into(),
            ));
        }
        if self.backoff_cap < self.backoff_base {
            return Err(SdgError::Config(
                "supervisor.backoff_cap must be ≥ backoff_base".into(),
            ));
        }
        Ok(())
    }
}

/// Full runtime configuration for one deployment.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Bounded channel capacity between TE instances (pipelining with
    /// backpressure).
    pub channel_capacity: usize,
    /// Initial SE instance counts: partitions for partitioned SEs, replica
    /// count for partial SEs. Defaults to 1. An SE no task accesses has
    /// no instance, and a count for it is a config error.
    pub se_instances: HashMap<StateId, usize>,
    /// Initial instance counts for stateless tasks. Defaults to 1.
    pub task_instances: HashMap<TaskId, usize>,
    /// Synthetic per-item CPU cost per task, in nanoseconds, divided by the
    /// hosting node's speed. Models the computational cost of TEs.
    pub work_ns: HashMap<TaskId, u64>,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Reactive scaling settings.
    pub scaling: ScalingConfig,
    /// Checkpointing settings.
    pub checkpoint: CheckpointConfig,
    /// OS threads of the work-stealing pool that runs every TE instance on
    /// an actor (see [`crate::sched`]); by default one per core the host
    /// offers ([`std::thread::available_parallelism`]). Independent of the
    /// instance count: synthetic service time (`work_ns`) rests an actor on
    /// the pool's timer heap instead of holding one of these threads.
    pub sched_threads: usize,
    /// Lock stripes per partitioned SE instance. Accessing tasks route each
    /// item to the stripe owning its key, so replicas of one SE group and
    /// the checkpoint coordinator contend per-stripe instead of on one cell
    /// mutex. `1` restores the single-mutex cell; partial and vector SEs
    /// always use one stripe. Striping is enabled only for elements whose
    /// `sdg-verify` key-locality certificate holds (graphs without an
    /// attached report are trusted).
    pub state_stripes: usize,
    /// Self-healing supervisor settings (failure detection and automatic
    /// recovery).
    pub supervisor: SupervisorConfig,
    /// Deterministic fault plan for chaos runs; `None` (the default)
    /// injects nothing.
    pub faults: Option<crate::fault::FaultPlan>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            channel_capacity: 1024,
            se_instances: HashMap::new(),
            task_instances: HashMap::new(),
            work_ns: HashMap::new(),
            cluster: ClusterSpec::default(),
            scaling: ScalingConfig::default(),
            checkpoint: CheckpointConfig::disabled(),
            sched_threads: default_sched_threads(),
            state_stripes: 16,
            supervisor: SupervisorConfig::default(),
            faults: None,
        }
    }
}

/// One pool thread per core the host offers, within the range `validate`
/// accepts.
fn default_sched_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(256))
}

impl RuntimeConfig {
    /// Starts a chained builder from the default configuration:
    ///
    /// ```
    /// use sdg_runtime::config::RuntimeConfig;
    /// use sdg_common::ids::TaskId;
    ///
    /// let cfg = RuntimeConfig::builder()
    ///     .nodes(4)
    ///     .channel_capacity(64)
    ///     .work_ns(TaskId(0), 50_000)
    ///     .build();
    /// assert_eq!(cfg.cluster.nodes.len(), 4);
    /// ```
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> SdgResult<()> {
        if self.channel_capacity == 0 {
            return Err(SdgError::Config("channel_capacity must be ≥ 1".into()));
        }
        for (&se, &n) in &self.se_instances {
            if n == 0 {
                return Err(SdgError::Config(format!("state {se} needs ≥ 1 instance")));
            }
            if n > 1024 {
                return Err(SdgError::Config(format!(
                    "state {se}: at most 1024 instances are supported"
                )));
            }
        }
        for (&t, &n) in &self.task_instances {
            if n == 0 || n > 1024 {
                return Err(SdgError::Config(format!(
                    "task {t}: instance count must be in 1..=1024"
                )));
            }
        }
        if self.state_stripes == 0 || self.state_stripes > 1024 {
            return Err(SdgError::Config("state_stripes must be in 1..=1024".into()));
        }
        if self.sched_threads == 0 || self.sched_threads > 256 {
            return Err(SdgError::Config("sched_threads must be in 1..=256".into()));
        }
        self.scaling.validate()?;
        self.supervisor.validate()?;
        self.checkpoint.validate()
    }
}

/// Chained builder for [`RuntimeConfig`] (see [`RuntimeConfig::builder`]).
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the bounded channel capacity between TE instances.
    pub fn channel_capacity(mut self, n: usize) -> Self {
        self.cfg.channel_capacity = n;
        self
    }

    /// Uses a uniform cluster of `n` normal-speed nodes.
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.cluster = ClusterSpec::uniform(n);
        self
    }

    /// Uses an explicit cluster specification.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cfg.cluster = cluster;
        self
    }

    /// Sets the initial SE instance count of `state`.
    pub fn se_instances(mut self, state: StateId, n: usize) -> Self {
        self.cfg.se_instances.insert(state, n);
        self
    }

    /// Sets the initial instance count of stateless `task`.
    pub fn task_instances(mut self, task: TaskId, n: usize) -> Self {
        self.cfg.task_instances.insert(task, n);
        self
    }

    /// Sets the synthetic per-item CPU cost of `task` in nanoseconds.
    pub fn work_ns(mut self, task: TaskId, ns: u64) -> Self {
        self.cfg.work_ns.insert(task, ns);
        self
    }

    /// Replaces the reactive-scaling settings.
    pub fn scaling(mut self, scaling: ScalingConfig) -> Self {
        self.cfg.scaling = scaling;
        self
    }

    /// Replaces the checkpointing settings.
    pub fn checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.cfg.checkpoint = checkpoint;
        self
    }

    /// Sets the number of pool worker threads.
    pub fn sched_threads(mut self, n: usize) -> Self {
        self.cfg.sched_threads = n;
        self
    }

    /// Sets the lock-stripe count of partitioned SE instances.
    pub fn state_stripes(mut self, n: usize) -> Self {
        self.cfg.state_stripes = n;
        self
    }

    /// Replaces the self-healing supervisor settings.
    pub fn supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.cfg.supervisor = supervisor;
        self
    }

    /// Installs a deterministic fault plan for chaos runs.
    pub fn faults(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Finishes the chain. Consistency is still checked by
    /// [`RuntimeConfig::validate`] at deploy time.
    pub fn build(self) -> RuntimeConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        RuntimeConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_chains_every_knob() {
        let cfg = RuntimeConfig::builder()
            .channel_capacity(32)
            .nodes(4)
            .se_instances(StateId(1), 2)
            .task_instances(TaskId(2), 3)
            .work_ns(TaskId(2), 10_000)
            .scaling(ScalingConfig {
                enabled: true,
                ..Default::default()
            })
            .checkpoint(CheckpointConfig::default())
            .build();
        assert_eq!(cfg.channel_capacity, 32);
        assert_eq!(cfg.cluster.nodes.len(), 4);
        assert_eq!(cfg.se_instances[&StateId(1)], 2);
        assert_eq!(cfg.task_instances[&TaskId(2)], 3);
        assert_eq!(cfg.work_ns[&TaskId(2)], 10_000);
        assert!(cfg.scaling.enabled && cfg.checkpoint.enabled);
        cfg.validate().unwrap();
    }

    #[test]
    fn cluster_speed_defaults_to_one() {
        let c = ClusterSpec {
            nodes: vec![NodeSpec { speed: 0.5 }],
        };
        assert_eq!(c.speed_of(0), 0.5);
        assert_eq!(c.speed_of(7), 1.0);
        assert_eq!(ClusterSpec::uniform(3).nodes.len(), 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = RuntimeConfig {
            channel_capacity: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let mut c = RuntimeConfig::default();
        c.se_instances.insert(StateId(0), 0);
        assert!(c.validate().is_err());

        let mut c = RuntimeConfig::default();
        c.se_instances.insert(StateId(0), 4096);
        assert!(c.validate().is_err());

        let mut c = RuntimeConfig::default();
        c.task_instances.insert(TaskId(0), 0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn scaling_thresholds_are_validated() {
        ScalingConfig::default().validate().unwrap();

        let cfg = RuntimeConfig::builder()
            .scaling(ScalingConfig {
                low_watermark: 0.9, // above high_watermark (0.75)
                ..Default::default()
            })
            .build();
        assert!(cfg.validate().is_err());

        let cfg = RuntimeConfig::builder()
            .scaling(ScalingConfig {
                max_instances: 0,
                ..Default::default()
            })
            .build();
        assert!(cfg.validate().is_err());

        let cfg = RuntimeConfig::builder()
            .scaling(ScalingConfig {
                enabled: true,
                low_watermark: 0.05,
                idle_patience: 2,
                ..Default::default()
            })
            .build();
        cfg.validate().unwrap();
        assert_eq!(cfg.scaling.idle_patience, 2);
    }

    #[test]
    fn scheduler_config_validation() {
        // One pool thread per core: whatever the host, a valid count.
        let default = RuntimeConfig::default();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(default.sched_threads, cores.min(256));
        default.validate().unwrap();
        let cfg = RuntimeConfig::builder().sched_threads(2).build();
        assert_eq!(cfg.sched_threads, 2);
        cfg.validate().unwrap();
        assert!(RuntimeConfig::builder()
            .sched_threads(0)
            .build()
            .validate()
            .is_err());
        assert!(RuntimeConfig::builder()
            .sched_threads(512)
            .build()
            .validate()
            .is_err());
    }

    #[test]
    fn supervisor_config_validation() {
        SupervisorConfig::default().validate().unwrap();
        assert!(RuntimeConfig::default().supervisor.enabled);
        assert!(!RuntimeConfig::default().supervisor.hang_detection);
        assert!(RuntimeConfig::default().faults.is_none());

        let cases = [
            SupervisorConfig {
                heartbeat_interval: Duration::ZERO,
                ..Default::default()
            },
            SupervisorConfig {
                miss_threshold: 0,
                ..Default::default()
            },
            SupervisorConfig {
                backoff_base: Duration::from_millis(100),
                backoff_cap: Duration::from_millis(50),
                ..Default::default()
            },
        ];
        for bad in cases {
            let cfg = RuntimeConfig::builder().supervisor(bad.clone()).build();
            assert!(cfg.validate().is_err(), "accepted invalid {bad:?}");
        }

        let cfg = RuntimeConfig::builder()
            .supervisor(SupervisorConfig {
                hang_detection: true,
                heartbeat_interval: Duration::from_millis(5),
                miss_threshold: 3,
                ..Default::default()
            })
            .faults(crate::fault::FaultPlan::seeded(11).with_worker_panic("bump_0", 0, 40))
            .build();
        cfg.validate().unwrap();
        assert_eq!(cfg.supervisor.miss_threshold, 3);
        assert!(!cfg.faults.as_ref().unwrap().is_noop());
    }

    #[test]
    fn state_stripes_validation() {
        assert_eq!(RuntimeConfig::default().state_stripes, 16);
        let cfg = RuntimeConfig::builder().state_stripes(4).build();
        assert_eq!(cfg.state_stripes, 4);
        cfg.validate().unwrap();
        assert!(RuntimeConfig::builder()
            .state_stripes(0)
            .build()
            .validate()
            .is_err());
        assert!(RuntimeConfig::builder()
            .state_stripes(2048)
            .build()
            .validate()
            .is_err());
    }
}
