//! The bounded structured event log.
//!
//! Control-plane occurrences — scale-outs, straggler detection, checkpoint
//! phases, failure/recovery phases — are recorded as typed [`ObsEvent`]s
//! with timestamps monotonic per registry (offsets from registry creation).
//! The log is bounded: once `capacity` events are held, the oldest is
//! evicted and counted in [`EventLog::dropped`], so a long-running
//! deployment never grows without bound.

use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

use parking_lot::Mutex;

use crate::metrics::Counter;

/// Default bound on retained events per registry.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// What happened. Task, state and SE-instance labels are plain strings so
/// the same schema serves the SDG runtime and the baseline engines.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The scaling monitor flagged `task` as the pipeline bottleneck
    /// (saturated queues with no downstream backpressure) — either its TEs
    /// are computationally expensive or an instance sits on a straggler
    /// node (§3.3).
    BottleneckDetected {
        /// Saturated task.
        task: String,
        /// Mean queue fill of its instances in `[0, 1]`.
        fill: f64,
    },
    /// A new TE instance was added to `task`.
    ScaleOut {
        /// Scaled task.
        task: String,
        /// Instance count after scaling.
        instances: u32,
        /// The node the new instance was placed on.
        node: u32,
    },
    /// A TE instance was removed from `task` (scale-in), merging its SE
    /// shard or partial aggregate into the survivors.
    ScaleIn {
        /// Scaled task.
        task: String,
        /// Instance count after scaling.
        instances: u32,
        /// The node the removed instance ran on.
        node: u32,
    },
    /// A partitioned scale-out drained in-flight items behind a barrier
    /// before repartitioning.
    RepartitionDrain {
        /// Task whose producers were paused.
        task: String,
        /// How long the drain barrier was held.
        waited: Duration,
    },
    /// State moved between SE instances during a reconfiguration: a shard
    /// re-split on scale-out, or a shard/partial merge on scale-in.
    StateMigrated {
        /// State label, e.g. `kv`.
        state: String,
        /// Bytes that changed owner.
        bytes: u64,
        /// How long the migration (under the drain barrier) took.
        took: Duration,
    },
    /// Checkpoint of an SE instance started (step 1 of §5's protocol).
    CheckpointBegin {
        /// SE instance label, e.g. `kv#0`.
        instance: String,
        /// Checkpoint sequence number.
        seq: u64,
    },
    /// A checkpoint's chunks were persisted to the backup stores (steps
    /// 2–4).
    CheckpointBackup {
        /// SE instance label.
        instance: String,
        /// Checkpoint sequence number.
        seq: u64,
        /// Serialised state bytes written.
        bytes: u64,
    },
    /// The dirty overlay was consolidated into the base structure (step 5).
    CheckpointConsolidate {
        /// SE instance label.
        instance: String,
        /// Checkpoint sequence number.
        seq: u64,
    },
    /// A node failure was injected for an SE instance.
    FailureInjected {
        /// SE instance label.
        instance: String,
    },
    /// State was reconstituted from the `m` backup stores (steps R1–R2).
    RecoveryRestored {
        /// SE instance label.
        instance: String,
        /// Fetch + rebuild time.
        took: Duration,
    },
    /// Upstream output buffers were replayed past the restored watermark
    /// (step R3).
    RecoveryReplayed {
        /// SE instance label.
        instance: String,
        /// Items re-sent from upstream buffers.
        items: u64,
    },
    /// End-to-end recovery finished and processing resumed.
    RecoveryComplete {
        /// SE instance label.
        instance: String,
        /// Pause-to-resume time.
        took: Duration,
    },
    /// A worker/actor run loop panicked and was caught at the scheduler
    /// boundary.
    WorkerPanicked {
        /// TE instance label, e.g. `counter#1`.
        instance: String,
        /// Best-effort panic payload rendering.
        message: String,
    },
    /// The supervisor saw an instance's heartbeat epoch stall past the
    /// miss threshold.
    HeartbeatMissed {
        /// TE instance label.
        instance: String,
        /// Consecutive scan intervals without a beat.
        missed: u32,
    },
    /// The supervisor began an automatic fail-and-recover attempt.
    RecoveryStarted {
        /// SE instance label being recovered.
        instance: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// An automatic recovery attempt restored state and replayed buffers.
    RecoverySucceeded {
        /// SE instance label.
        instance: String,
        /// Attempts consumed (1 = first try).
        attempt: u32,
    },
    /// An automatic recovery attempt failed; the supervisor will back off
    /// and retry, or escalate to `Degraded` when attempts are exhausted.
    RecoveryFailed {
        /// SE instance label.
        instance: String,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Rendered error.
        error: String,
    },
    /// A persisted chunk failed its checksum or vanished; restore fell
    /// back toward an older intact generation.
    ChunkCorrupt {
        /// SE instance label owning the chunk.
        instance: String,
        /// Rendered data-loss error.
        error: String,
    },
}

impl EventKind {
    /// Stable lowercase identifier: the JSON's `kind`.
    pub fn name(&self) -> &'static str {
        self.describe().0
    }

    /// The event's name and its `(key, value)` fields in render order:
    /// the one description of each kind that both snapshot renderers
    /// read, so the text and JSON forms share their keys.
    pub(super) fn describe(&self) -> (&'static str, Vec<(&'static str, EventField<'_>)>) {
        use EventField::{Fixed, Int, Str};
        let ms = |d: &Duration| Fixed(d.as_secs_f64() * 1e3);
        let int = |n: &u32| Int(u64::from(*n));
        match self {
            EventKind::BottleneckDetected { task, fill } => (
                "bottleneck_detected",
                vec![("task", Str(task)), ("fill", Fixed(*fill))],
            ),
            EventKind::ScaleOut {
                task,
                instances,
                node,
            } => (
                "scale_out",
                vec![
                    ("task", Str(task)),
                    ("instances", int(instances)),
                    ("node", int(node)),
                ],
            ),
            EventKind::ScaleIn {
                task,
                instances,
                node,
            } => (
                "scale_in",
                vec![
                    ("task", Str(task)),
                    ("instances", int(instances)),
                    ("node", int(node)),
                ],
            ),
            EventKind::RepartitionDrain { task, waited } => (
                "repartition_drain",
                vec![("task", Str(task)), ("waited_ms", ms(waited))],
            ),
            EventKind::StateMigrated { state, bytes, took } => (
                "state_migrated",
                vec![
                    ("state", Str(state)),
                    ("bytes", Int(*bytes)),
                    ("took_ms", ms(took)),
                ],
            ),
            EventKind::CheckpointBegin { instance, seq } => (
                "checkpoint_begin",
                vec![("instance", Str(instance)), ("ckpt_seq", Int(*seq))],
            ),
            EventKind::CheckpointBackup {
                instance,
                seq,
                bytes,
            } => (
                "checkpoint_backup",
                vec![
                    ("instance", Str(instance)),
                    ("ckpt_seq", Int(*seq)),
                    ("bytes", Int(*bytes)),
                ],
            ),
            EventKind::CheckpointConsolidate { instance, seq } => (
                "checkpoint_consolidate",
                vec![("instance", Str(instance)), ("ckpt_seq", Int(*seq))],
            ),
            EventKind::FailureInjected { instance } => {
                ("failure_injected", vec![("instance", Str(instance))])
            }
            EventKind::RecoveryRestored { instance, took } => (
                "recovery_restored",
                vec![("instance", Str(instance)), ("took_ms", ms(took))],
            ),
            EventKind::RecoveryReplayed { instance, items } => (
                "recovery_replayed",
                vec![("instance", Str(instance)), ("items", Int(*items))],
            ),
            EventKind::RecoveryComplete { instance, took } => (
                "recovery_complete",
                vec![("instance", Str(instance)), ("took_ms", ms(took))],
            ),
            EventKind::WorkerPanicked { instance, message } => (
                "worker_panicked",
                vec![("instance", Str(instance)), ("message", Str(message))],
            ),
            EventKind::HeartbeatMissed { instance, missed } => (
                "heartbeat_missed",
                vec![("instance", Str(instance)), ("missed", int(missed))],
            ),
            EventKind::RecoveryStarted { instance, attempt } => (
                "recovery_started",
                vec![("instance", Str(instance)), ("attempt", int(attempt))],
            ),
            EventKind::RecoverySucceeded { instance, attempt } => (
                "recovery_succeeded",
                vec![("instance", Str(instance)), ("attempt", int(attempt))],
            ),
            EventKind::RecoveryFailed {
                instance,
                attempt,
                error,
            } => (
                "recovery_failed",
                vec![
                    ("instance", Str(instance)),
                    ("attempt", int(attempt)),
                    ("error", Str(error)),
                ],
            ),
            EventKind::ChunkCorrupt { instance, error } => (
                "chunk_corrupt",
                vec![("instance", Str(instance)), ("error", Str(error))],
            ),
        }
    }
}

/// One field value of an [`EventKind`]. `Display` is the text form: a
/// string bare, a number as JSON prints it.
#[derive(Debug)]
pub(super) enum EventField<'a> {
    /// A label or message; a quoted, escaped string in JSON.
    Str(&'a str),
    /// A count, size or sequence number.
    Int(u64),
    /// A ratio, or a duration in milliseconds, with three decimals.
    Fixed(f64),
}

impl fmt::Display for EventField<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventField::Str(s) => f.write_str(s),
            EventField::Int(n) => write!(f, "{n}"),
            EventField::Fixed(x) => write!(f, "{x:.3}"),
        }
    }
}

/// One logged event.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Monotonic sequence number (0-based, never reused; survives
    /// eviction, so gaps reveal dropped events).
    pub seq: u64,
    /// Offset from registry creation — monotonic within a registry.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
}

/// Bounded FIFO of [`ObsEvent`]s.
#[derive(Debug)]
pub struct EventLog {
    inner: Mutex<VecDeque<ObsEvent>>,
    capacity: usize,
    logged: Counter,
    dropped: Counter,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// Creates a log retaining at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            logged: Counter::new(),
            dropped: Counter::new(),
        }
    }

    /// Appends an event at offset `at`, evicting the oldest when full.
    pub fn push(&self, at: Duration, kind: EventKind) {
        let mut q = self.inner.lock();
        let seq = self.logged.get();
        self.logged.inc();
        if q.len() >= self.capacity {
            q.pop_front();
            self.dropped.inc();
        }
        q.push_back(ObsEvent { seq, at, kind });
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Total events ever logged (including evicted ones).
    pub fn logged(&self) -> u64 {
        self.logged.get()
    }

    /// Events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_log_evicts_oldest() {
        let log = EventLog::with_capacity(3);
        for i in 0..5u64 {
            log.push(
                Duration::from_millis(i),
                EventKind::FailureInjected {
                    instance: format!("kv#{i}"),
                },
            );
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(log.logged(), 5);
        assert_eq!(log.dropped(), 2);
        // The two oldest were evicted; sequence numbers are preserved.
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        // Timestamps are monotonic.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let log = EventLog::with_capacity(0);
        log.push(
            Duration::ZERO,
            EventKind::ScaleOut {
                task: "t".into(),
                instances: 2,
                node: 1,
            },
        );
        assert_eq!(log.snapshot().len(), 1);
        assert_eq!(log.capacity(), 1);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            EventKind::CheckpointBegin {
                instance: "s#0".into(),
                seq: 1
            }
            .name(),
            "checkpoint_begin"
        );
        assert_eq!(
            EventKind::RecoveryComplete {
                instance: "s#0".into(),
                took: Duration::ZERO
            }
            .name(),
            "recovery_complete"
        );
        assert_eq!(
            EventKind::ScaleIn {
                task: "t".into(),
                instances: 1,
                node: 3
            }
            .name(),
            "scale_in"
        );
        assert_eq!(
            EventKind::StateMigrated {
                state: "kv".into(),
                bytes: 512,
                took: Duration::ZERO
            }
            .name(),
            "state_migrated"
        );
        assert_eq!(
            EventKind::WorkerPanicked {
                instance: "t#0".into(),
                message: "boom".into()
            }
            .name(),
            "worker_panicked"
        );
        assert_eq!(
            EventKind::HeartbeatMissed {
                instance: "t#0".into(),
                missed: 3
            }
            .name(),
            "heartbeat_missed"
        );
        assert_eq!(
            EventKind::RecoveryStarted {
                instance: "s#0".into(),
                attempt: 1
            }
            .name(),
            "recovery_started"
        );
        assert_eq!(
            EventKind::RecoverySucceeded {
                instance: "s#0".into(),
                attempt: 2
            }
            .name(),
            "recovery_succeeded"
        );
        assert_eq!(
            EventKind::RecoveryFailed {
                instance: "s#0".into(),
                attempt: 1,
                error: "chunk gone".into()
            }
            .name(),
            "recovery_failed"
        );
        assert_eq!(
            EventKind::ChunkCorrupt {
                instance: "s#0".into(),
                error: "checksum mismatch".into()
            }
            .name(),
            "chunk_corrupt"
        );
    }
}
