//! The per-deployment instrument registry.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::ids::{StateId, TaskId};
use crate::metrics::{Counter, Gauge, Histogram};

use super::event::{EventKind, EventLog, ObsEvent, DEFAULT_EVENT_CAPACITY};
use super::snapshot::{
    CheckpointStats, FaultStats, MetricsSnapshot, ReconfigStats, RecoveryStats, SchedStats,
    StateStats, TaskStats,
};

/// Instruments of one task element (shared by all of its instances).
///
/// Counters are cumulative; gauges are refreshed by the owner right before
/// a snapshot; histograms are nanosecond-valued.
#[derive(Debug)]
pub struct TaskInstruments {
    /// Task label (unique within a registry).
    pub name: String,
    /// Graph task id, when the owner is the SDG runtime.
    pub id: Option<TaskId>,
    /// Items received by the task's instances (gather fragments included).
    pub items_in: Counter,
    /// Items forwarded downstream along dataflow edges.
    pub items_out: Counter,
    /// Values emitted on the external output sink.
    pub emits: Counter,
    /// Items fully processed (duplicates filtered during replay count,
    /// matching the engine's historical accounting).
    pub processed: Counter,
    /// Task-code execution errors.
    pub errors: Counter,
    /// Gather-barrier waits: fragments parked until the barrier filled.
    pub gather_waits: Counter,
    /// Queued items across the task's input channels (sampled).
    pub queue_depth: Gauge,
    /// Running instance count (sampled).
    pub instances: Gauge,
    /// Per-item service time in nanoseconds.
    pub service: Histogram,
    /// End-to-end request latency in nanoseconds, recorded at emit.
    pub latency: Histogram,
}

impl TaskInstruments {
    fn new(name: &str, id: Option<TaskId>) -> Self {
        TaskInstruments {
            name: name.to_string(),
            id,
            items_in: Counter::new(),
            items_out: Counter::new(),
            emits: Counter::new(),
            processed: Counter::new(),
            errors: Counter::new(),
            gather_waits: Counter::new(),
            queue_depth: Gauge::new(),
            instances: Gauge::new(),
            service: Histogram::new(),
            latency: Histogram::new(),
        }
    }
}

/// Instruments of one state element (all replicas together).
#[derive(Debug)]
pub struct StateInstruments {
    /// State label (unique within a registry).
    pub name: String,
    /// Graph state id, when the owner is the SDG runtime.
    pub id: Option<StateId>,
    /// SE instance count (sampled).
    pub instances: Gauge,
    /// Approximate bytes held across all instances (sampled).
    pub bytes: Gauge,
    /// Bytes in dirty overlays of instances currently checkpointing
    /// (sampled; zero outside a checkpoint).
    pub dirty_bytes: Gauge,
    /// Lock stripes per instance (sampled; 1 for unstriped cells).
    pub stripes: Gauge,
    /// Chunks marked dirty since the last completed checkpoint, summed
    /// across instances (sampled; zero for cells that track none).
    pub dirty_chunks: Gauge,
    /// Checkpoints taken of this SE's instances.
    pub checkpoints: Counter,
}

impl StateInstruments {
    fn new(name: &str, id: Option<StateId>) -> Self {
        StateInstruments {
            name: name.to_string(),
            id,
            instances: Gauge::new(),
            bytes: Gauge::new(),
            dirty_bytes: Gauge::new(),
            stripes: Gauge::new(),
            dirty_chunks: Gauge::new(),
            checkpoints: Counter::new(),
        }
    }
}

/// Phase timers and totals of the checkpoint/recovery subsystem (§5).
#[derive(Debug, Default)]
pub struct CheckpointInstruments {
    /// Checkpoints completed.
    pub taken: Counter,
    /// Of those, delta generations (subset of `taken`).
    pub deltas: Counter,
    /// Checkpoints that failed.
    pub failed: Counter,
    /// Serialised state bytes written to backup stores.
    pub bytes: Counter,
    /// Items replayed from upstream buffers during recoveries.
    pub replayed: Counter,
    /// Approximate bytes parked across upstream output buffers, sampled at
    /// snapshot time.
    pub buffered_bytes: Gauge,
    /// Lock-held snapshot initiation time (async step 1), ns.
    pub snapshot_ns: Histogram,
    /// Off-path serialise + backup time (async steps 2–4), ns.
    pub persist_ns: Histogram,
    /// Lock-held overlay consolidation time (async step 5), ns.
    pub consolidate_ns: Histogram,
    /// Stop-the-world total for synchronous checkpoints, ns.
    pub sync_ns: Histogram,
    /// State fetch + rebuild time during recovery (steps R1–R2), ns.
    pub restore_ns: Histogram,
}

/// Counters of the reconfiguration control plane: per-direction scale
/// totals and a histogram of bytes migrated per state-migration episode.
#[derive(Debug, Default)]
pub struct ReconfigInstruments {
    /// Instances added (scale-out reconfigurations completed).
    pub scale_outs: Counter,
    /// Instances removed (scale-in reconfigurations completed).
    pub scale_ins: Counter,
    /// Bytes moved between SE instances, one sample per migration episode.
    pub migrated_bytes: Histogram,
}

/// Counters and gauges of the work-stealing actor pool that runs every TE
/// instance.
#[derive(Debug, Default)]
pub struct SchedInstruments {
    /// Pool worker threads (sampled once at pool start).
    pub workers: Gauge,
    /// Actor activations: slices a pool worker ran.
    pub polls: Counter,
    /// Actors taken from another worker's local deque.
    pub steals: Counter,
    /// Times a pool worker parked for lack of runnable actors.
    pub parks: Counter,
    /// Producer actors suspended on a full downstream mailbox.
    pub suspends: Counter,
    /// Suspended actors rescheduled by arriving mailbox credit.
    pub resumes: Counter,
    /// Deadlines fired from the shared timer heap: the ends of synthetic
    /// service-time rests.
    pub timer_fires: Counter,
    /// Messages queued across all actor mailboxes (sampled).
    pub mailbox_depth: Gauge,
}

/// Counters of the fault-injection layer and failure detector. All zero
/// when no faults are injected and every worker stays healthy.
#[derive(Debug, Default)]
pub struct FaultInstruments {
    /// Worker/actor panics caught at the scheduler boundary.
    pub worker_panics: Counter,
    /// Heartbeat epochs seen stalled past the miss threshold.
    pub heartbeats_missed: Counter,
    /// Chunks found corrupt (checksum mismatch / truncation) on read.
    pub chunks_corrupt: Counter,
    /// Transient store I/O errors absorbed by retry.
    pub io_retries: Counter,
    /// Time from failure occurrence to supervisor detection, ns.
    pub detection_ns: Histogram,
}

/// Counters of the supervisor's automatic recovery driver.
#[derive(Debug, Default)]
pub struct RecoveryInstruments {
    /// Automatic fail-and-recover attempts started.
    pub started: Counter,
    /// Attempts that restored state and replayed buffers successfully.
    pub succeeded: Counter,
    /// Attempts that failed (will back off and retry, or escalate).
    pub failed: Counter,
    /// Restore-chain fallbacks to an older intact generation.
    pub chain_fallbacks: Counter,
    /// Recoveries currently in flight (storm-guard gauge).
    pub in_flight: Gauge,
    /// Full detection-to-resume recovery time (MTTR), ns.
    pub mttr_ns: Histogram,
}

/// A deployment's registry of instruments and events.
///
/// One registry is owned per engine (SDG deployment or baseline). Hot-path
/// recording goes straight through the shared [`TaskInstruments`] /
/// [`StateInstruments`] handles; the registry's own maps are locked only
/// when an instrument is first created or a snapshot is taken.
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    tasks: RwLock<BTreeMap<String, Arc<TaskInstruments>>>,
    states: RwLock<BTreeMap<String, Arc<StateInstruments>>>,
    checkpoints: Arc<CheckpointInstruments>,
    reconfig: Arc<ReconfigInstruments>,
    sched: Arc<SchedInstruments>,
    faults: Arc<FaultInstruments>,
    recovery: Arc<RecoveryInstruments>,
    e2e_latency: Arc<Histogram>,
    events: EventLog,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry with the default event-log bound.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates an empty registry retaining at most `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        MetricsRegistry {
            started: Instant::now(),
            tasks: RwLock::new(BTreeMap::new()),
            states: RwLock::new(BTreeMap::new()),
            checkpoints: Arc::new(CheckpointInstruments::default()),
            reconfig: Arc::new(ReconfigInstruments::default()),
            sched: Arc::new(SchedInstruments::default()),
            faults: Arc::new(FaultInstruments::default()),
            recovery: Arc::new(RecoveryInstruments::default()),
            e2e_latency: Arc::new(Histogram::new()),
            events: EventLog::with_capacity(capacity),
        }
    }

    /// Time elapsed since the registry was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Returns (creating on first use) the instruments of task `name`.
    pub fn task(&self, name: &str) -> Arc<TaskInstruments> {
        self.task_with_id(name, None)
    }

    /// [`MetricsRegistry::task`] with a graph id attached on creation.
    pub fn task_with_id(&self, name: &str, id: Option<TaskId>) -> Arc<TaskInstruments> {
        if let Some(t) = self.tasks.read().get(name) {
            return Arc::clone(t);
        }
        Arc::clone(
            self.tasks
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(TaskInstruments::new(name, id))),
        )
    }

    /// Returns (creating on first use) the instruments of state `name`.
    pub fn state(&self, name: &str) -> Arc<StateInstruments> {
        self.state_with_id(name, None)
    }

    /// [`MetricsRegistry::state`] with a graph id attached on creation.
    pub fn state_with_id(&self, name: &str, id: Option<StateId>) -> Arc<StateInstruments> {
        if let Some(s) = self.states.read().get(name) {
            return Arc::clone(s);
        }
        Arc::clone(
            self.states
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(StateInstruments::new(name, id))),
        )
    }

    /// The checkpoint/recovery phase instruments.
    pub fn checkpoints(&self) -> &Arc<CheckpointInstruments> {
        &self.checkpoints
    }

    /// The reconfiguration control-plane instruments.
    pub fn reconfig(&self) -> &Arc<ReconfigInstruments> {
        &self.reconfig
    }

    /// The cooperative-scheduler (`Pool`) instruments.
    pub fn sched(&self) -> &Arc<SchedInstruments> {
        &self.sched
    }

    /// The fault-injection / failure-detection instruments.
    pub fn faults(&self) -> &Arc<FaultInstruments> {
        &self.faults
    }

    /// The automatic-recovery (supervisor) instruments.
    pub fn recovery(&self) -> &Arc<RecoveryInstruments> {
        &self.recovery
    }

    /// The deployment-wide end-to-end latency histogram (all tasks merged).
    pub fn e2e_latency(&self) -> &Arc<Histogram> {
        &self.e2e_latency
    }

    /// Logs a structured event stamped with the registry's monotonic clock.
    pub fn record_event(&self, kind: EventKind) {
        self.events.push(self.started.elapsed(), kind);
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.events.snapshot()
    }

    /// Resets every histogram (service, latency, checkpoint phases) while
    /// leaving counters, gauges and the event log untouched. Benches call
    /// this after warm-up so percentiles cover only the measured window.
    pub fn reset_observations(&self) {
        for t in self.tasks.read().values() {
            t.service.reset();
            t.latency.reset();
        }
        self.e2e_latency.reset();
        let c = &self.checkpoints;
        c.snapshot_ns.reset();
        c.persist_ns.reset();
        c.consolidate_ns.reset();
        c.sync_ns.reset();
        c.restore_ns.reset();
        self.reconfig.migrated_bytes.reset();
        self.faults.detection_ns.reset();
        self.recovery.mttr_ns.reset();
    }

    /// Freezes all instruments into a plain-data [`MetricsSnapshot`].
    ///
    /// Gauges report whatever the owner last sampled; engines refresh them
    /// immediately before calling this.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let tasks: Vec<TaskStats> = self
            .tasks
            .read()
            .values()
            .map(|t| TaskStats {
                name: t.name.clone(),
                id: t.id,
                instances: t.instances.get(),
                items_in: t.items_in.get(),
                items_out: t.items_out.get(),
                emits: t.emits.get(),
                processed: t.processed.get(),
                errors: t.errors.get(),
                gather_waits: t.gather_waits.get(),
                queue_depth: t.queue_depth.get(),
                service: t.service.summary(),
                latency: t.latency.summary(),
            })
            .collect();
        let states: Vec<StateStats> = self
            .states
            .read()
            .values()
            .map(|s| StateStats {
                name: s.name.clone(),
                id: s.id,
                instances: s.instances.get(),
                bytes: s.bytes.get(),
                dirty_bytes: s.dirty_bytes.get(),
                stripes: s.stripes.get(),
                dirty_chunks: s.dirty_chunks.get(),
                checkpoints: s.checkpoints.get(),
            })
            .collect();
        let c = &self.checkpoints;
        MetricsSnapshot {
            uptime: self.started.elapsed(),
            tasks,
            states,
            checkpoints: CheckpointStats {
                taken: c.taken.get(),
                deltas: c.deltas.get(),
                failed: c.failed.get(),
                bytes: c.bytes.get(),
                replayed: c.replayed.get(),
                encode_deferred: 0,
                buffered_bytes: c.buffered_bytes.get(),
                snapshot: c.snapshot_ns.summary(),
                persist: c.persist_ns.summary(),
                consolidate: c.consolidate_ns.summary(),
                sync: c.sync_ns.summary(),
                restore: c.restore_ns.summary(),
            },
            reconfig: ReconfigStats {
                scale_outs: self.reconfig.scale_outs.get(),
                scale_ins: self.reconfig.scale_ins.get(),
                migrated_bytes: self.reconfig.migrated_bytes.summary(),
            },
            sched: SchedStats {
                workers: self.sched.workers.get(),
                polls: self.sched.polls.get(),
                steals: self.sched.steals.get(),
                parks: self.sched.parks.get(),
                suspends: self.sched.suspends.get(),
                resumes: self.sched.resumes.get(),
                timer_fires: self.sched.timer_fires.get(),
                mailbox_depth: self.sched.mailbox_depth.get(),
            },
            faults: FaultStats {
                worker_panics: self.faults.worker_panics.get(),
                heartbeats_missed: self.faults.heartbeats_missed.get(),
                chunks_corrupt: self.faults.chunks_corrupt.get(),
                io_retries: self.faults.io_retries.get(),
                detection: self.faults.detection_ns.summary(),
            },
            recovery: RecoveryStats {
                started: self.recovery.started.get(),
                succeeded: self.recovery.succeeded.get(),
                failed: self.recovery.failed.get(),
                chain_fallbacks: self.recovery.chain_fallbacks.get(),
                in_flight: self.recovery.in_flight.get(),
                mttr: self.recovery.mttr_ns.summary(),
            },
            e2e_latency: self.e2e_latency.summary(),
            events: self.events.snapshot(),
            events_logged: self.events.logged(),
            events_dropped: self.events.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.task_with_id("put", Some(TaskId(3)));
        let b = reg.task("put");
        a.processed.add(5);
        assert_eq!(b.processed.get(), 5);
        assert_eq!(b.id, Some(TaskId(3)));
        // An id passed after creation does not overwrite the original.
        let c = reg.task_with_id("put", Some(TaskId(9)));
        assert_eq!(c.id, Some(TaskId(3)));
    }

    #[test]
    fn snapshot_reflects_recordings() {
        let reg = MetricsRegistry::new();
        let t = reg.task("get");
        t.items_in.add(10);
        t.processed.add(9);
        t.errors.inc();
        t.instances.set(2);
        t.service.record(1_000);
        let s = reg.state_with_id("kv", Some(StateId(0)));
        s.bytes.set(4096);
        s.instances.set(2);
        reg.checkpoints().taken.inc();
        reg.checkpoints().snapshot_ns.record(500);
        reg.record_event(EventKind::CheckpointBegin {
            instance: "kv#0".into(),
            seq: 1,
        });

        let snap = reg.snapshot();
        let task = snap.task("get").unwrap();
        assert_eq!(task.items_in, 10);
        assert_eq!(task.processed, 9);
        assert_eq!(task.errors, 1);
        assert_eq!(task.instances, 2);
        assert_eq!(task.service.count, 1);
        let state = snap.state("kv").unwrap();
        assert_eq!(state.bytes, 4096);
        assert_eq!(state.id, Some(StateId(0)));
        assert_eq!(snap.checkpoints.taken, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events_logged, 1);
    }

    #[test]
    fn reset_observations_keeps_counters() {
        let reg = MetricsRegistry::new();
        let t = reg.task("f");
        t.processed.add(7);
        t.latency.record(123);
        reg.e2e_latency().record(123);
        reg.reset_observations();
        assert_eq!(t.processed.get(), 7);
        assert_eq!(t.latency.count(), 0);
        assert_eq!(reg.e2e_latency().count(), 0);
    }

    #[test]
    fn concurrent_record_and_snapshot_race() {
        let reg = Arc::new(MetricsRegistry::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        // Four writers hammer instruments (two of them creating new ones
        // by name) while two readers snapshot concurrently.
        for w in 0..4u64 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let t = reg.task(if w < 2 { "hot" } else { "cold" });
                    t.items_in.inc();
                    t.processed.inc();
                    t.service.record(i % 10_000);
                    if i.is_multiple_of(64) {
                        reg.state("s").bytes.set(i);
                        reg.record_event(EventKind::ScaleOut {
                            task: "hot".into(),
                            instances: 2,
                            node: w as u32,
                        });
                    }
                    i += 1;
                }
                i
            }));
        }
        let mut readers = Vec::new();
        for _ in 0..2 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut snaps = 0u64;
                let mut seen: BTreeMap<String, u64> = BTreeMap::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = reg.snapshot();
                    // A snapshot is not a consistent cut across counters
                    // (each is read on its own), but no counter may ever
                    // be seen going backwards.
                    for t in &snap.tasks {
                        let last = seen.entry(t.name.clone()).or_insert(0);
                        assert!(t.processed >= *last);
                        *last = t.processed;
                    }
                    snaps += 1;
                }
                snaps
            }));
        }
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let written: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let snaps: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(snaps > 0);
        // After the dust settles the final snapshot is exact.
        let snap = reg.snapshot();
        let total: u64 = snap.tasks.iter().map(|t| t.processed).sum();
        assert_eq!(total, written);
    }
}
