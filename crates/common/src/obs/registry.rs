//! The per-deployment instrument registry.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::ids::{StateId, TaskId};
use crate::metrics::{Counter, Gauge, Histogram};

use super::event::{EventKind, EventLog, ObsEvent, DEFAULT_EVENT_CAPACITY};
use super::snapshot::{
    CheckpointStats, FaultStats, MetricsSnapshot, ReconfigStats, RecoveryStats, SchedStats,
    StateStats, TaskStats,
};

/// Instruments of one task element.
///
/// Each writer of the task — a TE instance, or a baseline engine's task —
/// writes its own [`TaskShard`], with no locked read-modify-write; a
/// snapshot folds the task's shards together. The gauges are refreshed by
/// the owner right before a snapshot.
#[derive(Debug)]
pub struct TaskInstruments {
    /// Task label (unique within a registry).
    pub name: String,
    /// Graph task id, when the owner is the SDG runtime.
    pub id: Option<TaskId>,
    /// Queued items across the task's input channels (sampled).
    pub queue_depth: Gauge,
    /// Running instance count (sampled).
    pub instances: Gauge,
    /// The shards of the task's writers.
    shards: Mutex<Shards>,
}

/// What one writer of a task writes: the counters and nanosecond
/// histograms of a [`TaskStats`] row, alone on their cache lines.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    items_in: Counter,
    items_out: Counter,
    emits: Counter,
    processed: Counter,
    errors: Counter,
    gather_waits: Counter,
    service: Histogram,
    /// Allocated with the first latency sample: most writers never emit,
    /// and a histogram is 16 KB. Readers treat a missing one as empty.
    latency: OnceLock<Histogram>,
}

impl Shard {
    /// Adds every count and sample of `other`.
    fn absorb(&self, other: &Shard) {
        self.items_in.add(other.items_in.get());
        self.items_out.add(other.items_out.get());
        self.emits.add(other.emits.get());
        self.processed.add(other.processed.get());
        self.errors.add(other.errors.get());
        self.gather_waits.add(other.gather_waits.get());
        self.service.merge_from(&other.service);
        if let Some(latency) = other.latency.get() {
            self.latency.get_or_init(Histogram::new).merge_from(latency);
        }
    }
}

/// A task's live shards, and what its retired instances wrote.
#[derive(Debug, Default)]
struct Shards {
    live: Vec<Arc<Shard>>,
    /// Allocated when the first instance retires.
    retired: Option<Box<Shard>>,
}

impl Shards {
    fn all(&self) -> impl Iterator<Item = &Shard> {
        self.live
            .iter()
            .map(|s| &**s)
            .chain(self.retired.as_deref())
    }
}

/// One writer's handle on its own instruments: a TE instance's, or a
/// baseline engine task's.
///
/// Writes take `&mut self`, so one thread at a time writes the shard and
/// each write is a relaxed load and store (see [`crate::metrics`]). A
/// scheduler that moves the owner between threads must order the moves:
/// the runtime's actor takes its worker out of a locked slot for a slice
/// and puts it back after, so consecutive slices never write at once.
/// Dropping the handle retires the shard: its counts and samples move
/// into the task's retired totals, so the task's counters never go
/// backwards when an instance dies or is scaled away.
#[derive(Debug)]
pub struct TaskShard {
    shard: Arc<Shard>,
    task: Arc<TaskInstruments>,
}

impl TaskShard {
    /// Counts `n` items received.
    pub fn add_items_in(&mut self, n: u64) {
        self.shard.items_in.add_by_owner(n);
    }

    /// Counts `n` items forwarded downstream.
    pub fn add_items_out(&mut self, n: u64) {
        self.shard.items_out.add_by_owner(n);
    }

    /// Counts `n` values emitted on the sink.
    pub fn add_emits(&mut self, n: u64) {
        self.shard.emits.add_by_owner(n);
    }

    /// Counts `n` items processed.
    pub fn add_processed(&mut self, n: u64) {
        self.shard.processed.add_by_owner(n);
    }

    /// Counts `n` task-code errors.
    pub fn add_errors(&mut self, n: u64) {
        self.shard.errors.add_by_owner(n);
    }

    /// Counts `n` fragments parked at a gather barrier.
    pub fn add_gather_waits(&mut self, n: u64) {
        self.shard.gather_waits.add_by_owner(n);
    }

    /// Records one item's service time in nanoseconds.
    pub fn record_service(&mut self, ns: u64) {
        self.shard.service.record_by_owner(ns);
    }

    /// Records one request's end-to-end latency in nanoseconds; the
    /// deployment-wide `e2e_latency` is the merge of these at snapshot.
    pub fn record_latency(&mut self, ns: u64) {
        self.shard
            .latency
            .get_or_init(Histogram::new)
            .record_by_owner(ns);
    }
}

impl Drop for TaskShard {
    fn drop(&mut self) {
        let mut shards = self.task.shards.lock();
        shards.live.retain(|s| !Arc::ptr_eq(s, &self.shard));
        shards
            .retired
            .get_or_insert_with(Box::default)
            .absorb(&self.shard);
    }
}

impl TaskInstruments {
    fn new(name: &str, id: Option<TaskId>) -> Self {
        TaskInstruments {
            name: name.to_string(),
            id,
            queue_depth: Gauge::new(),
            instances: Gauge::new(),
            shards: Mutex::default(),
        }
    }

    /// A new writer's own instruments, folded into this task's totals.
    pub fn shard(self: &Arc<Self>) -> TaskShard {
        let shard = Arc::new(Shard::default());
        self.shards.lock().live.push(Arc::clone(&shard));
        TaskShard {
            shard,
            task: Arc::clone(self),
        }
    }

    /// Folds every shard, live or retired, into the task's row; merges
    /// the shards' latency samples into `e2e`. One lock covers the fold,
    /// so a shard retiring meanwhile is counted exactly once.
    fn stats(&self, e2e: &Histogram) -> TaskStats {
        let shards = self.shards.lock();
        let sum = |field: fn(&Shard) -> &Counter| shards.all().map(|s| field(s).get()).sum();
        let (service, latency) = (Histogram::new(), Histogram::new());
        for s in shards.all() {
            service.merge_from(&s.service);
            if let Some(l) = s.latency.get() {
                latency.merge_from(l);
            }
        }
        e2e.merge_from(&latency);
        TaskStats {
            name: self.name.clone(),
            id: self.id,
            instances: self.instances.get(),
            items_in: sum(|s| &s.items_in),
            items_out: sum(|s| &s.items_out),
            emits: sum(|s| &s.emits),
            processed: sum(|s| &s.processed),
            errors: sum(|s| &s.errors),
            gather_waits: sum(|s| &s.gather_waits),
            queue_depth: self.queue_depth.get(),
            service: service.summary(),
            latency: latency.summary(),
        }
    }

    /// Clears every shard's histograms.
    fn reset_observations(&self) {
        for s in self.shards.lock().all() {
            s.service.reset();
            if let Some(l) = s.latency.get() {
                l.reset();
            }
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
/// recording goes straight through a writer's [`TaskShard`] or the shared
/// [`StateInstruments`] handles; the
/// registry's own maps are locked only when an instrument is first
/// created or a snapshot is taken.
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

    /// Logs a structured event stamped with the registry's monotonic clock.
    pub fn record_event(&self, kind: EventKind) {
        self.events.push(self.started.elapsed(), kind);
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.events.snapshot()
    }

    /// Resets every histogram (service, latency, checkpoint phases), every
    /// task shard's included, while leaving counters, gauges and the event
    /// log untouched. Benches call this after warm-up so percentiles cover
    /// only the measured window.
    pub fn reset_observations(&self) {
        for t in self.tasks.read().values() {
            t.reset_observations();
        }
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
        let e2e = Histogram::new();
        let tasks: Vec<TaskStats> = self.tasks.read().values().map(|t| t.stats(&e2e)).collect();
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
            e2e_latency: e2e.summary(),
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
        assert!(Arc::ptr_eq(&a, &b));
        a.shard().add_processed(5);
        assert_eq!(reg.snapshot().task("put").unwrap().processed, 5);
        assert_eq!(b.id, Some(TaskId(3)));
        // An id passed after creation does not overwrite the original.
        let c = reg.task_with_id("put", Some(TaskId(9)));
        assert_eq!(c.id, Some(TaskId(3)));
    }

    #[test]
    fn snapshot_reflects_recordings() {
        let reg = MetricsRegistry::new();
        let t = reg.task("get");
        let mut w = t.shard();
        w.add_items_in(10);
        w.add_processed(9);
        w.add_errors(1);
        t.instances.set(2);
        w.record_service(1_000);
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
        let mut w = reg.task("f").shard();
        w.add_processed(7);
        w.record_latency(123);
        drop(w); // a retired shard's histograms are reset too
        reg.checkpoints().taken.inc();
        reg.checkpoints().snapshot_ns.record(500);
        reg.reset_observations();
        let snap = reg.snapshot();
        let row = snap.task("f").unwrap();
        assert_eq!((row.processed, row.latency.count), (7, 0));
        assert_eq!(snap.e2e_latency.count, 0);
        assert_eq!(
            (snap.checkpoints.taken, snap.checkpoints.snapshot.count),
            (1, 0)
        );
    }

    #[test]
    fn shards_fold_into_the_task_and_retire_without_going_back() {
        let reg = MetricsRegistry::new();
        let t = reg.task("put");
        let (mut a, mut b) = (t.shard(), t.shard());
        for (shard, n) in [(&mut a, 3u64), (&mut b, 4)] {
            for i in 0..n {
                shard.add_items_in(1);
                shard.add_processed(1);
                shard.add_items_out(0);
                shard.record_service(100 * (i + 1));
                shard.add_emits(1);
                shard.record_latency(1_000);
            }
        }
        let before = reg.snapshot();
        let row = before.task("put").unwrap();
        assert_eq!((row.items_in, row.processed, row.items_out), (7, 7, 0));
        assert_eq!((row.service.count, row.service.max), (7, 400));
        assert_eq!((row.emits, row.latency.count), (7, 7));
        assert_eq!(before.e2e_latency.count, 7);
        drop(a);
        let after = reg.snapshot();
        let row = after.task("put").unwrap();
        assert_eq!((row.items_in, row.processed, row.service.count), (7, 7, 7));
        assert_eq!(after.e2e_latency.count, 7);
        drop(b);
        reg.reset_observations();
        let reset = reg.snapshot();
        let row = reset.task("put").unwrap();
        assert_eq!((row.items_in, row.processed), (7, 7));
        assert_eq!((row.service.count, row.latency.count), (0, 0));
        assert_eq!(reset.e2e_latency.count, 0);
    }

    #[test]
    fn reset_observations_clears_live_shards_and_keeps_their_counts() {
        let reg = MetricsRegistry::new();
        let t = reg.task("f");
        let mut s = t.shard();
        s.add_processed(2);
        s.record_service(10);
        s.record_latency(10);
        reg.reset_observations();
        let row = reg.snapshot().task("f").unwrap().clone();
        assert_eq!(row.processed, 2);
        assert_eq!((row.service.count, row.latency.count), (0, 0));
        s.record_service(30);
        let row = reg.snapshot().task("f").unwrap().clone();
        assert_eq!((row.service.count, row.service.min), (1, 30));
    }

    #[test]
    fn latency_histogram_is_allocated_on_the_first_sample() {
        let reg = MetricsRegistry::new();
        let t = reg.task("f");
        let (mut quiet, mut emitter) = (t.shard(), t.shard());
        quiet.add_processed(3);
        quiet.record_service(10);
        emitter.record_service(20);
        assert!(quiet.shard.latency.get().is_none());
        assert!(emitter.shard.latency.get().is_none());
        // No shard has a histogram: the row and e2e read as empty, and a
        // reset or a retirement allocates none.
        reg.reset_observations();
        let snap = reg.snapshot();
        assert_eq!(snap.task("f").unwrap().latency.count, 0);
        assert_eq!(snap.e2e_latency.count, 0);
        drop(quiet);
        let retired = |t: &TaskInstruments| {
            let shards = t.shards.lock();
            shards.retired.as_ref().map(|r| r.latency.get().is_some())
        };
        assert_eq!(retired(&t), Some(false));
        emitter.record_latency(500);
        emitter.record_latency(700);
        assert_eq!(emitter.shard.latency.get().map(Histogram::count), Some(2));
        let snap = reg.snapshot();
        let row = snap.task("f").unwrap();
        assert_eq!(
            (row.processed, row.latency.count, row.latency.max),
            (3, 2, 700)
        );
        assert_eq!(snap.e2e_latency.count, 2);
        // Retiring the emitter moves its samples into the retired totals.
        drop(emitter);
        assert_eq!(retired(&t), Some(true));
        let snap = reg.snapshot();
        assert_eq!(snap.task("f").unwrap().latency.count, 2);
        assert_eq!(snap.e2e_latency.count, 2);
    }

    #[test]
    fn concurrent_record_and_snapshot_race() {
        let reg = Arc::new(MetricsRegistry::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        // Four writers hammer their shards (two tasks, created by name on
        // first use), retiring the shard for a new one every 64 items,
        // while two readers snapshot concurrently.
        for w in 0..4u64 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let name = if w < 2 { "hot" } else { "cold" };
                let mut shard = reg.task(name).shard();
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    shard.add_items_in(1);
                    shard.add_processed(1);
                    shard.record_service(i % 10_000);
                    if i.is_multiple_of(64) {
                        shard = reg.task(name).shard();
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
