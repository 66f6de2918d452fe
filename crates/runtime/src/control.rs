//! The control plane's thread and its sequencer.
//!
//! One control thread ([`start`]) runs the deployment's three timed
//! duties: the interval checkpoint (§5), the scaling monitor (§3.3) and
//! the recovery supervisor (§5). It sleeps on one inbox until the
//! earliest deadline, a caught panic, or shutdown.
//!
//! One lock serialises every control operation. Checkpoints (manual and
//! interval), the five scale paths, fail-and-recover, the supervisor's
//! respawns and `Deployment::with_state` all run holding the
//! deployment's one [`Sequencer`]. The functions that take checkpoints,
//! move state or change the topology ([`crate::reconfig`]) take
//! `&mut Control`, so none of them can be called unsequenced. `Control` owns what those
//! operations share: the checkpoint seq counter, one chain record per SE
//! instance, and the cluster node allocator ([`Control::next_node`]),
//! which needs no atomic since every caller holds the sequencer.
//!
//! The sequencer serves callers first come, first served: a thread that
//! releases it and asks again queues behind the ones already waiting, so
//! a `with_state` loop cannot starve a checkpoint.
//!
//! Lock order: `control` → route guards. Only a `Quiesced` takes route
//! write guards (the paused unit's, then those of the units upstream of
//! it, in unit order), apart from `Deployment::start`, which holds the
//! sequencer while it spawns. An SE instance lives in its replica's
//! route entry, so there is no third lock: a reader clones the cells out
//! of a route guard and releases it before a take or a `with_state`
//! closure runs. A route's stage lock is only ever taken inside that one
//! route. Workers never take `control`, and dispatch only reads routes,
//! so the per-item path does not see the sequencer.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{Receiver, RecvTimeoutError};
use sdg_checkpoint::backup::{BackupSet, BackupStore};
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{InstanceId, StateId, TaskId};

use crate::deploy::Inner;
use crate::fault::{RecoveryUnit, Supervisor};
use crate::reconfig::{execute, ReconfigRequest};
use crate::scaling::Monitor;

/// Synthetic instance id used to key SE-instance checkpoints.
pub(crate) fn se_instance_id(state: StateId, replica: u32) -> InstanceId {
    // SE checkpoints are keyed in a disjoint TaskId namespace.
    InstanceId::new(TaskId(0x4000_0000 | state.raw()), replica)
}

/// The checkpoint record of one SE instance: a base generation followed by
/// the deltas taken since it; restore composes the whole chain.
///
/// An *absent* record means the instance was never checkpointed: recovery
/// may rebuild it from scratch by replaying every upstream buffer. An
/// *empty* record means a migration moved state into the instance and the
/// take that followed it failed: the buffers describe the current key
/// ownership only from the migration on, so recovery must wait for the
/// next take.
pub(crate) type Chain = Vec<BackupSet>;

/// A first-come-first-served lock around [`Control`]: each caller draws
/// a ticket and waits until it is served. A plain mutex may hand the lock
/// back to the thread that just released it, so one busy caller could hold
/// off another indefinitely.
#[derive(Debug, Default)]
pub(crate) struct Sequencer {
    next_ticket: AtomicU64,
    control: Mutex<Control>,
    turn: Condvar,
}

impl Sequencer {
    /// A sequencer whose [`Control::next_node`] hands out `first_node`,
    /// the first node the start-up allocation left free, and up.
    pub(crate) fn new(first_node: u32) -> Self {
        let control = Control {
            next_node: first_node,
            ..Control::default()
        };
        Sequencer {
            control: Mutex::new(control),
            ..Sequencer::default()
        }
    }

    /// Waits for this caller's turn and returns the held sequencer.
    ///
    /// Poison is ignored, as by the `parking_lot` lock this replaces: a
    /// control operation that panics leaves each record at its last
    /// completed update, and its guard still serves the next ticket.
    pub(crate) fn lock(&self) -> ControlGuard<'_> {
        // Relaxed: a ticket publishes no data; the mutex orders the turns.
        let mine = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let control = self.control.lock().unwrap_or_else(PoisonError::into_inner);
        let control = self.turn.wait_while(control, |c| c.served != mine);
        ControlGuard(control.unwrap_or_else(PoisonError::into_inner), &self.turn)
    }
}

/// The held sequencer; derefs to [`Control`] and serves the next ticket
/// when dropped.
pub(crate) struct ControlGuard<'a>(MutexGuard<'a, Control>, &'a Condvar);

impl Deref for ControlGuard<'_> {
    type Target = Control;
    fn deref(&self) -> &Control {
        &self.0
    }
}

impl DerefMut for ControlGuard<'_> {
    fn deref_mut(&mut self) -> &mut Control {
        &mut self.0
    }
}

impl Drop for ControlGuard<'_> {
    fn drop(&mut self) {
        self.0.served += 1;
        self.1.notify_all();
    }
}

/// State shared by the control operations; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct Control {
    /// The sequencer ticket being served.
    served: u64,
    /// The seq of the last checkpoint generation (0: none yet).
    last_seq: u64,
    chains: HashMap<(StateId, u32), Chain>,
    /// The next fresh cluster node.
    next_node: u32,
}

/// The fraction of a chain's base bytes its deltas may reach before the
/// next take is a base again.
const COMPACT_THRESHOLD: f64 = 0.5;

impl Control {
    /// The seq of the next checkpoint generation.
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.last_seq += 1;
        self.last_seq
    }

    /// Allocates the next fresh cluster node.
    pub(crate) fn next_node(&mut self) -> u32 {
        self.next_node += 1;
        self.next_node - 1
    }

    /// The recorded chain of SE instance `(state, replica)`.
    pub(crate) fn chain(&self, state: StateId, replica: u32) -> Option<&Chain> {
        self.chains.get(&(state, replica))
    }

    /// Whether the next take of `(state, replica)` must be a base: the
    /// record holds no generation, or its deltas outweigh
    /// [`COMPACT_THRESHOLD`] of the base's size (compaction keeps restore
    /// chains short).
    pub(crate) fn needs_base(&self, state: StateId, replica: u32) -> bool {
        match self.chain(state, replica) {
            Some(chain) if !chain.is_empty() => {
                let base = chain[0].state_bytes.max(1) as f64;
                let deltas: usize = chain[1..].iter().map(|s| s.state_bytes).sum();
                deltas as f64 > COMPACT_THRESHOLD * base
            }
            _ => true,
        }
    }

    /// Records a successful take. A base generation supersedes the whole
    /// chain, so its predecessors' chunks are deleted from `stores`; a
    /// delta extends it, so everything back to the base stays alive.
    pub(crate) fn record(
        &mut self,
        state: StateId,
        replica: u32,
        set: BackupSet,
        stores: &[Arc<BackupStore>],
    ) {
        let chain = self.chains.entry((state, replica)).or_default();
        if set.is_base() {
            chain.clear();
        }
        chain.push(set);
        let keep = chain[0].seq;
        for store in stores {
            store.garbage_collect(se_instance_id(state, replica), keep);
        }
    }

    /// The chain recovery of `(state, replica)` restores, or `None` to
    /// rebuild from scratch.
    ///
    /// Rebuilding from an empty store, a zero watermark and a full replay is
    /// sound only while the upstream buffers still hold everything ever
    /// sent to the replica: checkpointing must be on (`buffered`), and no
    /// migration may have emptied the record.
    pub(crate) fn recovery_chain(
        &self,
        state: StateId,
        replica: u32,
        buffered: bool,
    ) -> SdgResult<Option<Chain>> {
        match self.chain(state, replica) {
            Some(chain) if !chain.is_empty() => Ok(Some(chain.clone())),
            None if buffered => Ok(None),
            _ => Err(SdgError::Recovery(format!(
                "no checkpoint recorded for {state}#{replica}; enable checkpointing"
            ))),
        }
    }

    /// Truncates the chain of `(state, replica)` to the `len` generations
    /// that restored. Later deltas never compose across the corrupt
    /// boundary: the cell a restore builds tracks every chunk as dirty, so
    /// its next take is a base.
    pub(crate) fn truncate(&mut self, state: StateId, replica: u32, len: usize) {
        if let Some(chain) = self.chains.get_mut(&(state, replica)) {
            chain.truncate(len);
        }
    }

    /// Empties every record of `state` for a migration, leaving one empty
    /// record per replica in `0..replicas`.
    ///
    /// A chain recorded before a repartition describes the old key
    /// ownership, so restore must never compose deltas across the
    /// migration boundary. The migration ends with a base take of every
    /// replica, still under the sequencer; a replica whose take fails
    /// keeps its empty record, and its recovery reports "no checkpoint
    /// recorded" until the next take rather than restoring stale shards.
    pub(crate) fn invalidate(&mut self, state: StateId, replicas: usize) {
        self.chains.retain(|&(s, _), _| s != state);
        for replica in 0..replicas as u32 {
            self.chains.insert((state, replica), Chain::new());
        }
    }

    /// Drops the record of the removed replica `(state, replica)` and
    /// deletes every chunk of it from every backup store.
    pub(crate) fn forget_replica(
        &mut self,
        state: StateId,
        replica: u32,
        stores: &[Arc<BackupStore>],
    ) {
        self.chains.remove(&(state, replica));
        for store in stores {
            store.garbage_collect(se_instance_id(state, replica), u64::MAX);
        }
    }
}

/// What wakes the control thread before its next deadline.
#[derive(Debug)]
pub(crate) enum Wake {
    /// A panic caught in the unit's replica at the instant, for the
    /// supervisor.
    Failed(RecoveryUnit, Instant),
    /// The deployment shuts down.
    Stop,
}

/// Starts the deployment's one control thread, unless none of its duties
/// is on: the interval checkpoint, the scaling [`Monitor`] and the
/// [`Supervisor`]. The thread sleeps on `inbox` until the earliest duty is
/// due, a caught panic arrives, or [`Wake::Stop`].
///
/// Within one wake it first queues every failure the inbox holds (the
/// inbox is read before any deadline counts), then lets the supervisor
/// scan and recover, then takes a due checkpoint, then samples. Every
/// action runs under the sequencer, so the thread adds no ordering of its
/// own to the control operations.
pub(crate) fn start(inner: &Arc<Inner>, inbox: Receiver<Wake>) -> Option<JoinHandle<()>> {
    let cfg = &inner.cfg;
    // A take every `interval` since start: a slow one does not shift the
    // ones after it.
    let interval = cfg.checkpoint.interval;
    let mut take = cfg.checkpoint.enabled.then(|| Instant::now() + interval);
    let mut monitor = cfg.scaling.enabled.then(|| Monitor::new(inner));
    let mut supervisor = cfg.supervisor.enabled.then(|| Supervisor::new(inner));
    if take.is_none() && monitor.is_none() && supervisor.is_none() {
        return None;
    }
    let inner = Arc::clone(inner);
    Some(std::thread::spawn(move || loop {
        let sample = monitor.as_ref().map(|m| m.due);
        let next = [take, sample, supervisor.as_ref().and_then(Supervisor::due)];
        let wake = match next.into_iter().flatten().min() {
            Some(at) => inbox.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match wake {
            Ok(Wake::Failed(unit, at)) => {
                if let Some(supervisor) = &mut supervisor {
                    supervisor.failed(&inner, unit, at);
                }
                continue;
            }
            Ok(Wake::Stop) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();
        if let Some(supervisor) = &mut supervisor {
            supervisor.tick(&inner, now);
        }
        if let Some(due) = take.as_mut().filter(|due| **due <= now) {
            *due += interval;
            let _ = execute(&inner, ReconfigRequest::Checkpoint);
        }
        if let Some(monitor) = monitor.as_mut().filter(|m| m.due <= now) {
            monitor.sample(&inner);
        }
    }))
}
