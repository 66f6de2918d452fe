//! Deployment: materialising an SDG onto the simulated cluster.
//!
//! `Deployment::start` allocates TE and SE instances to nodes (§3.3),
//! registers every TE instance as an actor on the deployment's
//! work-stealing pool, wires the dataflow mailboxes, and starts the
//! checkpoint and scaling controllers. The handle then accepts external
//! requests ([`Deployment::submit`]), exposes the output sink, and
//! supports failure injection with §5's replay-based recovery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use sdg_checkpoint::backup::{BackupSet, BackupStore};
use sdg_checkpoint::cell::StateCell;
use sdg_checkpoint::coordinator::{take_checkpoint_with, CheckpointOptions};
use sdg_checkpoint::recovery::{restore_chain_resilient, RestoreOptions};
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, StateId, TaskId};
use sdg_common::obs::{
    DeploymentStats, EventKind, MetricsRegistry, MetricsSnapshot, ObsEvent, TaskInstruments,
};
use sdg_common::time::VectorTs;
use sdg_common::value::Record;
use sdg_graph::alloc::allocate;
use sdg_graph::model::{AccessMode, Dispatch, Distribution, Sdg, StateDecl, TaskDecl, TaskKind};
use sdg_graph::validate::validate;
use sdg_ir::analysis::verify::VerifyReport;
use sdg_state::partition::PartitionDim;
use sdg_state::store::{StateStore, StateType};

use crate::compile::Scratch;
use crate::config::RuntimeConfig;
use crate::control::{se_instance_id, Control, Sequencer};
use crate::fault::{
    run_supervisor, FailureHub, FaultInjector, Health, HeartbeatView, RecoveryUnit,
};
use crate::item::{lane, route_hash, Item};
use crate::reconfig::{self, ReconfigReport, ReconfigRequest};
use crate::scaling::{run_scaling_monitor, Groups, Sample, ScaleDirection, StopWait};
use crate::sched::Pool;
use crate::worker::{
    BufferRegistry, Instance, OutEdge, Paused, PreparedCode, Route, Worker, WorkerMsg,
};

pub use crate::worker::OutputEvent;

/// Base for synthetic ingest edge ids (external requests into entry TEs).
const INGEST_BASE: u32 = 2_000_000;

/// Returns the synthetic ingest edge of an entry task.
pub fn ingest_edge(task: TaskId) -> EdgeId {
    EdgeId(INGEST_BASE + task.raw())
}

/// The ingest edge of `task` and how external requests on it are spread
/// over the task's instances: by key into a partitioned access, to every
/// instance of a partial-global one, to the shortest queue otherwise.
fn ingest_flow(task: &TaskDecl) -> (EdgeId, Dispatch) {
    let dispatch = match task.access.as_ref().map(|a| &a.mode) {
        Some(AccessMode::Partitioned { key, .. }) => Dispatch::Partitioned { key: key.clone() },
        Some(AccessMode::PartialGlobal) => Dispatch::OneToAll,
        _ => Dispatch::OneToAny,
    };
    (ingest_edge(task.id), dispatch)
}

/// Stripe count, partition axis and tracked dirty-chunk space for one SE's
/// cells.
///
/// Only partitioned tables and matrices are striped: the partitioned access
/// contract (a task touches only state belonging to its item's key) is what
/// makes per-key stripe routing sound, and dense vectors have no meaningful
/// key space to split. Everything else keeps the single-mutex cell.
///
/// A stripe is picked by the hash its item was routed by, which is the
/// hash of the item's access key because [`validate`] admits no other
/// edge into a task with partitioned access: every such edge, and the ingest
/// edge [`ingest_flow`] derives, is partitioned on the task's access key.
///
/// Both optimizations are gated on the `sdg-verify` certificates when a
/// report is attached: striping requires the SE's key-locality certificate
/// (an access through a reassigned key would land on the wrong stripe),
/// and delta generations require the replay-safety certificate (replay
/// recovery of a delta chain re-executes buffered items and needs them to
/// reproduce the same transitions): a cell without it tracks no dirty
/// chunks, so every checkpoint of it is a base. A graph without a report —
/// hand-built, native tasks — is trusted: there is nothing to check it
/// against.
fn cell_layout(
    cfg: &RuntimeConfig,
    decl: &StateDecl,
    verify: Option<&VerifyReport>,
) -> (usize, PartitionDim, Option<usize>) {
    let key_local = verify.is_none_or(|r| r.key_local(&decl.name));
    let replay_safe = verify.is_none_or(|r| r.replay_safe(&decl.name));
    let (stripes, dim) = match decl.dist {
        Distribution::Partitioned { dim } if decl.ty != StateType::Vector && key_local => {
            (cfg.state_stripes, dim)
        }
        Distribution::Partitioned { dim } => (1, dim),
        _ => (1, PartitionDim::Row),
    };
    let tracked = (cfg.checkpoint.enabled && replay_safe).then_some(cfg.checkpoint.chunks);
    (stripes, dim, tracked)
}

/// Picks the vector recovery replays a flow's lanes past: the restored
/// cell's `frontier` (its stripes' pointwise maximum), or its `floor`
/// (their minimum) on a gather edge.
///
/// The frontier bounds what the cut already holds on a lane whose items
/// one TE instance applies in timestamp order (see
/// [`sdg_checkpoint::cell`]). A gather barrier applies its assembled items
/// in completion order instead.
fn replay_watermarks<'a>(
    dispatch: &Dispatch,
    floor: &'a VectorTs,
    frontier: &'a VectorTs,
) -> &'a VectorTs {
    match dispatch {
        Dispatch::AllToOne { .. } => floor,
        _ => frontier,
    }
}

/// Report of one failure-injection recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Time to fetch chunks and reconstitute state.
    pub restore: Duration,
    /// Items replayed from upstream buffers.
    pub replayed: usize,
    /// End-to-end recovery time (pause → resume).
    pub total: Duration,
}

pub(crate) struct Inner {
    pub sdg: Arc<Sdg>,
    pub cfg: RuntimeConfig,
    /// Each task's instances, replica-indexed, as its producers reach them.
    pub(crate) routes: HashMap<TaskId, Arc<Route>>,
    /// Each task's code, prepared once at start and shared by every
    /// instance, respawns and scale-outs included.
    code: HashMap<TaskId, PreparedCode>,
    /// SE instance cells, replica-indexed.
    pub cells: RwLock<HashMap<StateId, Vec<Arc<StateCell>>>>,
    /// Caught worker/actor panics, drained by the supervisor.
    failure_hub: Arc<FailureHub>,
    /// Resolved fault plan (empty when no plan is configured).
    injector: FaultInjector,
    /// Supervisor-driven health ([`Health`] as `u8`); `Degraded` is
    /// terminal.
    health: AtomicU8,
    /// The deployment's instrument registry: per-task and per-state
    /// instruments, checkpoint phase timers, and the structured event log.
    pub obs: Arc<MetricsRegistry>,
    /// Per-task instrument handles, resolved once at start so workers and
    /// the monitor never touch the registry maps on the hot path.
    pub instruments: HashMap<TaskId, Arc<TaskInstruments>>,
    pub buffers: Arc<BufferRegistry>,
    sink_tx: Sender<OutputEvent>,
    corr: AtomicU64,
    /// The shared ingest lane (src 0): one dispatcher per entry task.
    ingest: Mutex<HashMap<TaskId, OutEdge>>,
    ingest_src: AtomicU32,
    node_cursor: AtomicU32,
    pub stores: Vec<Arc<BackupStore>>,
    /// The control sequencer ([`crate::control`]): every checkpoint,
    /// scale, recovery and `with_state` runs holding it, and it owns the
    /// checkpoint chains. A second take of the same cell, or a migration
    /// in the middle of one, would fail the cell's checkpoint phases.
    pub(crate) control: Sequencer,
    /// The work-stealing pool running every TE instance as an actor.
    pool: Arc<Pool>,
    /// Parks the controller threads between ticks; stopped at shutdown so
    /// they exit without sleeping out their interval.
    stop_wait: StopWait,
    pub started: Instant,
}

/// A private submission handle with its own ingest lane (see
/// [`Deployment::ingest_handle`]).
pub struct IngestHandle {
    inner: Arc<Inner>,
    src: u32,
    /// This handle's lane: one dispatcher per entry task.
    lanes: HashMap<TaskId, OutEdge>,
}

impl IngestHandle {
    /// Submits a request through this handle's lane; blocks on
    /// backpressure. Returns the correlation id.
    pub fn submit(&mut self, entry: &str, payload: Record) -> SdgResult<u64> {
        let task = self.inner.find_entry(entry)?;
        let out = self
            .lanes
            .entry(task.id)
            .or_insert_with(|| self.inner.ingest_out(task, self.src));
        self.inner.request(out, payload)
    }
}

/// A running SDG.
pub struct Deployment {
    inner: Arc<Inner>,
    sink_rx: Receiver<OutputEvent>,
    control: Mutex<Vec<JoinHandle<()>>>,
}

impl Deployment {
    /// Materialises `sdg` on the simulated cluster and starts processing.
    pub fn start(sdg: Sdg, cfg: RuntimeConfig) -> SdgResult<Deployment> {
        validate(&sdg)?;
        cfg.validate()?;
        let sdg = Arc::new(sdg);
        let allocation = allocate(&sdg);
        let (sink_tx, sink_rx) = unbounded();

        // Backup stores for checkpoint chunks (the "disks" of spare nodes).
        // A configured fault plan injects its store faults into every one,
        // exercising the retry and chain-fallback paths deterministically.
        let store_faults = cfg
            .faults
            .as_ref()
            .map(|p| p.store_faults)
            .filter(|s| !s.is_noop());
        let store_count = cfg.checkpoint.backup_fanout.max(2);
        let stores: Vec<Arc<BackupStore>> = (0..store_count)
            .map(|_| {
                let mut store =
                    BackupStore::in_memory().with_bandwidth(cfg.checkpoint.disk_write_bps, None);
                if let Some(spec) = store_faults {
                    store = store.with_faults(spec);
                }
                Arc::new(store)
            })
            .collect();

        // The deployment's instrument registry. Task and state instruments
        // are created eagerly so a snapshot always lists every element,
        // even before its first item.
        let obs = Arc::new(MetricsRegistry::new());
        let mut routes = HashMap::new();
        let mut code = HashMap::new();
        let mut instruments = HashMap::new();
        for task in &sdg.tasks {
            routes.insert(task.id, Arc::default());
            code.insert(task.id, PreparedCode::prepare(&task.code));
            instruments.insert(task.id, obs.task_with_id(&task.name, Some(task.id)));
        }

        // SE instances.
        let mut cells: HashMap<StateId, Vec<Arc<StateCell>>> = HashMap::new();
        for state in &sdg.states {
            let _ = obs.state_with_id(&state.name, Some(state.id));
            let n = cfg.se_instances.get(&state.id).copied().unwrap_or(1);
            let (stripes, dim, delta) = cell_layout(&cfg, state, sdg.verify.as_deref());
            cells.insert(
                state.id,
                (0..n)
                    .map(|_| Arc::new(StateCell::new_striped(state.ty, stripes, dim, delta)))
                    .collect(),
            );
        }

        // TE instances become actors on a fixed worker pool.
        let pool = Pool::start(cfg.sched_threads, Arc::clone(obs.sched()));

        // Resolve the fault plan against the graph before anything runs:
        // a plan naming an unknown task is a config error, not a silently
        // unarmed chaos run.
        let injector = FaultInjector::resolve(cfg.faults.as_ref(), &sdg)?;
        let failure_hub = Arc::new(FailureHub::new(Arc::clone(&obs)));

        let inner = Arc::new(Inner {
            sdg: Arc::clone(&sdg),
            cfg: cfg.clone(),
            routes,
            code,
            cells: RwLock::new(cells),
            failure_hub,
            injector,
            health: AtomicU8::new(Health::Healthy.as_u8()),
            obs,
            instruments,
            buffers: Arc::default(),
            sink_tx,
            corr: AtomicU64::new(1),
            ingest: Mutex::new(HashMap::new()),
            ingest_src: AtomicU32::new(1),
            node_cursor: AtomicU32::new(allocation.num_nodes),
            stores,
            control: Sequencer::default(),
            pool,
            stop_wait: StopWait::default(),
            started: Instant::now(),
        });

        // Spawn instances: stateful tasks get one instance per SE replica,
        // stateless tasks use their configured count.
        for task in &sdg.tasks {
            let count = match &task.access {
                Some(a) => {
                    let se_count = inner.cells.read()[&a.state].len();
                    if let Some(&configured) = cfg.task_instances.get(&task.id) {
                        if configured != se_count {
                            return Err(SdgError::Config(format!(
                                "task `{}` instance count {configured} conflicts with its \
                                 state element's {se_count} instances",
                                task.name
                            )));
                        }
                    }
                    se_count
                }
                None => cfg.task_instances.get(&task.id).copied().unwrap_or(1),
            };
            let mut slots = inner.routes[&task.id].write();
            for replica in 0..count {
                let node = if replica == 0 {
                    allocation.node_of_task(task.id).raw()
                } else {
                    inner.node_cursor.fetch_add(1, Ordering::Relaxed)
                };
                inner.spawn_instance(task.id, replica as u32, node, &mut slots)?;
            }
        }

        let deployment = Deployment {
            inner: Arc::clone(&inner),
            sink_rx,
            control: Mutex::new(Vec::new()),
        };
        deployment.start_controllers();
        Ok(deployment)
    }

    fn start_controllers(&self) {
        let mut control = self.control.lock();
        if self.inner.cfg.checkpoint.enabled {
            let inner = Arc::clone(&self.inner);
            control.push(std::thread::spawn(move || {
                // A checkpoint every `interval` since start: a slow one does
                // not shift the ones after it.
                let (interval, stop) = (inner.cfg.checkpoint.interval, &inner.stop_wait);
                let mut due = interval;
                while !stop.wait(due.saturating_sub(inner.started.elapsed())) {
                    due = due.saturating_add(interval);
                    let _ = reconfig::execute(&inner, ReconfigRequest::Checkpoint);
                }
            }));
        }
        if self.inner.cfg.scaling.enabled {
            let inner = Arc::clone(&self.inner);
            let groups = Groups::new(&inner.sdg, &Sample::take(&inner));
            control.push(std::thread::spawn(move || {
                run_scaling_monitor(&inner, groups);
            }));
        }
        if self.inner.cfg.supervisor.enabled {
            let inner = Arc::clone(&self.inner);
            let cfg = self.inner.cfg.supervisor.clone();
            control.push(std::thread::spawn(move || {
                run_supervisor(inner, cfg);
            }));
        }
    }

    /// Supervisor-driven health: `Healthy` → `Recovering` while failures
    /// are being repaired, terminal `Degraded` once a recovery exhausts
    /// its attempts.
    pub fn health(&self) -> Health {
        self.inner.health_state()
    }

    /// Submits an external request to entry method `entry`.
    ///
    /// Blocks when the entry instance's channel is full (backpressure).
    /// Returns the request's correlation id.
    pub fn submit(&self, entry: &str, payload: Record) -> SdgResult<u64> {
        self.inner.submit(entry, payload)
    }

    /// The external output sink.
    pub fn outputs(&self) -> &Receiver<OutputEvent> {
        &self.sink_rx
    }

    /// Creates a private ingest handle with its own dedupe lane, so many
    /// feeder threads can submit without contending on the shared lane.
    ///
    /// # Errors
    ///
    /// At most `LANE_STRIDE - 1` handles can exist per deployment.
    pub fn ingest_handle(&self) -> SdgResult<IngestHandle> {
        let src = self.inner.ingest_src.fetch_add(1, Ordering::Relaxed);
        if src >= crate::item::LANE_STRIDE {
            return Err(SdgError::Runtime(
                "too many ingest handles (max 1023)".into(),
            ));
        }
        Ok(IngestHandle {
            inner: Arc::clone(&self.inner),
            src,
            lanes: HashMap::new(),
        })
    }

    /// Executes one typed reconfiguration request — scale-out, scale-in,
    /// checkpoint, or failure injection — and returns a uniform
    /// [`ReconfigReport`] with timings, migrated bytes and the resulting
    /// instance counts.
    ///
    /// This is the deployment's only control-plane entry point: the
    /// checkpoint interval thread and the scaling monitor submit their
    /// requests here too. Every request runs holding the control
    /// sequencer, as do the supervisor's recoveries and
    /// [`Deployment::with_state`], so a checkpoint never overlaps a
    /// migration or a recovery; a request waits for the ones that asked
    /// before it, in arrival order.
    ///
    /// A scale of a partitioned SE re-places every entry onto p ± 1
    /// instances by its key hash, straight into its final stripe, with
    /// pointwise-max dedupe watermarks. Scale-in of a partial SE
    /// additively folds the removed replica's aggregate into a survivor —
    /// refused when the SE's `@Partial` merge is uncertified by the
    /// attached `sdg-verify` report. A scale is refused while an instance
    /// of the task has failed and awaits recovery. With checkpointing on,
    /// a scale that moved state ends with a base take of every replica,
    /// so a failure right after it recovers from the new chains.
    ///
    /// On `FailAndRecover`, recovery is exact (exactly-once) for the
    /// failed SE's own state: the checkpoint restores it, and upstream
    /// buffers replay each lane past the restored cut's frontier — the
    /// highest timestamp any of its stripes recorded on that lane, below
    /// which the cut already holds every item — or past the stripes'
    /// minimum on a gather edge, whose items apply in completion order;
    /// the stripes' vector timestamps filter what a replay overlaps. A
    /// limitation relative to §5 of the paper: replayed items reprocessed
    /// by the recovered TEs forward downstream with *fresh* timestamps
    /// rather than regenerating their original ones, so when a recovered
    /// stage feeds a different stateful stage, that downstream stage may
    /// re-apply effects it already holds. (The paper avoids this with
    /// deterministic timestamp regeneration, which the engine does not yet
    /// do.) Checkpoints do not copy the upstream buffers: those live in
    /// the deployment's buffer registry, which survives the kill, and
    /// replay reads them directly.
    /// Pipelines whose stateful stages hang off distinct
    /// upstream-stateless paths, such as the KV store and each SE of CF in
    /// isolation, recover exactly. If the take that ends a migration fails
    /// for a replica, recovery of that replica reports "no checkpoint
    /// recorded" until the next take, instead of restoring the old key
    /// ownership.
    pub fn reconfigure(&self, request: ReconfigRequest) -> SdgResult<ReconfigReport> {
        crate::reconfig::execute(&self.inner, request)
    }

    /// Freezes every instrument into a plain-data [`MetricsSnapshot`]:
    /// per-TE counters and timing summaries, per-SE sizes, checkpoint phase
    /// timers, the deployment-wide latency summary, and the retained
    /// events. Sampled gauges (queue depths, instance counts, state bytes,
    /// dirty-overlay bytes) are refreshed immediately before the freeze.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.refresh_gauges();
        self.inner.obs.snapshot()
    }

    /// The retained structured events, oldest first.
    ///
    /// The log keeps the newest
    /// [`DEFAULT_EVENT_CAPACITY`](sdg_common::obs::DEFAULT_EVENT_CAPACITY)
    /// events; the snapshot's `events_dropped` counter reveals eviction.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.inner.obs.events()
    }

    /// One-line deployment aggregates, derived from [`Deployment::metrics`].
    pub fn stats(&self) -> DeploymentStats {
        self.metrics().deployment_stats()
    }

    /// Resets every timing histogram (service, latency, checkpoint phases)
    /// while keeping counters, gauges and events. Benchmarks call this
    /// after warm-up so percentiles cover only the measured window.
    pub fn reset_observations(&self) {
        self.inner.obs.reset_observations();
    }

    /// Runs `f` against SE instance `(state, replica)` under its lock.
    ///
    /// On a striped instance `f` sees one merged store
    /// ([`StateCell::with_merged`]): every entry is copied into it and back
    /// into the stripes under all stripe locks, so a call costs time in
    /// the instance's size, even a read. The stripes keep their dirty
    /// chunks plus those `f` dirties, so the next checkpoint stays a delta.
    ///
    /// Runs as a control operation: it waits for any checkpoint, scale or
    /// recovery in progress and holds the next one off until `f` returns,
    /// so `f` must not itself reconfigure the deployment.
    pub fn with_state<R>(
        &self,
        state: StateId,
        replica: u32,
        f: impl FnOnce(&mut StateStore) -> R,
    ) -> SdgResult<R> {
        let _ctl = self.inner.control.lock();
        let cell = self
            .inner
            .cells
            .read()
            .get(&state)
            .and_then(|v| v.get(replica as usize).cloned())
            .ok_or_else(|| SdgError::NotFound(format!("state instance {state}#{replica}")))?;
        cell.with_merged(f)
    }

    /// Waits until all submitted work has drained (queues empty and no item
    /// mid-processing), up to `timeout`. Returns `true` on success.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let all = || self.inner.routes.values().map(|r| r.read());
        loop {
            if Inner::drained(all()) {
                // Double-check after a grace period: one pass reads the
                // instances one at a time, so an item forwarded into an
                // instance already read can slip past it.
                std::thread::sleep(Duration::from_millis(2));
                if Inner::drained(all()) {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops all workers and controllers, joining their threads.
    pub fn shutdown(self) {
        self.inner.stop_wait.stop();
        for route in self.inner.routes.values() {
            for instance in route.read().iter() {
                // `force_send` so a full mailbox cannot block shutdown: Stop
                // must reach every actor even when its producers are
                // suspended on it.
                let _ = instance.tx.force_send(WorkerMsg::Stop);
            }
        }
        for handle in self.control.lock().drain(..) {
            let _ = handle.join();
        }
        self.inner.pool.join();
    }
}

impl Inner {
    /// Refreshes the sampled gauges (queue depths, instance counts, state
    /// sizes) so a snapshot taken right after reflects current occupancy.
    fn refresh_gauges(&self) {
        let mut mailbox_depth = 0;
        for (task, instruments) in &self.instruments {
            let slots = self.routes[task].read();
            let depth: u64 = slots.iter().map(|i| i.tx.len() as u64).sum();
            instruments.instances.set(slots.len() as u64);
            instruments.queue_depth.set(depth);
            mailbox_depth += depth;
        }
        self.obs.sched().mailbox_depth.set(mailbox_depth);
        for (&state, group) in self.cells.read().iter() {
            let Ok(decl) = self.sdg.state(state) else {
                continue;
            };
            let s = self.obs.state_with_id(&decl.name, Some(state));
            s.instances.set(group.len() as u64);
            s.bytes
                .set(group.iter().map(|c| c.approx_bytes() as u64).sum());
            s.dirty_bytes
                .set(group.iter().map(|c| c.dirty_bytes() as u64).sum());
            s.stripes
                .set(group.first().map(|c| c.stripe_count() as u64).unwrap_or(0));
            s.dirty_chunks
                .set(group.iter().map(|c| c.pending_dirty_chunks() as u64).sum());
        }
        self.obs
            .checkpoints()
            .buffered_bytes
            .set(self.buffers.total_bytes() as u64);
        // Mirror the transient store-I/O retries absorbed so far into the
        // monotone fault counter (each store counts its own).
        let retried: u64 = self.stores.iter().map(|s| s.retried_ops()).sum();
        let seen = self.obs.faults().io_retries.get();
        if retried > seen {
            self.obs.faults().io_retries.add(retried - seen);
        }
    }

    /// Label of SE instance `(state, replica)` in event payloads.
    fn se_label(&self, state: StateId, replica: u32) -> String {
        match self.sdg.state(state) {
            Ok(decl) => format!("{}#{replica}", decl.name),
            Err(_) => format!("{state}#{replica}"),
        }
    }

    /// `true` when every instance in `lists` is quiet: no item waits in
    /// its mailbox and none is mid-processing. The lists are visited one
    /// at a time, so a caller may pass read guards it takes lazily or
    /// write guards it holds.
    pub(crate) fn drained<L>(lists: impl IntoIterator<Item = L>) -> bool
    where
        L: std::ops::Deref<Target = Vec<Instance>>,
    {
        lists.into_iter().all(|l| l.iter().all(|i| i.tx.is_quiet()))
    }

    /// The tasks accessing `state`, sorted by id so nested route guards
    /// are always taken in one order.
    pub(crate) fn accessing_sorted(&self, state: StateId) -> Vec<TaskId> {
        let mut tasks = Vec::from_iter(self.sdg.tasks_accessing(state).iter().map(|t| t.id));
        tasks.sort();
        tasks
    }

    /// Allocates the next fresh cluster node.
    pub(crate) fn next_node(&self) -> u32 {
        self.node_cursor.fetch_add(1, Ordering::Relaxed)
    }

    /// The certificate-gated stripe/axis/delta layout for `decl`'s cells.
    pub(crate) fn layout_of(&self, decl: &StateDecl) -> (usize, PartitionDim, Option<usize>) {
        cell_layout(&self.cfg, decl, self.sdg.verify.as_deref())
    }

    /// Spawns TE instance `(task_id, replica)` on `node` as a pool actor
    /// and puts it in `slots`, the task's paused route: appended, or in
    /// place of the instance it replaces. Recovery and scaling pass the
    /// guard they hold across the whole operation, so producers stay
    /// paused until the swap (and any replay) is complete.
    pub(crate) fn spawn_instance(
        &self,
        task_id: TaskId,
        replica: u32,
        node: u32,
        slots: &mut Vec<Instance>,
    ) -> SdgResult<()> {
        let task = self.sdg.task(task_id)?;

        let cell = match &task.access {
            Some(a) => {
                let cells = self.cells.read();
                let group = cells
                    .get(&a.state)
                    .ok_or_else(|| SdgError::NotFound(format!("state {}", a.state)))?;
                Some(group.get(replica as usize).cloned().ok_or_else(|| {
                    SdgError::Runtime(format!(
                        "task `{}` replica {replica} has no SE instance",
                        task.name
                    ))
                })?)
            }
            None => None,
        };

        let gather_var = self
            .sdg
            .flows_to(task_id)
            .iter()
            .find_map(|f| match &f.dispatch {
                Dispatch::AllToOne { collect_var } => Some(collect_var.clone()),
                _ => None,
            });

        let outs: Vec<OutEdge> = self
            .sdg
            .flows_from(task_id)
            .into_iter()
            .map(|flow| {
                OutEdge::new(
                    flow.id,
                    replica,
                    flow.dispatch.clone(),
                    flow.live_vars.clone(),
                    Arc::clone(&self.routes[&flow.to]),
                    Arc::clone(&self.buffers),
                    self.logs_into(flow.to),
                )
            })
            .collect();

        let alive = Arc::new(AtomicBool::new(true));
        let worker = Worker {
            name: task.name.clone(),
            replica,
            code: self.code[&task_id].clone(),
            scratch: Scratch::new(),
            cell,
            outs,
            sink: self.sink_tx.clone(),
            pending_outputs: Vec::new(),
            pending_gathers: HashMap::new(),
            gather_var,
            work_ns: self.cfg.work_ns.get(&task_id).copied().unwrap_or(0),
            speed: self.cfg.cluster.speed_of(node as usize),
            alive: Arc::clone(&alive),
            obs: self.instruments[&task_id].shard(),
            work_debt: Duration::ZERO,
            task: task_id,
            // A respawned replica shares the original (spent) trigger, so
            // a recovered worker does not re-fail on the replayed item.
            fault: self.injector.trigger_for(task_id, replica),
            hub: Arc::clone(&self.failure_hub),
        };
        let instance = Instance {
            tx: self.pool.spawn_actor(worker, self.cfg.channel_capacity),
            alive,
            node,
        };
        match slots.get_mut(replica as usize) {
            Some(slot) => *slot = instance,
            None => slots.push(instance),
        }
        Ok(())
    }

    /// Pauses the routes of every task upstream of `tasks`, in task-id
    /// order, while the caller holds `tasks`' own routes: no request
    /// enters the pipeline that feeds them, so the sends staged during the
    /// pause are at most what was in flight when it began.
    pub(crate) fn pause_upstream(&self, tasks: &[TaskId]) -> Vec<Paused<'_>> {
        let mut cone = tasks.to_vec();
        let mut i = 0;
        while let Some(&t) = cone.get(i) {
            for flow in self.sdg.flows_to(t) {
                if !cone.contains(&flow.from) {
                    cone.push(flow.from);
                }
            }
            i += 1;
        }
        let mut upstream = cone.split_off(tasks.len());
        upstream.sort();
        upstream.iter().map(|t| self.routes[t].write()).collect()
    }

    fn find_entry(&self, entry: &str) -> SdgResult<&TaskDecl> {
        self.sdg
            .tasks
            .iter()
            .find(|t| {
                matches!(&t.kind, TaskKind::Entry { method } if method == entry) || t.name == entry
            })
            .ok_or_else(|| SdgError::NotFound(format!("entry point `{entry}`")))
    }

    /// The dispatcher of ingest lane `src` into `task`: its timestamps
    /// continue the lane's clock, so they outlive the handle.
    fn ingest_out(&self, task: &TaskDecl, src: u32) -> OutEdge {
        let (edge, dispatch) = ingest_flow(task);
        OutEdge::new(
            edge,
            src,
            dispatch,
            Vec::new(),
            Arc::clone(&self.routes[&task.id]),
            Arc::clone(&self.buffers),
            self.logs_into(task.id),
        )
    }

    /// Whether the lanes into `task` keep an upstream backup: only while
    /// checkpointing is on, and only into a task that accesses state. Its
    /// state's recovery is the backup's one reader — it replays the lanes
    /// of [`Inner::in_edges`] past the restored cut, and the same cut's
    /// watermarks trim them. A stateless instance is respawned with no
    /// replay (§5: its in-flight items die with it), so a log into it
    /// would never be read.
    fn logs_into(&self, task: TaskId) -> bool {
        self.cfg.checkpoint.enabled && self.sdg.task(task).is_ok_and(|t| t.access.is_some())
    }

    /// Sends one external request through an ingest lane's dispatcher
    /// `out`; returns its correlation id.
    fn request(&self, out: &mut OutEdge, payload: Record) -> SdgResult<u64> {
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        out.send(&Arc::new(payload), corr, 1, Some(Instant::now()))?;
        Ok(corr)
    }

    fn submit(&self, entry: &str, payload: Record) -> SdgResult<u64> {
        let task = self.find_entry(entry)?;
        // The shared path funnels through one ingest lane (src 0); heavy
        // multi-threaded feeders should use `Deployment::ingest_handle`.
        // The lane lock is held across the send so concurrent callers
        // deliver and log their timestamps in the order they ticked them.
        let mut ingest = self.ingest.lock();
        let out = ingest
            .entry(task.id)
            .or_insert_with(|| self.ingest_out(task, 0));
        self.request(out, payload)
    }

    /// Every edge into `task` with its dispatch, its ingest edge included:
    /// the lanes a checkpoint of its state trims and a recovery replays.
    fn in_edges(&self, task: &TaskDecl) -> Vec<(EdgeId, Dispatch)> {
        let mut edges: Vec<(EdgeId, Dispatch)> = self
            .sdg
            .flows_to(task.id)
            .iter()
            .map(|f| (f.id, f.dispatch.clone()))
            .collect();
        edges.push(ingest_flow(task));
        edges
    }

    pub(crate) fn checkpoint_all(&self, ctl: &mut Control) -> SdgResult<()> {
        let states: Vec<StateId> = self.cells.read().keys().copied().collect();
        states
            .into_iter()
            .try_for_each(|state| self.checkpoint_state(ctl, state))
    }

    /// Takes every replica of `state`, each a delta of its dirty chunks
    /// unless its record asks for a base.
    pub(crate) fn checkpoint_state(&self, ctl: &mut Control, state: StateId) -> SdgResult<()> {
        let group = self.cells.read().get(&state).cloned().unwrap_or_default();
        for (replica, cell) in group.iter().enumerate() {
            let replica = replica as u32;
            let seq = ctl.next_seq();
            let label = self.se_label(state, replica);
            let base = ctl.needs_base(state, replica);
            self.obs.record_event(EventKind::CheckpointBegin {
                instance: label.clone(),
                seq,
            });
            // No upstream buffers are captured: they live in the
            // deployment's `BufferRegistry`, which survives the kill of any
            // instance, and recovery replays from it directly.
            let set = take_checkpoint_with(
                cell,
                se_instance_id(state, replica),
                seq,
                Vec::new,
                &self.stores,
                &self.cfg.checkpoint,
                Some(self.obs.checkpoints()),
                CheckpointOptions { base },
            )?;
            self.obs.record_event(EventKind::CheckpointBackup {
                instance: label.clone(),
                seq,
                bytes: set.state_bytes as u64,
            });
            self.obs.record_event(EventKind::CheckpointConsolidate {
                instance: label,
                seq,
            });
            if let Ok(decl) = self.sdg.state(state) {
                self.obs
                    .state_with_id(&decl.name, Some(state))
                    .checkpoints
                    .inc();
            }
            // Trim upstream buffers covered by this checkpoint.
            self.trim_for(state, replica, &set);
            ctl.record(state, replica, set, &self.stores);
        }
        Ok(())
    }

    /// Trims buffers into `(state, replica)`'s consumer tasks using the
    /// checkpoint's vector watermarks.
    fn trim_for(&self, state: StateId, replica: u32, set: &BackupSet) {
        for task in self.sdg.tasks_accessing(state) {
            for (edge, _) in self.in_edges(task) {
                for (src, buf) in self.buffers.buffers_into(edge, replica) {
                    buf.lock().trim(set.vector.get(lane(edge, src)));
                }
            }
        }
    }

    pub(crate) fn fail_and_recover(
        &self,
        ctl: &mut Control,
        state: StateId,
        replica: u32,
    ) -> SdgResult<RecoveryReport> {
        let t0 = Instant::now();
        let label = self.se_label(state, replica);
        self.obs.record_event(EventKind::FailureInjected {
            instance: label.clone(),
        });
        let chain = ctl.recovery_chain(state, replica, self.cfg.checkpoint.enabled)?;

        // Pause the affected tasks, in id order (consistent ordering
        // prevents lock cycles), and then the tasks upstream of them. The
        // pause is held through restore, respawn AND replay: if new
        // traffic ran ahead of the replayed (lower-timestamped) items, the
        // duplicate filter would wrongly discard the replay. Sends made
        // meanwhile from inside the pool are staged, and the guards' drop
        // flushes them after the replay, stamped above it.
        let affected = self.accessing_sorted(state);
        let mut guards: Vec<_> = affected.iter().map(|t| self.routes[t].write()).collect();
        let upstream = self.pause_upstream(&affected);

        // Kill the old instances: their queues drain as discards.
        for slots in &guards {
            if let Some(old) = slots.get(replica as usize) {
                old.alive.store(false, Ordering::Release);
            }
        }

        // Restore state from the m backup stores, composing the base
        // generation with any deltas taken since it. The resilient restore
        // routes around corrupt or missing chunks by falling back to the
        // newest intact prefix of the chain; with no chain at all (never
        // checkpointed), recovery rebuilds from an empty store and a zero
        // watermark — replay then reconstructs the state from scratch.
        let restore_t0 = Instant::now();
        let decl = self.sdg.state(state)?.clone();
        let (stripes, dim, delta) = cell_layout(&self.cfg, &decl, self.sdg.verify.as_deref());
        // The restore decodes every entry straight into the stripe that
        // owns its key, each stripe with the exact vector recorded at
        // checkpoint time when the stripe layout is unchanged (else the
        // cut's min vector on every stripe, which is safe but replays
        // more).
        let new_cell = match &chain {
            Some(chain) => {
                let restored = restore_chain_resilient(
                    chain,
                    &self.stores,
                    1,
                    RestoreOptions {
                        stripes,
                        dim,
                        ..RestoreOptions::default()
                    },
                    Some(self.obs.checkpoints()),
                )?;
                if !restored.fallback_errors.is_empty() {
                    // Corrupt generations were dropped: surface each loss,
                    // then cut the recorded chain to the prefix that
                    // actually restored.
                    for e in &restored.fallback_errors {
                        self.obs.faults().chunks_corrupt.inc();
                        self.obs.record_event(EventKind::ChunkCorrupt {
                            instance: label.clone(),
                            error: e.to_string(),
                        });
                    }
                    self.obs
                        .recovery()
                        .chain_fallbacks
                        .add(restored.fallback_errors.len() as u64);
                    ctl.truncate(state, replica, restored.used + 1);
                }
                let parts = restored.parts.into_iter().next().expect("n=1 restore");
                StateCell::from_parts(parts, dim, delta)
            }
            None => StateCell::new_striped(decl.ty, stripes, dim, delta),
        };
        let new_cell = Arc::new(new_cell);
        let (floor, frontier) = (new_cell.vector(), new_cell.frontier());
        self.cells
            .write()
            .get_mut(&state)
            .and_then(|g| {
                g.get_mut(replica as usize)
                    .map(|slot| *slot = Arc::clone(&new_cell))
            })
            .ok_or_else(|| SdgError::NotFound(format!("state instance {state}#{replica}")))?;
        let restore = restore_t0.elapsed();
        self.obs.record_event(EventKind::RecoveryRestored {
            instance: label.clone(),
            took: restore,
        });

        // Respawn workers on a fresh node, swapping them in through the
        // held guards.
        let node = self.next_node();
        for (i, &task) in affected.iter().enumerate() {
            self.spawn_instance(task, replica, node, &mut guards[i])?;
        }

        // Replay from upstream output buffers past the restored watermarks,
        // still before any producer may send: replayed items must be first
        // in every lane so their (older) timestamps pass the filter.
        let mut replayed = 0usize;
        for (i, &task_id) in affected.iter().enumerate() {
            let sender = &guards[i][replica as usize].tx;
            for (edge, dispatch) in self.in_edges(self.sdg.task(task_id)?) {
                let watermarks = replay_watermarks(&dispatch, &floor, &frontier);
                for (src, buf) in self.buffers.buffers_into(edge, replica) {
                    let wm = watermarks.get(lane(edge, src));
                    for buffered in buf.lock().replay_after(wm) {
                        let mut item = Item::from_buffered(edge, src, buffered);
                        item.route = route_hash(&dispatch, &item.payload)?;
                        // Replay runs under the pause: bypass the cap (see
                        // `PoolSender::force_send`).
                        sender
                            .force_send(WorkerMsg::Item(item))
                            .map_err(|_| SdgError::Runtime("replay channel closed".into()))?;
                        replayed += 1;
                    }
                }
            }
        }
        drop(guards);
        drop(upstream);
        self.obs.checkpoints().replayed.add(replayed as u64);
        self.obs.record_event(EventKind::RecoveryReplayed {
            instance: label.clone(),
            items: replayed as u64,
        });
        let total = t0.elapsed();
        self.obs.record_event(EventKind::RecoveryComplete {
            instance: label,
            took: total,
        });

        Ok(RecoveryReport {
            restore,
            replayed,
            total,
        })
    }

    pub(crate) fn stop_wait(&self) -> &StopWait {
        &self.stop_wait
    }

    // ---- supervisor interface (see `crate::fault::run_supervisor`) ----

    pub(crate) fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    pub(crate) fn failure_hub(&self) -> &FailureHub {
        &self.failure_hub
    }

    /// Seed for the supervisor's backoff jitter (0 without a plan).
    pub(crate) fn fault_seed(&self) -> u64 {
        self.cfg.faults.as_ref().map(|p| p.seed).unwrap_or(0)
    }

    pub(crate) fn health_state(&self) -> Health {
        Health::from_u8(self.health.load(Ordering::Acquire))
    }

    /// `Healthy` → `Recovering`; never leaves `Degraded`.
    pub(crate) fn mark_recovering(&self) {
        let _ = self.health.compare_exchange(
            Health::Healthy.as_u8(),
            Health::Recovering.as_u8(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// `Recovering` → `Healthy`; never leaves `Degraded`.
    pub(crate) fn mark_stable(&self) {
        let _ = self.health.compare_exchange(
            Health::Recovering.as_u8(),
            Health::Healthy.as_u8(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Terminal escalation.
    pub(crate) fn mark_degraded(&self) {
        self.health
            .store(Health::Degraded.as_u8(), Ordering::Release);
    }

    /// Samples every instance's heartbeat epoch — its mailbox's pop count
    /// — together with what the supervisor needs to judge it: liveness,
    /// queued input, and whether a stalled epoch can mean a hang at all
    /// (only a `Running` actor holds a pool thread). The mailbox fields
    /// are read under one lock.
    pub(crate) fn heartbeat_view(&self) -> Vec<HeartbeatView> {
        let mut views = Vec::new();
        for (&task, route) in &self.routes {
            for (replica, instance) in route.read().iter().enumerate() {
                let replica = replica as u32;
                let (epoch, queued, hang_candidate) = instance.tx.progress();
                views.push(HeartbeatView {
                    task,
                    replica,
                    epoch,
                    alive: instance.alive.load(Ordering::Acquire),
                    queued,
                    hang_candidate,
                    label: self.te_label(task, replica),
                });
            }
        }
        views
    }

    /// Label of TE instance `(task, replica)` in event payloads.
    fn te_label(&self, task: TaskId, replica: u32) -> String {
        match self.sdg.task(task) {
            Ok(decl) => format!("{}#{replica}", decl.name),
            Err(_) => format!("{task}#{replica}"),
        }
    }

    /// What recovering the failed instance `(task, replica)` means:
    /// stateful tasks go through fail-and-recover keyed by their SE,
    /// stateless ones are respawned.
    pub(crate) fn recovery_unit(&self, task: TaskId, replica: u32) -> RecoveryUnit {
        match self.sdg.task(task).ok().and_then(|t| t.access.as_ref()) {
            Some(a) => RecoveryUnit::State(a.state, replica),
            None => RecoveryUnit::Task(task, replica),
        }
    }

    pub(crate) fn unit_label(&self, unit: RecoveryUnit) -> String {
        match unit {
            RecoveryUnit::State(state, replica) => self.se_label(state, replica),
            RecoveryUnit::Task(task, replica) => self.te_label(task, replica),
        }
    }

    /// Executes one recovery on behalf of the supervisor.
    pub(crate) fn recover(&self, ctl: &mut Control, unit: RecoveryUnit) -> SdgResult<()> {
        match unit {
            RecoveryUnit::State(state, replica) => {
                self.fail_and_recover(ctl, state, replica).map(|_| ())
            }
            RecoveryUnit::Task(task, replica) => self.respawn_stateless(ctl, task, replica),
        }
    }

    /// Replaces a dead stateless instance with a fresh one on a new node.
    ///
    /// There is no state to restore and nothing to replay: the items in
    /// flight at the dead instance die with it, and no lane into it logs
    /// (see [`Inner::logs_into`]). This is §5's model: durability comes
    /// from the stateful consumers' checkpoints plus replay of the lanes
    /// into them, so the respawn restores liveness, not the lost items.
    pub(crate) fn respawn_stateless(
        &self,
        _ctl: &mut Control,
        task: TaskId,
        replica: u32,
    ) -> SdgResult<()> {
        let route = self
            .routes
            .get(&task)
            .ok_or_else(|| SdgError::NotFound(format!("task {task}")))?;
        let mut slots = route.write();
        if let Some(old) = slots.get(replica as usize) {
            old.alive.store(false, Ordering::Release);
        }
        self.spawn_instance(task, replica, self.next_node(), &mut slots)
    }

    /// Records one scale event in the obs log and the reconfig counters.
    pub(crate) fn record_scale(&self, task: TaskId, node: u32, direction: ScaleDirection) {
        let instances = self.routes[&task].read().len() as u32;
        let name = match self.sdg.task(task) {
            Ok(decl) => decl.name.clone(),
            Err(_) => task.to_string(),
        };
        match direction {
            ScaleDirection::Out => {
                self.obs.record_event(EventKind::ScaleOut {
                    task: name,
                    instances,
                    node,
                });
                self.obs.reconfig().scale_outs.inc();
            }
            ScaleDirection::In => {
                self.obs.record_event(EventKind::ScaleIn {
                    task: name,
                    instances,
                    node,
                });
                self.obs.reconfig().scale_ins.inc();
            }
        }
    }

    /// Records one state-migration episode (bytes that changed SE owner).
    pub(crate) fn record_migration(&self, state: StateId, bytes: u64, took: Duration) {
        let name = match self.sdg.state(state) {
            Ok(decl) => decl.name.clone(),
            Err(_) => state.to_string(),
        };
        self.obs.record_event(EventKind::StateMigrated {
            state: name,
            bytes,
            took,
        });
        self.obs.reconfig().migrated_bytes.record(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::BufferKey;
    use sdg_common::record;
    use sdg_common::value::{Key, Value};
    use sdg_graph::model::{NativeTask, SdgBuilder, StateAccessEdge, TaskCode, TaskContext};
    use sdg_ir::analysis::verify::SeCertificate;
    use sdg_state::partition::KeyLayout;

    fn decl(ty: StateType, dist: Distribution) -> StateDecl {
        StateDecl {
            id: StateId(0),
            name: "t".into(),
            ty,
            dist,
        }
    }

    fn report(key_local: bool, replay_safe: bool) -> VerifyReport {
        let mut report = VerifyReport::default();
        report.se_certs.insert(
            "t".into(),
            SeCertificate {
                field: "t".into(),
                key_local,
                replay_safe,
                merge_sound: replay_safe,
                violations: Vec::new(),
            },
        );
        report
    }

    fn cfg_with_delta() -> RuntimeConfig {
        let mut cfg = RuntimeConfig {
            state_stripes: 8,
            ..RuntimeConfig::default()
        };
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.chunks = 32;
        cfg
    }

    #[test]
    fn certified_partitioned_table_is_striped_with_deltas() {
        let cfg = cfg_with_delta();
        let d = decl(
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let (stripes, _, delta) = cell_layout(&cfg, &d, Some(&report(true, true)));
        assert_eq!(stripes, 8);
        assert_eq!(delta, Some(32));
    }

    #[test]
    fn key_locality_violation_forces_one_stripe() {
        let cfg = cfg_with_delta();
        let d = decl(
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let (stripes, _, delta) = cell_layout(&cfg, &d, Some(&report(false, true)));
        assert_eq!(stripes, 1, "uncertified key locality must not stripe");
        assert_eq!(delta, Some(32), "replay safety is independent of striping");
    }

    #[test]
    fn replay_violation_disables_delta_checkpointing() {
        let cfg = cfg_with_delta();
        let d = decl(
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let (stripes, _, delta) = cell_layout(&cfg, &d, Some(&report(true, false)));
        assert_eq!(stripes, 8);
        assert_eq!(delta, None, "uncertified replay safety must not cut deltas");
    }

    #[test]
    fn absent_report_is_trusted() {
        let cfg = cfg_with_delta();
        let d = decl(
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        // Hand-built graphs attach no report: optimizations stay on.
        let (stripes, _, delta) = cell_layout(&cfg, &d, None);
        assert_eq!((stripes, delta), (8, Some(32)));
    }

    #[test]
    fn replay_into_a_gather_edge_starts_past_the_stripes_minimum() {
        // Two stripes of one restored cell recorded ts 4 and ts 10 on one
        // lane.
        let cell = StateCell::new_striped(StateType::Table, 2, PartitionDim::Row, None);
        let mut route = [None, None];
        for i in 0..100 {
            let h = Key::Int(i).stable_hash();
            route[(h % 2) as usize].get_or_insert(h);
        }
        let lane = EdgeId(7);
        cell.apply_routed(lane, 4, route[1], |_| ());
        cell.apply_routed(lane, 10, route[0], |_| ());
        let (floor, frontier) = (cell.vector(), cell.frontier());
        let gather = Dispatch::AllToOne {
            collect_var: "c".into(),
        };
        assert_eq!(replay_watermarks(&gather, &floor, &frontier).get(lane), 4);
        for ordered in [
            Dispatch::Partitioned { key: "k".into() },
            Dispatch::OneToAny,
            Dispatch::OneToAll,
        ] {
            assert_eq!(
                replay_watermarks(&ordered, &floor, &frontier).get(lane),
                10,
                "{ordered}"
            );
        }
    }

    #[test]
    fn vectors_and_partials_never_stripe() {
        let cfg = cfg_with_delta();
        let vec_decl = decl(
            StateType::Vector,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        assert_eq!(cell_layout(&cfg, &vec_decl, None).0, 1);
        let partial = decl(StateType::Table, Distribution::Partial);
        assert_eq!(cell_layout(&cfg, &partial, None).0, 1);
    }

    fn put(d: &Deployment, k: i64) {
        d.submit(
            "put",
            record! {"k" => Value::Int(k), "v" => Value::Int(k * 3)},
        )
        .unwrap();
    }

    fn sorted_entries(d: &Deployment, state: StateId, replica: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut entries: Vec<_> = d
            .with_state(state, replica, |s| {
                s.export_entries()
                    .into_iter()
                    .map(|e| (e.key, e.value))
                    .collect()
            })
            .unwrap();
        entries.sort();
        entries
    }

    #[test]
    fn checkpoints_copy_no_upstream_buffers_and_recovery_replays_the_registry() {
        let prog = sdg_ir::parser::parse_program(
            "@Partitioned Table kv;\nvoid put(int k, int v) { kv.put(k, v); }",
        )
        .unwrap();
        let sdg = sdg_translate::translate(&prog).unwrap();
        let kv = sdg.state_by_name("kv").unwrap().id;
        let mut cfg = RuntimeConfig::default();
        cfg.se_instances.insert(kv, 2);
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
        let d = Deployment::start(sdg, cfg).unwrap();

        for k in 0..300 {
            put(&d, k);
        }
        assert!(d.quiesce(Duration::from_secs(30)));
        d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
        {
            let ctl = d.inner.control.lock();
            for replica in 0..2 {
                let chain = ctl.chain(kv, replica).expect("one chain per replica");
                assert!(chain.iter().all(|set| set.out_buffers.is_empty()));
            }
        }

        // Items logged after the checkpoint are above its frontier: the
        // highest timestamp any stripe of the cut recorded on the lane.
        for k in 300..450 {
            put(&d, k);
        }
        assert!(d.quiesce(Duration::from_secs(30)));
        let before = sorted_entries(&d, kv, 0);
        let edge = ingest_edge(d.inner.find_entry("put").unwrap().id);
        let frontier = d
            .inner
            .control
            .lock()
            .chain(kv, 0)
            .unwrap()
            .last()
            .unwrap()
            .stripe_vectors
            .iter()
            .map(|v| v.get(lane(edge, 0)))
            .max()
            .unwrap();
        let buffer = d.inner.buffers.get(BufferKey {
            edge,
            src: 0,
            dst: 0,
        });
        let expected = buffer.lock().replay_after(frontier).len();
        // Exactly the puts routed to replica 0 after the checkpoint.
        let routed_after = (300..450i64)
            .filter(|&k| Key::Int(k).stable_hash().is_multiple_of(2))
            .count();
        assert_eq!(expected, routed_after);
        assert_eq!(expected, 75);

        let report = d
            .reconfigure(ReconfigRequest::FailAndRecover {
                state: kv,
                replica: 0,
            })
            .unwrap();
        assert_eq!(report.replayed, expected);
        assert!(d.quiesce(Duration::from_secs(30)));
        assert_eq!(
            sorted_entries(&d, kv, 0),
            before,
            "recovery is exactly-once"
        );
        d.shutdown();
    }

    #[test]
    fn an_ingest_handle_can_move_to_a_feeder_thread() {
        fn is_send<T: Send>() {}
        is_send::<IngestHandle>();
    }

    #[test]
    fn scale_in_deletes_the_removed_replicas_checkpoint_chunks() {
        let prog = sdg_ir::parser::parse_program(
            "@Partitioned Table kv;\nvoid put(int k, int v) { kv.put(k, v); }",
        )
        .unwrap();
        let sdg = sdg_translate::translate(&prog).unwrap();
        let kv = sdg.state_by_name("kv").unwrap().id;
        let mut cfg = RuntimeConfig::default();
        cfg.se_instances.insert(kv, 2);
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
        let d = Deployment::start(sdg, cfg).unwrap();

        for k in 0..200 {
            put(&d, k);
        }
        assert!(d.quiesce(Duration::from_secs(30)));
        d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
        let victim_chunks: Vec<_> = d
            .inner
            .control
            .lock()
            .chain(kv, 1)
            .unwrap()
            .iter()
            .flat_map(|set| set.chunk_locations.iter().map(|&(_, key)| key))
            .collect();
        assert!(!victim_chunks.is_empty());

        let task = d.inner.find_entry("put").unwrap().id;
        d.reconfigure(ReconfigRequest::ScaleIn { task }).unwrap();
        d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
        for store in &d.inner.stores {
            for &key in &victim_chunks {
                let err = store.read_chunk(key).unwrap_err();
                assert!(err.to_string().contains("not found"), "{err}");
            }
        }
        assert_eq!(
            sorted_entries(&d, kv, 0).len(),
            200,
            "survivor holds every key"
        );
        d.shutdown();
    }

    /// Counts the item under its `k` and forwards the new count as `c`.
    struct CountTask;

    impl NativeTask for CountTask {
        fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
            let key = input.require("k")?.to_key()?;
            let mut count = 0;
            ctx.state().expect("stateful").as_table()?.update(key, |v| {
                count = v.map_or(0, |x| x.as_int().unwrap_or(0)) + 1;
                Value::Int(count)
            });
            ctx.forward(record! {"c" => Value::Int(count)});
            Ok(())
        }
    }

    /// Forwards keys `0..n` for an input `n`.
    struct ExplodeTask;

    impl NativeTask for ExplodeTask {
        fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
            for k in 0..input.require("n")?.as_int()? {
                ctx.forward(record! {"k" => Value::Int(k)});
            }
            Ok(())
        }
    }

    fn counter(b: &mut SdgBuilder, state: StateId, mode: AccessMode) -> TaskId {
        b.add_task(
            "count",
            TaskKind::Compute,
            TaskCode::Native(Arc::new(CountTask)),
            Some(StateAccessEdge {
                state,
                mode,
                writes: true,
            }),
        )
    }

    fn manual_checkpoints(sdg: Sdg, state: StateId) -> Deployment {
        let mut cfg = RuntimeConfig::default();
        cfg.se_instances.insert(state, 2);
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
        cfg.supervisor.enabled = false;
        Deployment::start(sdg, cfg).unwrap()
    }

    /// The `k` of every item logged into replica `dst` of `task`, lane by
    /// lane. Asserts the rule on the way: of all the lanes into every task
    /// of `d`, only those into a task that accesses state have buffers,
    /// and those hold every byte the registry counts.
    fn logged_keys(d: &Deployment, task: TaskId, dst: u32) -> Vec<i64> {
        let inner = &d.inner;
        let mut bytes = 0;
        for decl in &inner.sdg.tasks {
            let replicas = inner.routes[&decl.id].read().len() as u32;
            for (edge, _) in inner.in_edges(decl) {
                for r in 0..replicas {
                    let into = inner.buffers.buffers_into(edge, r);
                    assert!(
                        decl.access.is_some() || into.is_empty(),
                        "edge {edge} into stateless `{}` logs",
                        decl.name
                    );
                    bytes += into
                        .iter()
                        .map(|(_, b)| b.lock().buffered_bytes())
                        .sum::<usize>();
                }
            }
        }
        assert_eq!(inner.buffers.total_bytes(), bytes);
        let decl = inner.sdg.task(task).unwrap();
        let mut keys = Vec::new();
        for (edge, _) in inner.in_edges(decl) {
            for (_, buf) in inner.buffers.buffers_into(edge, dst) {
                for item in buf.lock().replay_after(0) {
                    keys.push(item.payload.get("k").unwrap().as_int().unwrap());
                }
            }
        }
        keys
    }

    /// The count under every key of `state`'s replica, sorted by key.
    fn counts(d: &Deployment, state: StateId, replica: u32) -> Vec<(i64, i64)> {
        let mut counts = d
            .with_state(state, replica, |s| {
                let mut counts = Vec::new();
                s.as_table().unwrap().for_each(|k, v| {
                    let Key::Int(k) = k else { panic!("{k:?}") };
                    counts.push((*k, v.as_int().unwrap()));
                });
                counts
            })
            .unwrap();
        counts.sort();
        counts
    }

    /// A stateless flat map feeding a partitioned count: the ingest lanes
    /// into the flat map log nothing, the lanes into the count log exactly
    /// what the flat map forwarded, and a recovery of a count replica
    /// replays exactly its items after the checkpoint.
    #[test]
    fn only_lanes_into_state_log_behind_a_flat_map() {
        let mut b = SdgBuilder::new();
        let s = b.add_state(
            "s",
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let explode = b.add_task(
            "explode",
            TaskKind::Entry {
                method: "feed".into(),
            },
            TaskCode::Native(Arc::new(ExplodeTask)),
            None,
        );
        let key = || "k".to_string();
        let count = counter(
            &mut b,
            s,
            AccessMode::Partitioned {
                key: key(),
                dim: PartitionDim::Row,
            },
        );
        b.connect(
            explode,
            count,
            Dispatch::Partitioned { key: key() },
            vec![key()],
        );
        let d = manual_checkpoints(b.build().unwrap(), s);

        // Request i forwards keys 0..n(i); `owner(k)` counts key k.
        let n = |i: i64| 1 + i % 5;
        let owner = |k: i64| KeyLayout::instance(Key::Int(k).stable_hash(), 2) as u32;
        let feed = |from: i64, to: i64| {
            for i in from..to {
                d.submit("feed", record! {"n" => Value::Int(n(i))}).unwrap();
            }
            assert!(d.quiesce(Duration::from_secs(30)));
        };
        let forwarded = |from: i64, to: i64, dst: u32| -> Vec<i64> {
            let mut keys: Vec<i64> = (from..to)
                .flat_map(|i| 0..n(i))
                .filter(|&k| owner(k) == dst)
                .collect();
            keys.sort();
            keys
        };

        feed(0, 30);
        for dst in 0..2 {
            let mut logged = logged_keys(&d, count, dst);
            logged.sort();
            assert_eq!(logged, forwarded(0, 30, dst), "replica {dst}");
        }

        d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
        feed(30, 60);
        let report = d
            .reconfigure(ReconfigRequest::FailAndRecover {
                state: s,
                replica: 0,
            })
            .unwrap();
        assert_eq!(report.replayed, forwarded(30, 60, 0).len());
        assert!(d.quiesce(Duration::from_secs(30)));
        for replica in 0..2 {
            let mut want: Vec<(i64, i64)> = Vec::new();
            for k in forwarded(0, 60, replica) {
                match want.last_mut() {
                    Some((last, c)) if *last == k => *c += 1,
                    _ => want.push((k, 1)),
                }
            }
            assert_eq!(counts(&d, s, replica), want, "replica {replica}");
        }
        d.shutdown();
    }

    /// CF's shape: a broadcast into a task on a partial state, gathered
    /// into a stateless merge. Only the broadcast logs, every item once
    /// per replica, and a recovery of one replica replays exactly the
    /// items after the checkpoint.
    #[test]
    fn only_lanes_into_state_log_around_a_gather() {
        let mut b = SdgBuilder::new();
        let p = b.add_state("p", StateType::Table, Distribution::Partial);
        let fan = b.add_task(
            "fan",
            TaskKind::Entry {
                method: "feed".into(),
            },
            TaskCode::Passthrough,
            None,
        );
        let part = counter(&mut b, p, AccessMode::PartialGlobal);
        let merge = b.add_task("merge", TaskKind::Compute, TaskCode::Passthrough, None);
        b.connect(fan, part, Dispatch::OneToAll, vec!["k".into()]);
        b.connect(
            part,
            merge,
            Dispatch::AllToOne {
                collect_var: "c".into(),
            },
            vec!["c".into()],
        );
        let d = manual_checkpoints(b.build().unwrap(), p);

        let feed = |from: i64, to: i64| {
            for i in from..to {
                d.submit("feed", record! {"k" => Value::Int(i % 4)})
                    .unwrap();
            }
            assert!(d.quiesce(Duration::from_secs(30)));
        };
        feed(0, 20);
        let sent: Vec<i64> = (0..20).map(|i| i % 4).collect();
        for replica in 0..2 {
            assert_eq!(logged_keys(&d, part, replica), sent, "replica {replica}");
        }

        d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
        feed(20, 40);
        let report = d
            .reconfigure(ReconfigRequest::FailAndRecover {
                state: p,
                replica: 0,
            })
            .unwrap();
        assert_eq!(report.replayed, 20);
        assert!(d.quiesce(Duration::from_secs(30)));
        for replica in 0..2 {
            assert_eq!(
                counts(&d, p, replica),
                vec![(0, 10), (1, 10), (2, 10), (3, 10)],
                "replica {replica}"
            );
        }
        d.shutdown();
    }
}
