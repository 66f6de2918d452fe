//! Deployment: materialising an SDG onto the simulated cluster.
//!
//! `Deployment::start` works out the recovery units once (`Units`, which
//! every later reader of the grouping reads): the tasks that access one
//! SE, or one stateless task. It allocates TE and SE instances to nodes
//! (§3.3), registers one pool actor per replica of each unit (one worker
//! hosting the unit's TE instances on the replica's SE instance, behind
//! the unit's one route), wires the mailboxes, and starts the one
//! control thread (`control::start`). The route is the only index of an
//! SE's instances: each entry carries its replica's cell, so an SE
//! group's replica count is its route's length, and an SE no task
//! accesses has no instance (a count for it is a config error). The
//! handle then accepts external requests ([`Deployment::submit`]),
//! exposes the output sink, and supports §5's replay-based recovery.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use sdg_checkpoint::backup::BackupStore;
use sdg_checkpoint::cell::StateCell;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, StateId, TaskId};
use sdg_common::obs::{
    DeploymentStats, MetricsRegistry, MetricsSnapshot, ObsEvent, TaskInstruments,
};
use sdg_common::value::Record;
use sdg_graph::alloc::allocate;
use sdg_graph::model::{AccessMode, Dispatch, Distribution, Sdg, StateDecl, TaskDecl, TaskKind};
use sdg_graph::validate::validate;
use sdg_ir::analysis::verify::VerifyReport;
use sdg_state::partition::PartitionDim;
use sdg_state::store::{StateStore, StateType};

use crate::compile::Scratch;
use crate::config::RuntimeConfig;
use crate::control::{self, Sequencer, Wake};
use crate::fault::{FailureHub, FaultInjector, Health, RecoveryUnit};
use crate::reconfig::{ReconfigReport, ReconfigRequest};
use crate::sched::Pool;
use crate::worker::{
    state_cells, BufferRegistry, Instance, OutEdge, Paused, PreparedCode, Route, Te, Worker,
    WorkerMsg,
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

/// The names [`Deployment::submit`] accepts, each with its task: every
/// entry task's method, and every task's name. The first task in graph
/// order wins a name two tasks share.
fn entry_names(sdg: &Sdg) -> HashMap<String, TaskId> {
    let mut names = HashMap::new();
    for task in &sdg.tasks {
        if let TaskKind::Entry { method } = &task.kind {
            names.entry(method.clone()).or_insert(task.id);
        }
        names.entry(task.name.clone()).or_insert(task.id);
    }
    names
}

/// One recovery unit: every task that accesses one SE, or one stateless
/// task. Replica `r` of a unit is one pool actor whose worker hosts
/// replica `r` of each of its tasks and runs on replica `r` of the SE,
/// and the tasks share one route.
pub(crate) struct Unit {
    /// The SE the tasks access; `None` for a stateless task.
    pub(crate) state: Option<StateId>,
    /// The SE's name, or the stateless task's: what labels name the unit.
    pub(crate) name: String,
    /// The unit's tasks in graph order: a task's index is its slot.
    pub(crate) tasks: Vec<TaskId>,
    /// The units whose flows reach this one, in unit order, itself left
    /// out even when it feeds itself: those a pause of it holds too.
    pub(crate) upstream: Vec<usize>,
    /// The unit's instances, replica-indexed, as its producers reach them:
    /// the one index of the SE's instances, each carrying its cell.
    pub(crate) route: Arc<Route>,
}

impl Unit {
    /// Label of replica `replica` in event payloads, e.g. `kv#0`.
    pub(crate) fn label(&self, replica: u32) -> String {
        format!("{}#{replica}", self.name)
    }
}

/// A deployment's recovery units, in unit order: each SE's accessing
/// tasks (an SE no task accesses has no unit), then each stateless task.
pub(crate) struct Units {
    units: Vec<Unit>,
    /// Each task's unit and slot, indexed by task.
    of: Vec<(usize, usize)>,
}

impl Units {
    /// Groups `sdg`'s tasks: the one place the grouping rule lives.
    pub(crate) fn new(sdg: &Sdg) -> Units {
        let stateful =
            (sdg.states.iter()).map(|s| (Some(s.id), &s.name, sdg.tasks_accessing(s.id)));
        let stateless = (sdg.tasks.iter())
            .filter(|t| t.access.is_none())
            .map(|t| (None, &t.name, vec![t]));
        let mut units: Vec<Unit> = (stateful.chain(stateless))
            .filter(|(_, _, tasks)| !tasks.is_empty())
            .map(|(state, name, tasks)| Unit {
                state,
                name: name.clone(),
                tasks: tasks.iter().map(|t| t.id).collect(),
                upstream: Vec::new(),
                route: Arc::default(),
            })
            .collect();
        let mut of = vec![(0, 0); sdg.tasks.len()];
        for (u, unit) in units.iter().enumerate() {
            for (slot, t) in unit.tasks.iter().enumerate() {
                of[t.raw() as usize] = (u, slot);
            }
        }
        let links: Vec<(usize, usize)> = (sdg.flows.iter())
            .map(|f| (of[f.from.raw() as usize].0, of[f.to.raw() as usize].0))
            .collect();
        for (u, unit) in units.iter_mut().enumerate() {
            let mut cone = vec![u];
            let mut i = 0;
            while let Some(&to) = cone.get(i) {
                for &(from, _) in links.iter().filter(|l| l.1 == to) {
                    if !cone.contains(&from) {
                        cone.push(from);
                    }
                }
                i += 1;
            }
            unit.upstream = cone.split_off(1);
            unit.upstream.sort_unstable();
        }
        Units { units, of }
    }

    /// `task`'s unit index and its slot in the unit.
    pub(crate) fn of(&self, task: TaskId) -> (usize, usize) {
        self.of[task.raw() as usize]
    }

    /// `task`'s unit.
    pub(crate) fn unit(&self, task: TaskId) -> &Unit {
        &self.units[self.of(task).0]
    }

    /// `task`'s load: its items queued in its unit's mailboxes (the
    /// shares of a group's tasks add up to the mailboxes), and the unit's
    /// instance count.
    pub(crate) fn load(&self, task: TaskId) -> (usize, usize) {
        let (unit, slot) = self.of(task);
        let route = self.units[unit].route.read();
        (route.iter().map(|i| i.tx.queued(slot)).sum(), route.len())
    }

    /// `state`'s unit.
    pub(crate) fn of_state(&self, state: StateId) -> SdgResult<&Unit> {
        (self.units.iter())
            .find(|u| u.state == Some(state))
            .ok_or_else(|| SdgError::NotFound(format!("a task accessing state {state}")))
    }
}

impl std::ops::Deref for Units {
    type Target = [Unit];

    fn deref(&self) -> &[Unit] {
        &self.units
    }
}

/// The flows that close a cycle of actors: those whose consumer's unit
/// reaches back to its producer's. The TEs of one SE group share their
/// actors, so a flow between two of them is one, and so is a flow out of
/// a group whose consumers feed the group again.
fn cycle_flows(sdg: &Sdg, units: &Units) -> HashSet<EdgeId> {
    (sdg.flows.iter())
        .filter(|f| {
            let (from, to) = (units.of(f.from).0, units.of(f.to).0);
            from == to || units[from].upstream.contains(&to)
        })
        .map(|f| f.id)
        .collect()
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

pub(crate) struct Inner {
    pub sdg: Arc<Sdg>,
    pub cfg: RuntimeConfig,
    /// The recovery units, each with its route.
    pub(crate) units: Units,
    /// Each task's code, prepared once at start and shared by every
    /// instance, respawns and scale-outs included.
    code: HashMap<TaskId, PreparedCode>,
    /// The task each name [`Deployment::submit`] accepts resolves to.
    entries: HashMap<String, TaskId>,
    /// The flows that send without credit ([`cycle_flows`]).
    cycle_flows: HashSet<EdgeId>,
    /// Where caught worker/actor panics are reported.
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
    /// The next unused ingest lane: 0 is [`Deployment::submit`]'s.
    ingest_src: AtomicU32,
    pub stores: Vec<Arc<BackupStore>>,
    /// The control sequencer ([`crate::control`]): every checkpoint,
    /// scale, recovery and `with_state` runs holding it, and it owns the
    /// checkpoint chains and the node allocator. A second take of the
    /// same cell, or a migration in the middle of one, would fail the
    /// cell's checkpoint phases.
    pub(crate) control: Sequencer,
    /// The work-stealing pool running every TE instance as an actor.
    pool: Arc<Pool>,
}

/// A private submission handle with its own ingest lane (see
/// [`Deployment::ingest_handle`]).
pub struct IngestHandle {
    inner: Arc<Inner>,
    src: u32,
    /// This handle's lane into each task it submitted to, indexed by task.
    lanes: Vec<Option<OutEdge>>,
}

impl IngestHandle {
    /// A handle on the deployment's next unused ingest lane.
    fn next(inner: &Arc<Inner>) -> SdgResult<IngestHandle> {
        let src = inner.ingest_src.fetch_add(1, Ordering::Relaxed);
        if src >= crate::item::LANE_STRIDE {
            return Err(SdgError::Runtime(
                "too many ingest handles (max 1023)".into(),
            ));
        }
        Ok(IngestHandle {
            inner: Arc::clone(inner),
            src,
            lanes: std::iter::repeat_with(|| None)
                .take(inner.sdg.tasks.len())
                .collect(),
        })
    }

    /// Submits a request through this handle's lane; blocks on
    /// backpressure. Returns the correlation id.
    ///
    /// Requests into entries that access one SE instance reach its one
    /// mailbox in the order they were submitted here: a `get(k)` after a
    /// `put(k, v)` reads `v`.
    pub fn submit(&mut self, entry: &str, payload: Record) -> SdgResult<u64> {
        let inner = &*self.inner;
        let task = inner.entry(entry)?;
        let out =
            self.lanes[task.raw() as usize].get_or_insert_with(|| inner.ingest_out(task, self.src));
        let corr = inner.corr.fetch_add(1, Ordering::Relaxed);
        out.send(&Arc::new(payload), corr, 1, Some(Instant::now()))?;
        Ok(corr)
    }
}

/// A running SDG.
pub struct Deployment {
    inner: Arc<Inner>,
    sink_rx: Receiver<OutputEvent>,
    /// The control thread's inbox, and the thread ([`control::start`]).
    wake: Sender<Wake>,
    control: Option<JoinHandle<()>>,
    /// The shared ingest lane (src 0) behind [`Deployment::submit`].
    ingest: Mutex<IngestHandle>,
}

impl Deployment {
    /// Materialises `sdg` on the simulated cluster and starts processing.
    pub fn start(sdg: Sdg, cfg: RuntimeConfig) -> SdgResult<Deployment> {
        validate(&sdg)?;
        cfg.validate()?;
        // An SE no task accesses has no unit, so a count for it (or for a
        // state the graph lacks) would make no instance.
        if let Some(&state) =
            (cfg.se_instances.keys()).find(|&&s| sdg.tasks_accessing(s).is_empty())
        {
            let name = sdg
                .state(state)
                .map_or_else(|_| state.to_string(), |d| d.name.clone());
            return Err(SdgError::Config(format!(
                "se_instances names state element `{name}`, which no task accesses: \
                 it has no instance"
            )));
        }
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
        let mut code = HashMap::new();
        let mut instruments = HashMap::new();
        for task in &sdg.tasks {
            code.insert(task.id, PreparedCode::prepare(&task.code));
            instruments.insert(task.id, obs.task_with_id(&task.name, Some(task.id)));
        }
        for state in &sdg.states {
            let _ = obs.state_with_id(&state.name, Some(state.id));
        }

        // TE instances become actors on a fixed worker pool.
        let pool = Pool::start(cfg.sched_threads, Arc::clone(obs.sched()));

        // Resolve the fault plan against the graph before anything runs:
        // a plan naming an unknown task is a config error, not a silently
        // unarmed chaos run.
        let injector = FaultInjector::resolve(cfg.faults.as_ref(), &sdg)?;
        let (wake, inbox) = unbounded();
        let failure_hub = Arc::new(FailureHub {
            obs: Arc::clone(&obs),
            supervisor: cfg.supervisor.enabled.then(|| wake.clone()),
        });
        let units = Units::new(&sdg);

        let inner = Arc::new(Inner {
            sdg: Arc::clone(&sdg),
            cfg: cfg.clone(),
            cycle_flows: cycle_flows(&sdg, &units),
            units,
            code,
            entries: entry_names(&sdg),
            failure_hub,
            injector,
            health: AtomicU8::new(Health::Healthy.as_u8()),
            obs,
            instruments,
            buffers: Arc::default(),
            sink_tx,
            corr: AtomicU64::new(1),
            ingest_src: AtomicU32::new(0),
            stores,
            control: Sequencer::new(allocation.num_nodes),
            pool,
        });

        // Spawn instances: an SE group has one per SE instance, each on an
        // empty cell, a stateless task its configured count. An SE no task
        // accesses has no unit, so it has no instance.
        let mut ctl = inner.control.lock();
        for unit in inner.units.iter() {
            let count = match unit.state {
                Some(state) => {
                    let se_count = cfg.se_instances.get(&state).copied().unwrap_or(1);
                    let conflict = (unit.tasks.iter()).find_map(|t| {
                        let n = *cfg.task_instances.get(t)?;
                        (n != se_count).then_some((*t, n))
                    });
                    if let Some((task, n)) = conflict {
                        return Err(SdgError::Config(format!(
                            "task `{}` instance count {n} conflicts with its state \
                             element's {se_count} instances",
                            inner.task_name(task)
                        )));
                    }
                    se_count
                }
                None => cfg.task_instances.get(&unit.tasks[0]).copied().unwrap_or(1),
            };
            let mut route = unit.route.write();
            for replica in 0..count {
                let node = if replica == 0 {
                    allocation.node_of_task(unit.tasks[0]).raw()
                } else {
                    ctl.next_node()
                };
                let cell = unit.state.map(|s| inner.empty_cell(s)).transpose()?;
                inner.spawn_instance(unit, replica as u32, node, cell, &mut route)?;
            }
        }
        drop(ctl);

        Ok(Deployment {
            ingest: Mutex::new(IngestHandle::next(&inner)?),
            control: control::start(&inner, inbox),
            inner,
            sink_rx,
            wake,
        })
    }

    /// Supervisor-driven health: `Healthy` → `Recovering` while failures
    /// are being repaired, terminal `Degraded` once a recovery exhausts
    /// its attempts.
    pub fn health(&self) -> Health {
        Health::from_u8(self.inner.health.load(Ordering::Acquire))
    }

    /// Submits an external request to entry method `entry`.
    ///
    /// Blocks when the entry instance's channel is full (backpressure).
    /// Returns the request's correlation id.
    ///
    /// Every caller shares one ingest lane (src 0); heavy multi-threaded
    /// feeders should use [`Deployment::ingest_handle`]. The lane's lock is
    /// held across the send, so concurrent callers deliver and log their
    /// timestamps in the order they ticked them.
    pub fn submit(&self, entry: &str, payload: Record) -> SdgResult<u64> {
        self.ingest.lock().submit(entry, payload)
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
        IngestHandle::next(&self.inner)
    }

    /// Executes one typed reconfiguration request — scale-out, scale-in,
    /// checkpoint, or failure injection — and returns a uniform
    /// [`ReconfigReport`] with timings, migrated bytes and the resulting
    /// instance counts.
    ///
    /// This is the deployment's only control-plane entry point: the
    /// control thread's interval checkpoints and scaling monitor submit
    /// their requests here too. Every request runs holding the control
    /// sequencer, as do the supervisor's recoveries and
    /// [`Deployment::with_state`], so a checkpoint never overlaps a
    /// migration or a recovery; a request waits for the ones that asked
    /// before it, in arrival order.
    ///
    /// The [`crate::reconfig`] module docs describe how a scale pauses,
    /// moves state and ends with a base take of every replica.
    ///
    /// On `FailAndRecover`, the checkpoint restores the failed SE, and
    /// upstream buffers replay each lane past the restored cut's frontier
    /// — the highest timestamp any of its stripes recorded on that lane,
    /// below which the cut already holds every item — or past the
    /// stripes' minimum on a gather edge, whose items apply in completion
    /// order; the stripes' vector timestamps filter what a replay
    /// overlaps. A limitation relative to §5 of the paper: replayed items
    /// reprocessed by the recovered TEs forward downstream with *fresh*
    /// timestamps rather than regenerating their original ones, so any
    /// stateful stage they reach may re-apply effects it already holds: a
    /// different SE downstream, or the failed SE itself when its group
    /// feeds itself through another task. (The paper avoids this with
    /// deterministic timestamp regeneration, ROADMAP item 6 (a).)
    /// Checkpoints do not copy the upstream buffers: those live in the
    /// deployment's buffer registry, which survives the kill, and replay
    /// reads them directly. The failed SE's own state recovers exactly
    /// (exactly-once) unless its group feeds itself; a pipeline whose
    /// recovered stage reaches no other state, such as the KV store,
    /// recovers exactly. If the take that ends a migration fails for a
    /// replica, recovery of that replica reports "no checkpoint recorded"
    /// until the next take, instead of restoring the old key ownership.
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
        let unit = self.inner.units.of_state(state)?;
        let cell = state_cells(&unit.route.read())
            .into_iter()
            .nth(replica as usize);
        cell.ok_or_else(|| SdgError::NotFound(format!("state instance {state}#{replica}")))?
            .with_merged(f)
    }

    /// Waits until all submitted work has drained (queues empty and no item
    /// mid-processing), up to `timeout`. Returns `true` on success.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let drained = || (self.inner.units.iter()).all(|u| Inner::drained(&u.route.read()));
        loop {
            if drained() {
                // Double-check after a grace period: one pass reads the
                // instances one at a time, so an item forwarded into an
                // instance already read can slip past it.
                std::thread::sleep(Duration::from_millis(2));
                if drained() {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops all workers and the control thread, joining their threads.
    pub fn shutdown(self) {
        let _ = self.wake.send(Wake::Stop);
        for unit in self.inner.units.iter() {
            for instance in unit.route.read().iter() {
                // `force_send` so a full mailbox cannot block shutdown: Stop
                // must reach every actor even when its producers are
                // suspended on it.
                let _ = instance.tx.force_send(0, WorkerMsg::Stop);
            }
        }
        if let Some(control) = self.control {
            let _ = control.join();
        }
        self.inner.pool.join();
    }
}

impl Inner {
    /// Refreshes the sampled gauges (queue depths, instance counts, state
    /// sizes) so a snapshot taken right after reflects current occupancy.
    fn refresh_gauges(&self) {
        let mut mailbox_depth = 0;
        for (&task, instruments) in &self.instruments {
            let (depth, instances) = self.units.load(task);
            instruments.instances.set(instances as u64);
            instruments.queue_depth.set(depth as u64);
            mailbox_depth += depth as u64;
        }
        self.obs.sched().mailbox_depth.set(mailbox_depth);
        for unit in self.units.iter() {
            let Some(state) = unit.state else {
                continue;
            };
            let group = state_cells(&unit.route.read());
            let s = self.obs.state_with_id(&unit.name, Some(state));
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

    /// `true` when every instance of a route is quiet: no item waits in
    /// its mailbox and none is mid-processing.
    pub(crate) fn drained(route: &[Instance]) -> bool {
        route.iter().all(|i| i.tx.is_quiet())
    }

    /// The certificate-gated stripe/axis/delta layout for `decl`'s cells.
    pub(crate) fn layout_of(&self, decl: &StateDecl) -> (usize, PartitionDim, Option<usize>) {
        cell_layout(&self.cfg, decl, self.sdg.verify.as_deref())
    }

    /// A new empty SE instance of `state`, laid out by [`cell_layout`]:
    /// what start-up, a partial scale-out and a restore with no chain
    /// spawn a replica on.
    pub(crate) fn empty_cell(&self, state: StateId) -> SdgResult<Arc<StateCell>> {
        let decl = self.sdg.state(state)?;
        let (stripes, dim, delta) = self.layout_of(decl);
        let cell = StateCell::new_striped(decl.ty, stripes, dim, delta);
        Ok(Arc::new(cell))
    }

    /// Spawns replica `replica` of `unit` on `node` as one pool actor —
    /// an instance of each of the unit's tasks, on the SE instance `cell`
    /// (`None` in a stateless unit) — and puts it in the unit's paused
    /// `route`: appended, or in place of the instance it replaces. Recovery and scaling spawn through the guard their
    /// [`Quiesced`](crate::reconfig::Quiesced) holds across the whole
    /// operation, so producers stay paused until the swap (and any replay)
    /// is complete.
    pub(crate) fn spawn_instance(
        &self,
        unit: &Unit,
        replica: u32,
        node: u32,
        cell: Option<Arc<StateCell>>,
        route: &mut Paused<'_>,
    ) -> SdgResult<()> {
        let worker = Worker {
            tes: (unit.tasks.iter())
                .map(|&task| self.te(task, replica))
                .collect::<SdgResult<_>>()?,
            unit: RecoveryUnit {
                unit: self.units.of(unit.tasks[0]).0,
                replica,
            },
            cell: cell.clone(),
            sink: self.sink_tx.clone(),
            pending_outputs: Vec::new(),
            speed: self.cfg.cluster.speed_of(node as usize),
            alive: Arc::new(AtomicBool::new(true)),
            work_debt: Duration::ZERO,
            hub: Arc::clone(&self.failure_hub),
        };
        let instance = Instance {
            alive: Arc::clone(&worker.alive),
            tx: self.pool.spawn_actor(worker, self.cfg.channel_capacity),
            node,
            cell,
        };
        match route.get_mut(replica as usize) {
            Some(slot) => *slot = instance,
            None => route.push(instance),
        }
        Ok(())
    }

    /// TE instance `(task_id, replica)`.
    fn te(&self, task_id: TaskId, replica: u32) -> SdgResult<Te> {
        let task = self.sdg.task(task_id)?;
        let flows_in = self.sdg.flows_to(task_id);
        let gather_var = flows_in.iter().find_map(|f| match &f.dispatch {
            Dispatch::AllToOne { collect_var } => Some(collect_var.clone()),
            _ => None,
        });

        let outs = (self.sdg.flows_from(task_id).into_iter())
            .map(|f| self.out_edge(f.id, replica, f.dispatch.clone(), f.live_vars.clone(), f.to))
            .collect();

        Ok(Te {
            task: task_id,
            name: task.name.clone(),
            code: self.code[&task_id].clone(),
            scratch: Scratch::new(),
            outs,
            pending_gathers: HashMap::new(),
            gather_var,
            work_ns: self.cfg.work_ns.get(&task_id).copied().unwrap_or(0),
            obs: self.instruments[&task_id].shard(),
            // A respawned replica shares the original (spent) trigger, so
            // a recovered worker does not re-fail on the replayed item.
            fault: self.injector.trigger_for(task_id, replica),
        })
    }

    /// The task `name` resolves to ([`entry_names`]).
    pub(crate) fn entry(&self, name: &str) -> SdgResult<TaskId> {
        self.entries
            .get(name)
            .copied()
            .ok_or_else(|| SdgError::NotFound(format!("entry point `{name}`")))
    }

    /// The dispatcher of ingest lane `src` into `task`.
    fn ingest_out(&self, task: TaskId, src: u32) -> OutEdge {
        let (edge, dispatch) = ingest_flow(&self.sdg.tasks[task.raw() as usize]);
        self.out_edge(edge, src, dispatch, Vec::new(), task)
    }

    /// The dispatcher of producer replica `src` on `edge` into `to`, by
    /// `to`'s slot in its unit's route. Its timestamps continue the lane's
    /// clock, so they outlive the producer; a flow that closes a cycle of
    /// actors sends without credit.
    fn out_edge(
        &self,
        edge: EdgeId,
        src: u32,
        dispatch: Dispatch,
        live_vars: Vec<String>,
        to: TaskId,
    ) -> OutEdge {
        let (unit, slot) = self.units.of(to);
        let route = (Arc::clone(&self.units[unit].route), slot);
        let out = OutEdge::new(
            edge,
            src,
            dispatch,
            live_vars,
            route,
            Arc::clone(&self.buffers),
            self.logs_into(to),
        );
        if self.cycle_flows.contains(&edge) {
            out.without_credit()
        } else {
            out
        }
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

    /// Every edge into `task` with its dispatch, its ingest edge included:
    /// the lanes a checkpoint of its state trims and a recovery replays.
    pub(crate) fn in_edges(&self, task: TaskId) -> Vec<(EdgeId, Dispatch)> {
        let mut edges: Vec<(EdgeId, Dispatch)> = self
            .sdg
            .flows_to(task)
            .iter()
            .map(|f| (f.id, f.dispatch.clone()))
            .collect();
        edges.push(ingest_flow(&self.sdg.tasks[task.raw() as usize]));
        edges
    }

    /// Sets the deployment's health, which never leaves the terminal
    /// `Degraded`; the supervisor is its one writer.
    pub(crate) fn set_health(&self, health: Health) {
        if self.health.load(Ordering::Acquire) != Health::Degraded.as_u8() {
            self.health.store(health.as_u8(), Ordering::Release);
        }
    }

    /// The name of `task` in event payloads and errors.
    pub(crate) fn task_name(&self, task: TaskId) -> String {
        self.sdg
            .task(task)
            .map_or_else(|_| task.to_string(), |t| t.name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::lane;
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
        let edge = ingest_edge(d.inner.entry("put").unwrap());
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
    fn the_tasks_of_one_se_group_share_one_route() {
        let prog = sdg_ir::parser::parse_program(
            "@Partitioned Table kv;\n\
             void put(int k, int v) { kv.put(k, v); }\n\
             int get(int k) { let v = kv.get(k); emit v; }",
        )
        .unwrap();
        let sdg = sdg_translate::translate(&prog).unwrap();
        let kv = sdg.state_by_name("kv").unwrap().id;
        let mut cfg = RuntimeConfig::default();
        cfg.se_instances.insert(kv, 2);
        let d = Deployment::start(sdg, cfg).unwrap();
        let units = &d.inner.units;
        let [put, get] = ["put", "get"].map(|e| d.inner.entry(e).unwrap());
        let route = &units.unit(put).route;
        assert!(Arc::ptr_eq(route, &units.unit(get).route), "one route");
        assert_eq!((units.of(put).1, units.of(get).1), (0, 1));
        assert_eq!(route.read().len(), 2, "one instance per SE instance");
        assert_eq!(units.len(), 1);
        d.shutdown();
    }

    /// An SE that no task accesses has no unit, so it has no instance: a
    /// count for it is a config error, it has no cell to read, its
    /// instance gauge reads 0, and a checkpoint takes nothing of it. A
    /// replica an SE group does not have is not found either.
    #[test]
    fn an_se_no_task_accesses_has_no_instance() {
        let prog = sdg_ir::parser::parse_program(
            "@Partitioned Table kv;\n@Partitioned Table idle;\n\
             void put(int k, int v) { kv.put(k, v); }",
        )
        .unwrap();
        let sdg = sdg_translate::translate(&prog).unwrap();
        let [kv, idle] = ["kv", "idle"].map(|n| sdg.state_by_name(n).unwrap().id);
        let mut cfg = RuntimeConfig::default();
        cfg.se_instances.insert(kv, 2);
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.

        // A count for it, or for a state the graph lacks, is refused.
        for state in [idle, StateId(7)] {
            let mut cfg = cfg.clone();
            cfg.se_instances.insert(state, 2);
            let err = Deployment::start(sdg.clone(), cfg).err().unwrap();
            let name = if state == idle { "`idle`" } else { "`s7`" };
            assert!(
                matches!(&err, SdgError::Config(m) if m.contains(name)),
                "{err}"
            );
        }
        let d = Deployment::start(sdg, cfg).unwrap();
        put(&d, 1);
        assert!(d.quiesce(Duration::from_secs(30)));

        let report = d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
        assert_eq!(report.se_instances, 2, "only kv's replicas");
        assert!(d.inner.control.lock().chain(idle, 0).is_none());
        let not_found = |r: SdgResult<_>| matches!(r, Err(SdgError::NotFound(_)));
        assert!(not_found(d.with_state(idle, 0, |_| ())));
        assert!(not_found(d.with_state(kv, 2, |_| ())));
        let fail = |state, replica| ReconfigRequest::FailAndRecover { state, replica };
        assert!(not_found(d.reconfigure(fail(kv, 2)).map(|_| ())));
        let stats = d.metrics().states;
        let stat = |name: &str| stats.iter().find(|s| s.name == name).unwrap();
        assert_eq!((stat("kv").instances, stat("idle").instances), (2, 0));
        assert_eq!((stat("kv").checkpoints, stat("idle").checkpoints), (2, 0));
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

        let task = d.inner.entry("put").unwrap();
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
            let replicas = inner.units.unit(decl.id).route.read().len() as u32;
            for (edge, _) in inner.in_edges(decl.id) {
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
        let mut keys = Vec::new();
        for (edge, _) in inner.in_edges(task) {
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
