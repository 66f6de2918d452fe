//! The reconfiguration control plane: one typed entry point for every
//! runtime topology change.
//!
//! [`crate::deploy::Deployment::reconfigure`] accepts a [`ReconfigRequest`]
//! — scale-out, scale-in, checkpoint, or failure injection — and returns a
//! uniform [`ReconfigReport`] carrying timings, migrated bytes and the
//! resulting instance counts. The checkpoint interval thread and the
//! scaling monitor submit their requests through the same entry, and
//! every request runs holding the control sequencer (`Inner::control`),
//! so checkpoints, migrations and recoveries never interleave.
//!
//! A scale of a stateful group first pauses the routes of every task that
//! accesses the state, and of every task upstream of them, and waits,
//! with no deadline, until the accessing tasks are quiet: a send from
//! inside the pool into a paused route is staged, never waited on, so the
//! wait always ends. Releasing the routes flushes the staged sends by the
//! new instance count. A scale refuses to run over an instance that has
//! failed and awaits recovery.
//! A partitioned group is then re-placed onto p ± 1 instances by
//! `repartition`, the way a restore places a checkpoint: every entry
//! goes once, straight into its final stripe. A partial group grows by an
//! empty replica, or shrinks by additively folding the victim into a
//! survivor (gated on the `sdg-verify` merge-soundness certificate). A
//! migration empties the state's chain records, because a chain cut
//! before it describes the old key ownership. It ends, after producers
//! resume and still under the sequencer, with a base take of every
//! replica, so a failure right after a scale recovers from the new chains.
//! Scale-in deletes the removed replica's chunks from every backup store.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdg_checkpoint::backup::ChunkReader;
use sdg_checkpoint::cell::StateCell;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{StateId, TaskId};
use sdg_common::obs::EventKind;
use sdg_common::time::VectorTs;
use sdg_graph::model::{Distribution, Sdg};
use sdg_state::store::StateType;

use crate::control::Control;
use crate::deploy::Inner;
use crate::scaling::ScaleDirection;
use crate::worker::{Instance, Paused, WorkerMsg};

/// A topology-change request for [`crate::deploy::Deployment::reconfigure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigRequest {
    /// Add one instance to `task` (and to its SE group when stateful).
    ScaleOut {
        /// The task to grow.
        task: TaskId,
    },
    /// Remove one instance from `task` (and from its SE group when
    /// stateful), live-migrating the victim's state into the survivors.
    ScaleIn {
        /// The task to shrink.
        task: TaskId,
    },
    /// Checkpoint every SE instance now.
    Checkpoint,
    /// Simulate the failure of the node hosting SE instance
    /// `(state, replica)` and recover it from the latest checkpoint chain
    /// plus upstream replay.
    FailAndRecover {
        /// The state whose instance fails.
        state: StateId,
        /// The failing replica.
        replica: u32,
    },
}

impl ReconfigRequest {
    /// Stable lowercase identifier of the request kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ReconfigRequest::ScaleOut { .. } => "scale_out",
            ReconfigRequest::ScaleIn { .. } => "scale_in",
            ReconfigRequest::Checkpoint => "checkpoint",
            ReconfigRequest::FailAndRecover { .. } => "fail_and_recover",
        }
    }
}

/// Uniform outcome of one [`ReconfigRequest`].
///
/// Fields that do not apply to a given request kind are zero: a
/// `Checkpoint` moves no state, a `ScaleOut` restores nothing, and so on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigReport {
    /// The request this report answers.
    pub request: ReconfigRequest,
    /// End-to-end time of the whole reconfiguration.
    pub total: Duration,
    /// Time the drain barrier was held (scale operations on stateful
    /// groups).
    pub drain: Duration,
    /// Time to fetch chunks and reconstitute state (`FailAndRecover`).
    pub restore: Duration,
    /// Bytes that changed owner between SE instances.
    pub moved_bytes: u64,
    /// Items replayed from upstream buffers (`FailAndRecover`).
    pub replayed: usize,
    /// Instance count of the affected task after the operation (for
    /// `Checkpoint`: total TE instances across all tasks).
    pub task_instances: u32,
    /// SE instances of the affected state after the operation (for
    /// `Checkpoint`: total SE instances; zero for stateless tasks).
    pub se_instances: u32,
}

/// Timings and migrated-byte counts of one scale operation, threaded from
/// the executing function back to the report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MigrationStats {
    pub(crate) drain: Duration,
    pub(crate) moved_bytes: u64,
}

/// Executes `request` against a running deployment, holding the control
/// sequencer for the whole operation (the wait for it is part of
/// `total`).
pub(crate) fn execute(inner: &Inner, request: ReconfigRequest) -> SdgResult<ReconfigReport> {
    let t0 = Instant::now();
    let ctl = &mut *inner.control.lock();
    let instances = |task: TaskId| inner.routes.get(&task).map_or(0, |r| r.read().len() as u32);
    let replicas = |state: StateId| inner.cells.read().get(&state).map_or(0, |g| g.len() as u32);
    let mut report = ReconfigReport {
        request,
        total: Duration::ZERO,
        drain: Duration::ZERO,
        restore: Duration::ZERO,
        moved_bytes: 0,
        replayed: 0,
        task_instances: 0,
        se_instances: 0,
    };
    match request {
        ReconfigRequest::ScaleOut { task } | ReconfigRequest::ScaleIn { task } => {
            let stats = match request {
                ReconfigRequest::ScaleOut { .. } => scale_out(inner, ctl, task)?,
                _ => scale_in(inner, ctl, task)?,
            };
            report.drain = stats.drain;
            report.moved_bytes = stats.moved_bytes;
            report.task_instances = instances(task);
            report.se_instances = inner
                .sdg
                .task(task)
                .ok()
                .and_then(|t| t.access.as_ref())
                .map_or(0, |a| replicas(a.state));
        }
        ReconfigRequest::Checkpoint => {
            inner.checkpoint_all(ctl)?;
            report.task_instances = inner.routes.keys().map(|&t| instances(t)).sum();
            report.se_instances = inner.cells.read().values().map(|g| g.len() as u32).sum();
        }
        ReconfigRequest::FailAndRecover { state, replica } => {
            let recovery = inner.fail_and_recover(ctl, state, replica)?;
            report.restore = recovery.restore;
            report.replayed = recovery.replayed;
            let accessing = inner.sdg.tasks_accessing(state);
            report.task_instances = accessing.iter().map(|t| instances(t.id)).sum();
            report.se_instances = replicas(state);
        }
    }
    report.total = t0.elapsed();
    Ok(report)
}

/// Adds one instance to `task`, repartitioning or replicating its SE group
/// as its distribution requires.
fn scale_out(inner: &Inner, ctl: &mut Control, task_id: TaskId) -> SdgResult<MigrationStats> {
    let task = inner.sdg.task(task_id)?;
    let Some(access) = &task.access else {
        let mut slots = inner.routes[&task_id].write();
        let node = inner.next_node();
        inner.spawn_instance(task_id, slots.len() as u32, node, &mut slots)?;
        drop(slots);
        inner.record_scale(task_id, node, ScaleDirection::Out);
        return Ok(MigrationStats::default());
    };
    let state = access.state;
    match inner.sdg.state(state)?.dist {
        Distribution::Local => Err(SdgError::Runtime(format!(
            "task `{}` accesses local state and cannot scale out",
            task.name
        ))),
        Distribution::Partial => scale_out_partial(inner, state, task_id),
        Distribution::Partitioned { .. } => {
            let p = inner.cells.read().get(&state).map_or(0, Vec::len);
            migrate(inner, ctl, state, task_id, p + 1)
        }
    }
}

/// Removes one instance from `task`, live-migrating the victim replica's
/// state into the survivors: a partitioned group is re-placed onto the
/// survivors, a partial replica is folded into replica 0.
fn scale_in(inner: &Inner, ctl: &mut Control, task_id: TaskId) -> SdgResult<MigrationStats> {
    let task = inner.sdg.task(task_id)?;
    let Some(access) = &task.access else {
        let mut guard = [inner.routes[&task_id].write()];
        if guard[0].len() <= 1 {
            return Err(SdgError::Runtime(format!(
                "task `{}` is already at one instance",
                task.name
            )));
        }
        refuse_failed(inner, task_id, &guard[0])?;
        let node = stop_victims(&mut guard);
        drop(guard);
        inner.record_scale(task_id, node, ScaleDirection::In);
        return Ok(MigrationStats::default());
    };
    let state = access.state;
    let decl = inner.sdg.state(state)?;
    let unit = match decl.dist {
        Distribution::Local => {
            return Err(SdgError::Runtime(format!(
                "task `{}` accesses local state and cannot scale in",
                task.name
            )))
        }
        Distribution::Partial => {
            check_partial_merge(&inner.sdg, &decl.name)?;
            "replica"
        }
        Distribution::Partitioned { .. } => "partition",
    };
    let p = inner.cells.read().get(&state).map_or(0, |g| g.len());
    if p <= 1 {
        return Err(SdgError::Runtime(format!(
            "state `{}` is already at one {unit}",
            decl.name
        )));
    }
    migrate(inner, ctl, state, task_id, p - 1)
}

/// Moves the SE group of `state` from its `p` instances to `to = p ± 1`:
/// pauses the accessing tasks, re-places a partitioned group
/// ([`repartition`]) or folds a partial group's last replica into replica
/// 0, spawns or stops the accessing tasks' instance `max(p, to) − 1`, and
/// ends with a base take of every replica.
fn migrate(
    inner: &Inner,
    ctl: &mut Control,
    state: StateId,
    trigger: TaskId,
    to: usize,
) -> SdgResult<MigrationStats> {
    // The guards stay held until the instances are swapped: releasing
    // earlier would let producers route by the old partition count
    // against the already-moved state. Their drop flushes the sends
    // staged meanwhile by the new count.
    let (tasks, mut guards, upstream, drain) = pause(inner, state, trigger)?;
    let migrate_t0 = Instant::now();
    let p = inner.cells.read().get(&state).map_or(0, Vec::len);
    let moved_bytes = match inner.sdg.state(state)?.dist {
        Distribution::Partitioned { .. } => repartition(inner, state, to)?,
        _ => fold_partial(inner, state)?,
    };
    ctl.invalidate(state, to);
    let (node, direction) = if to > p {
        let node = inner.next_node();
        for (i, &task) in tasks.iter().enumerate() {
            inner.spawn_instance(task, p as u32, node, &mut guards[i])?;
        }
        (node, ScaleDirection::Out)
    } else {
        ctl.forget_replica(state, to as u32, &inner.stores);
        let node = stop_victims(&mut guards);
        (node, ScaleDirection::In)
    };
    drop(guards);
    drop(upstream);
    inner.record_migration(state, moved_bytes, migrate_t0.elapsed());
    inner.record_scale(trigger, node, direction);
    // The migration emptied every record and left every tracked chunk
    // dirty, so these takes are bases: each chain is recoverable again
    // before the sequencer is released. A failed take does not fail the
    // scale; its replica keeps the empty record, and its recovery is
    // refused until the next take.
    if inner.cfg.checkpoint.enabled {
        let _ = inner.checkpoint_state(ctl, state);
    }
    Ok(MigrationStats { drain, moved_bytes })
}

/// Adds one replica to a partial SE group: a fresh (empty) partial
/// instance plus one new instance of every accessing task.
fn scale_out_partial(inner: &Inner, state: StateId, trigger: TaskId) -> SdgResult<MigrationStats> {
    let new_replica = {
        let mut cells = inner.cells.write();
        let group = cells
            .get_mut(&state)
            .ok_or_else(|| SdgError::NotFound(format!("state {state}")))?;
        let decl = inner.sdg.state(state)?;
        let (stripes, dim, delta) = inner.layout_of(decl);
        group.push(Arc::new(StateCell::new_striped(
            decl.ty, stripes, dim, delta,
        )));
        group.len() as u32 - 1
    };
    let node = inner.next_node();
    for task in inner.accessing_sorted(state) {
        inner.spawn_instance(task, new_replica, node, &mut inner.routes[&task].write())?;
    }
    inner.record_scale(trigger, node, ScaleDirection::Out);
    Ok(MigrationStats::default())
}

/// Refuses to fold a partial replica when the SE's `@Partial` merge is not
/// certified sound by the attached `sdg-verify` report: the fold applies
/// the merge function outside its usual read-all barrier, so an unsound
/// merge could corrupt the surviving aggregate. A graph without a report
/// is trusted.
pub(crate) fn check_partial_merge(sdg: &Sdg, name: &str) -> SdgResult<()> {
    match sdg.verify.as_deref().and_then(|r| r.se(name)) {
        Some(cert) if !cert.merge_sound => Err(SdgError::Runtime(format!(
            "scale-in of `{name}` refused: its @Partial merge is not certified sound \
             ({}); folding the removed replica into a survivor could corrupt the \
             aggregate. Fix the merge.",
            if cert.violations.is_empty() {
                "certificate withheld".to_string()
            } else {
                cert.violations.join(", ")
            }
        ))),
        _ => Ok(()),
    }
}

/// Folds the last partial replica's aggregate (and its dedupe watermarks)
/// into replica 0 and removes its cell — pointwise addition preserves the
/// element-wise-sum invariant of partial groups. Returns the bytes moved.
fn fold_partial(inner: &Inner, state: StateId) -> SdgResult<u64> {
    let mut cells = inner.cells.write();
    let group = cells.get_mut(&state).expect("checked by scale_in");
    let victim = group.pop().expect("p > 1");
    let (entries, vector) = victim.export_merged();
    group[0].merge_additive(&entries, &vector)?;
    Ok(entries.iter().map(|e| e.size() as u64).sum())
}

/// Re-places every entry of the partitioned SE `state` onto `to`
/// instances, the way a restore places a checkpoint.
///
/// Each instance exports its entries once, and one [`ChunkReader`] puts
/// every entry straight into its final stripe by
/// [`KeyLayout::shard`](sdg_state::partition::KeyLayout::shard), the rule
/// the dispatchers route by. Survivors
/// install their new stripes in place, because workers hold their cells;
/// an added instance gets a new cell, and a removed one (the last) leaves
/// the group. Every stripe gets the group's pointwise-max vector, which is
/// exact after the drain: fresh items carry higher timestamps than
/// anything placed. Returns the bytes placed on an instance other than the
/// one that exported them.
fn repartition(inner: &Inner, state: StateId, to: usize) -> SdgResult<u64> {
    let decl = inner.sdg.state(state)?;
    if decl.ty == StateType::Vector {
        return Err(SdgError::State(format!(
            "dense vector `{}` cannot be partitioned; declare it @Partial",
            decl.name
        )));
    }
    let (stripes, dim, delta) = inner.layout_of(decl);
    let mut cells = inner.cells.write();
    let group = cells
        .get_mut(&state)
        .ok_or_else(|| SdgError::NotFound(format!("state {state}")))?;
    let mut reader = ChunkReader::new(decl.ty, to, stripes, dim);
    let mut vector = VectorTs::new();
    let mut moved = 0;
    for (i, cell) in group.iter().enumerate() {
        let (entries, cell_vector) = cell.export_merged();
        vector.merge_max(&cell_vector);
        moved += reader.place(i, &entries)?;
    }
    let mut placed = reader.finish().into_iter();
    group.truncate(to);
    for (cell, stores) in group.iter().zip(placed.by_ref()) {
        cell.install(stores, &vector);
    }
    for stores in placed {
        let parts = stores.into_iter().map(|s| (s, vector.clone())).collect();
        group.push(Arc::new(StateCell::from_parts(parts, dim, delta)));
    }
    Ok(moved)
}

/// The held pauses of several routes.
type Guards<'a> = Vec<Paused<'a>>;

/// Pauses every task accessing `state`: takes their routes
/// ([`crate::worker::Route::write`]) in task-id order, then the routes
/// upstream of them ([`Inner::pause_upstream`]), and waits until each of
/// the accessing tasks' instances is quiet — mailbox empty, no item
/// mid-processing — so a migration sees a consistent key population.
///
/// The wait has no deadline, because it always ends: a send into a paused
/// route from inside the pool is staged rather than waited on, so no pool
/// thread is held, and a paused instance that forwards into another
/// paused task still drains its own mailbox. Instances of other tasks are
/// not waited on. Returns the tasks, their guards, the upstream guards and
/// the wait, which is also logged as `trigger`'s `RepartitionDrain`.
///
/// # Errors
///
/// Refuses when one of the paused instances has failed: see
/// [`refuse_failed`].
fn pause(
    inner: &Inner,
    state: StateId,
    trigger: TaskId,
) -> SdgResult<(Vec<TaskId>, Guards<'_>, Guards<'_>, Duration)> {
    let tasks = inner.accessing_sorted(state);
    let guards: Vec<_> = tasks.iter().map(|t| inner.routes[t].write()).collect();
    let upstream = inner.pause_upstream(&tasks);
    let t0 = Instant::now();
    while !Inner::drained(guards.iter().map(|g| &**g)) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let waited = t0.elapsed();
    if let Ok(task) = inner.sdg.task(trigger) {
        inner.obs.record_event(EventKind::RepartitionDrain {
            task: task.name.clone(),
            waited,
        });
    }
    // Checked after the drain: by then no paused actor can still fail.
    for (&task, guard) in tasks.iter().zip(&guards) {
        refuse_failed(inner, task, guard)?;
    }
    Ok((tasks, guards, upstream, waited))
}

/// Refuses to scale `task` while one of its instances has failed and
/// awaits recovery. A scale would move or retire the dead instance's state
/// and slot, so the recovery that follows would find neither; the caller
/// asks again once the supervisor (or a `FailAndRecover`) has recovered
/// it.
fn refuse_failed(inner: &Inner, task: TaskId, slots: &[Instance]) -> SdgResult<()> {
    if !slots.iter().any(|i| i.tx.is_closed()) {
        return Ok(());
    }
    let name = inner
        .sdg
        .task(task)
        .map_or_else(|_| task.to_string(), |t| t.name.clone());
    Err(SdgError::Runtime(format!(
        "a failed instance of `{name}` awaits recovery"
    )))
}

/// Stops the last instance of every paused route and returns the node it
/// ran on.
fn stop_victims(guards: &mut [Paused<'_>]) -> u32 {
    let mut node = 0;
    for slots in guards {
        if let Some(victim) = slots.pop() {
            // `force_send`: `Stop` must land whatever the mailbox holds.
            let _ = victim.tx.force_send(WorkerMsg::Stop);
            node = victim.node;
        }
    }
    node
}
