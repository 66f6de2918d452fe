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
//! Scale-in is the elastic counterpart of §3.3's scale-out: the victim
//! replica's input lanes are paused behind the same drain barrier used for
//! repartitioning, its state shard is split by the partitioner's key hash
//! and merged into the surviving replicas' stripes (partitioned SEs), or
//! additively folded into a survivor (partial SEs — gated on the
//! `sdg-verify` merge-soundness certificate), and the removed instance's
//! workers are stopped. Both directions invalidate the affected state's
//! checkpoint chains so restore never composes deltas across a
//! repartition boundary, and scale-in deletes the removed replica's
//! checkpoint chunks from every backup store.

use std::ops::DerefMut;
use std::time::{Duration, Instant};

use sdg_common::codec::decode_from_slice;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{StateId, TaskId};
use sdg_common::obs::EventKind;
use sdg_common::time::VectorTs;
use sdg_common::value::Key;
use sdg_graph::model::{Distribution, Sdg};
use sdg_state::entry::StateEntry;
use sdg_state::partition::{owner_changes, PartitionDim};
use sdg_state::store::{StateStore, StateType};

use crate::control::Control;
use crate::deploy::Inner;
use crate::scaling::ScaleDirection;
use crate::sched::PoolSender;
use crate::worker::WorkerMsg;

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
    let instances = |task: TaskId| {
        inner
            .targets
            .get(&task)
            .map_or(0, |t| t.read().len() as u32)
    };
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
            report.task_instances = inner.targets.keys().map(|&t| instances(t)).sum();
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
        let replica = inner.targets[&task_id].read().len() as u32;
        let node = inner.next_node();
        inner.spawn_instance(task_id, replica, node)?;
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
        Distribution::Partitioned { dim } => scale_out_partitioned(inner, ctl, state, dim, task_id),
    }
}

/// Removes one instance from `task`, live-migrating the victim replica's
/// state into the survivors: a partitioned group is merged and re-split
/// over the survivors, a partial replica is folded into replica 0.
fn scale_in(inner: &Inner, ctl: &mut Control, task_id: TaskId) -> SdgResult<MigrationStats> {
    let task = inner.sdg.task(task_id)?;
    let Some(access) = &task.access else {
        let mut guard = [inner.targets[&task_id].write()];
        let n = guard[0].len() as u32;
        if n <= 1 {
            return Err(SdgError::Runtime(format!(
                "task `{}` is already at one instance",
                task.name
            )));
        }
        let node = stop_victims(inner, &[task_id], &mut guard, n - 1);
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
    let (tasks, mut guards, drain) = pause(inner, state, task_id);
    let migrate_t0 = Instant::now();
    let moved_bytes = match decl.dist {
        Distribution::Partitioned { dim } => merge_partitions(inner, state, dim, p)?,
        _ => fold_partial(inner, state)?,
    };
    ctl.invalidate(state, p - 1);
    let victim = p as u32 - 1;
    let node = stop_victims(inner, &tasks, &mut guards, victim);
    drop(guards);
    ctl.forget_replica(state, victim, &inner.stores);
    inner.record_migration(state, moved_bytes, migrate_t0.elapsed());
    inner.record_scale(task_id, node, ScaleDirection::In);
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
        let cell = std::sync::Arc::new(sdg_checkpoint::cell::StateCell::new_striped(
            decl.ty, stripes, dim, delta,
        ));
        group.push(cell);
        group.len() as u32 - 1
    };
    let node = inner.next_node();
    for task in accessing_sorted(inner, state) {
        inner.spawn_instance(task, new_replica, node)?;
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

/// Repartitions a partitioned SE group from `p` to `p + 1` instances.
fn scale_out_partitioned(
    inner: &Inner,
    ctl: &mut Control,
    state: StateId,
    dim: PartitionDim,
    trigger: TaskId,
) -> SdgResult<MigrationStats> {
    // The guards stay held until the new instances are swapped in:
    // releasing earlier would let producers route by the old partition
    // count against the already-repartitioned state.
    let (tasks, mut guards, drain) = pause(inner, state, trigger);

    // Export all partitions (merging each cell's stripes), merge,
    // re-split to p + 1. Assigning the merged (max) vector to every new
    // partition is exact here: the group was drained, so fresh items
    // always carry higher timestamps than anything merged.
    let migrate_t0 = Instant::now();
    let decl = inner.sdg.state(state)?.clone();
    let (stripes, _, delta) = inner.layout_of(&decl);
    let (all_entries, merged_vector, _) = export_group(inner, state)?;
    let (splits, p) = {
        let cells = inner.cells.read();
        let group = &cells[&state];
        let mut all = StateStore::new(decl.ty);
        all.import_entries(&all_entries)?;
        (all.split_by_hash(group.len() + 1, dim)?, group.len())
    };
    let moved_bytes = {
        // Bytes that change owner under the p → p + 1 resplit; entries not
        // keyed by the partition axis fall back to the new shard's size.
        let new_shard: u64 = splits
            .last()
            .map(|s| s.export_entries().iter().map(|e| e.size() as u64).sum())
            .unwrap_or(0);
        migrated_bytes(&all_entries, decl.ty, dim, p, p + 1, new_shard)
    };

    // Swap the new partitions into the existing cells in place (workers
    // hold Arcs to them) and append the new instance's cell.
    let new_replica = {
        let mut cells = inner.cells.write();
        let group = cells.get_mut(&state).expect("exported above");
        let mut splits = splits.into_iter();
        for cell in group.iter() {
            let store = splits.next().expect("split count = p + 1");
            cell.replace(store, merged_vector.clone())?;
        }
        let cell = std::sync::Arc::new(sdg_checkpoint::cell::StateCell::from_store_striped(
            splits.next().expect("last split"),
            merged_vector,
            stripes,
            dim,
            delta,
        )?);
        group.push(cell);
        group.len() as u32 - 1
    };
    ctl.invalidate(state, p + 1);

    let node = inner.next_node();
    for (i, &task) in tasks.iter().enumerate() {
        inner.spawn_instance_in(task, new_replica, node, Some(&mut guards[i]))?;
    }
    drop(guards);
    inner.record_migration(state, moved_bytes, migrate_t0.elapsed());
    inner.record_scale(trigger, node, ScaleDirection::Out);
    Ok(MigrationStats { drain, moved_bytes })
}

/// Merges every partition (the victim's shard included), re-splits to
/// `p − 1` by the same key hash the dispatchers use, and swaps the pieces
/// into the survivors. The merged-max dedupe vector is exact after the
/// drain, mirroring scale-out. Returns the bytes that changed owner.
fn merge_partitions(inner: &Inner, state: StateId, dim: PartitionDim, p: usize) -> SdgResult<u64> {
    let ty = inner.sdg.state(state)?.ty;
    let (all_entries, merged_vector, victim_bytes) = export_group(inner, state)?;
    let mut all = StateStore::new(ty);
    all.import_entries(&all_entries)?;
    let splits = all.split_by_hash(p - 1, dim)?;
    let mut cells = inner.cells.write();
    let group = cells.get_mut(&state).expect("exported above");
    group.pop().expect("p > 1");
    for (cell, store) in group.iter().zip(splits) {
        cell.replace(store, merged_vector.clone())?;
    }
    Ok(migrated_bytes(
        &all_entries,
        ty,
        dim,
        p,
        p - 1,
        victim_bytes,
    ))
}

/// The accessing tasks of `state`, sorted by id so nested target locks are
/// always taken in a consistent order.
fn accessing_sorted(inner: &Inner, state: StateId) -> Vec<TaskId> {
    let mut tasks: Vec<TaskId> = inner
        .sdg
        .tasks_accessing(state)
        .iter()
        .map(|t| t.id)
        .collect();
    tasks.sort();
    tasks
}

/// Pauses the producers into every task accessing `state`: write-locks
/// their target lists in task-id order, then waits (up to 5 s) until each
/// of those tasks' instances is quiet — mailbox empty, no item
/// mid-processing — so a migration sees a consistent key population.
/// Instances of other tasks are not waited on: a producer blocked on a
/// held guard has nothing in the paused mailboxes. Returns the tasks,
/// their held guards and the wait, which is also logged as `trigger`'s
/// `RepartitionDrain`.
fn pause(
    inner: &Inner,
    state: StateId,
    trigger: TaskId,
) -> (
    Vec<TaskId>,
    Vec<impl DerefMut<Target = Vec<PoolSender>> + '_>,
    Duration,
) {
    let tasks = accessing_sorted(inner, state);
    let guards: Vec<_> = tasks.iter().map(|t| inner.targets[t].write()).collect();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(5);
    // Past the deadline, proceed. That is not safe: an item still queued or
    // mid-handle then lands on a re-split cell whose merged vector may
    // already cover its timestamp, and dedupe drops it. It happens only
    // when a paused actor cannot finish: it sends into another paused task,
    // or every pool thread is blocked on a held guard.
    while !Inner::drained(guards.iter().map(|g| &**g)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let waited = t0.elapsed();
    if let Ok(task) = inner.sdg.task(trigger) {
        inner.obs.record_event(EventKind::RepartitionDrain {
            task: task.name.clone(),
            waited,
        });
    }
    (tasks, guards, waited)
}

/// Exports every cell of `state` (merging stripes), returning all entries,
/// the pointwise-max dedupe vector, and the byte size of the last
/// (victim-candidate) replica's shard.
fn export_group(inner: &Inner, state: StateId) -> SdgResult<(Vec<StateEntry>, VectorTs, u64)> {
    let cells = inner.cells.read();
    let group = cells
        .get(&state)
        .ok_or_else(|| SdgError::NotFound(format!("state {state}")))?;
    let mut all_entries = Vec::new();
    let mut merged_vector = VectorTs::new();
    let mut last_bytes = 0u64;
    for cell in group.iter() {
        let (entries, vector) = cell.export_merged();
        last_bytes = entries.iter().map(|e| e.size() as u64).sum();
        all_entries.extend(entries);
        merged_vector.merge_max(&vector);
    }
    Ok((all_entries, merged_vector, last_bytes))
}

/// Stops the `victim` replica of every task (through the held guards) and
/// unregisters it, returning the node it ran on.
fn stop_victims<G>(inner: &Inner, tasks: &[TaskId], guards: &mut [G], victim: u32) -> u32
where
    G: DerefMut<Target = Vec<PoolSender>>,
{
    let mut node = 0;
    for (i, &task) in tasks.iter().enumerate() {
        if let Some(sender) = guards[i].pop() {
            // `force_send`: the victim's mailbox may be full, and a
            // blocking send while producers wait on the held guards could
            // never get credit.
            let _ = sender.force_send(WorkerMsg::Stop);
        }
        inner.alive.write().remove(&(task, victim));
        if let Some(n) = inner.node_of_instance.write().remove(&(task, victim)) {
            node = n;
        }
    }
    node
}

/// Bytes whose mod-N owner changes when the group resizes from `from` to
/// `to` partitions. Tables and row-partitioned matrices are keyed by the
/// partition axis, so ownership is computed per entry; everything else
/// (column-partitioned matrices, vectors) falls back to `fallback` — the
/// size of the shard that demonstrably moves.
fn migrated_bytes(
    entries: &[StateEntry],
    ty: StateType,
    dim: PartitionDim,
    from: usize,
    to: usize,
    fallback: u64,
) -> u64 {
    let keyed_by_entry =
        ty == StateType::Table || (ty == StateType::Matrix && dim == PartitionDim::Row);
    if !keyed_by_entry || from == 0 || to == 0 {
        return fallback;
    }
    entries
        .iter()
        .map(|e| match decode_from_slice::<Key>(&e.key) {
            Ok(k) if !owner_changes(k.stable_hash(), from, to) => 0,
            // Undecodable keys are counted as moved (conservative).
            _ => e.size() as u64,
        })
        .sum()
}
