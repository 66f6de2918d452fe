//! The reconfiguration control plane: one typed entry point for every
//! runtime topology change.
//!
//! [`crate::deploy::Deployment::reconfigure`] accepts a [`ReconfigRequest`]
//! — scale-out, scale-in, checkpoint, or failure injection — and returns a
//! uniform [`ReconfigReport`] carrying timings, migrated bytes and the
//! resulting instance counts.
//!
//! Scale-in is the elastic counterpart of §3.3's scale-out: the victim
//! replica's input lanes are paused behind the same drain barrier used for
//! repartitioning, its state shard is split by the partitioner's key hash
//! and merged into the surviving replicas' stripes (partitioned SEs), or
//! additively folded into a survivor (partial SEs — gated on the
//! `sdg-verify` merge-soundness certificate), and the removed instance's
//! workers are stopped. Both directions invalidate the affected state's
//! checkpoint chains so `restore_chain` never composes deltas across a
//! repartition boundary, and scale-in deletes the removed replica's
//! checkpoint chunks from every backup store.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sdg_common::codec::decode_from_slice;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{StateId, TaskId};
use sdg_common::obs::EventKind;
use sdg_common::time::VectorTs;
use sdg_common::value::Key;
use sdg_graph::model::Distribution;
use sdg_state::entry::StateEntry;
use sdg_state::partition::{owner_changes, PartitionDim};
use sdg_state::store::{StateStore, StateType};

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

/// Executes `request` against a running deployment.
pub(crate) fn execute(inner: &Inner, request: ReconfigRequest) -> SdgResult<ReconfigReport> {
    let t0 = Instant::now();
    match request {
        ReconfigRequest::ScaleOut { task } => {
            let stats = scale_out(inner, task)?;
            Ok(scale_report(inner, request, task, t0, stats))
        }
        ReconfigRequest::ScaleIn { task } => {
            let stats = scale_in(inner, task)?;
            Ok(scale_report(inner, request, task, t0, stats))
        }
        ReconfigRequest::Checkpoint => {
            inner.checkpoint_all()?;
            let task_instances = inner.targets.values().map(|t| t.read().len() as u32).sum();
            let se_instances = inner.cells.read().values().map(|g| g.len() as u32).sum();
            Ok(ReconfigReport {
                request,
                total: t0.elapsed(),
                drain: Duration::ZERO,
                restore: Duration::ZERO,
                moved_bytes: 0,
                replayed: 0,
                task_instances,
                se_instances,
            })
        }
        ReconfigRequest::FailAndRecover { state, replica } => {
            let recovery = inner.fail_and_recover(state, replica)?;
            let task_instances = inner
                .sdg
                .tasks_accessing(state)
                .iter()
                .map(|t| inner.targets[&t.id].read().len() as u32)
                .sum();
            let se_instances = inner
                .cells
                .read()
                .get(&state)
                .map(|g| g.len() as u32)
                .unwrap_or(0);
            Ok(ReconfigReport {
                request,
                total: t0.elapsed(),
                drain: Duration::ZERO,
                restore: recovery.restore,
                moved_bytes: 0,
                replayed: recovery.replayed,
                task_instances,
                se_instances,
            })
        }
    }
}

fn scale_report(
    inner: &Inner,
    request: ReconfigRequest,
    task: TaskId,
    t0: Instant,
    stats: MigrationStats,
) -> ReconfigReport {
    let task_instances = inner
        .targets
        .get(&task)
        .map(|t| t.read().len() as u32)
        .unwrap_or(0);
    let se_instances = inner
        .sdg
        .task(task)
        .ok()
        .and_then(|t| t.access.as_ref().map(|a| a.state))
        .and_then(|s| inner.cells.read().get(&s).map(|g| g.len() as u32))
        .unwrap_or(0);
    ReconfigReport {
        request,
        total: t0.elapsed(),
        drain: stats.drain,
        restore: Duration::ZERO,
        moved_bytes: stats.moved_bytes,
        replayed: 0,
        task_instances,
        se_instances,
    }
}

/// Adds one instance to `task`, repartitioning or replicating its SE group
/// as its distribution requires.
pub(crate) fn scale_out(inner: &Inner, task_id: TaskId) -> SdgResult<MigrationStats> {
    let task = inner.sdg.task(task_id)?.clone();
    match &task.access {
        None => {
            let replica = inner.targets[&task_id].read().len() as u32;
            let node = inner.next_node();
            inner.spawn_instance(task_id, replica, node)?;
            inner.record_scale(task_id, node, ScaleDirection::Out);
            Ok(MigrationStats::default())
        }
        Some(access) => {
            let state = access.state;
            let dist = inner.sdg.state(state)?.dist;
            match dist {
                Distribution::Local => Err(SdgError::Runtime(format!(
                    "task `{}` accesses local state and cannot scale out",
                    task.name
                ))),
                Distribution::Partial => scale_out_partial(inner, state, task_id),
                Distribution::Partitioned { dim } => {
                    scale_out_partitioned(inner, state, dim, task_id)
                }
            }
        }
    }
}

/// Removes one instance from `task`, live-migrating the victim replica's
/// state into the survivors.
pub(crate) fn scale_in(inner: &Inner, task_id: TaskId) -> SdgResult<MigrationStats> {
    let task = inner.sdg.task(task_id)?.clone();
    match &task.access {
        None => {
            let mut guard = inner.targets[&task_id].write();
            if guard.len() <= 1 {
                return Err(SdgError::Runtime(format!(
                    "task `{}` is already at one instance",
                    task.name
                )));
            }
            let victim = guard.len() as u32 - 1;
            let sender = guard.pop().expect("len > 1");
            // `force_send`: the victim's mailbox may be full, and a blocking
            // send from the control plane while producers hold this write
            // guard could never get credit.
            let _ = sender.force_send(WorkerMsg::Stop);
            inner.alive.write().remove(&(task_id, victim));
            let node = inner
                .node_of_instance
                .write()
                .remove(&(task_id, victim))
                .unwrap_or(0);
            drop(guard);
            inner.record_scale(task_id, node, ScaleDirection::In);
            Ok(MigrationStats::default())
        }
        Some(access) => {
            let state = access.state;
            let dist = inner.sdg.state(state)?.dist;
            match dist {
                Distribution::Local => Err(SdgError::Runtime(format!(
                    "task `{}` accesses local state and cannot scale in",
                    task.name
                ))),
                Distribution::Partial => scale_in_partial(inner, state, task_id),
                Distribution::Partitioned { dim } => {
                    scale_in_partitioned(inner, state, dim, task_id)
                }
            }
        }
    }
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

/// Folds the last partial replica into replica 0 and removes it, together
/// with the victim instance of every accessing task.
///
/// Refused when the SE's `@Partial` merge is not certified sound by the
/// attached `sdg-verify` report: the fold applies the merge function
/// outside its usual read-all barrier, so an unsound merge could corrupt
/// the surviving aggregate. A graph without a report is trusted.
fn scale_in_partial(inner: &Inner, state: StateId, trigger: TaskId) -> SdgResult<MigrationStats> {
    let decl = inner.sdg.state(state)?.clone();
    if let Some(cert) = inner.sdg.verify.as_deref().and_then(|r| r.se(&decl.name)) {
        if !cert.merge_sound {
            return Err(SdgError::Runtime(format!(
                "scale-in of `{}` refused: its @Partial merge is not certified sound \
                 ({}); folding the removed replica into a survivor could corrupt the \
                 aggregate. Fix the merge.",
                decl.name,
                if cert.violations.is_empty() {
                    "certificate withheld".to_string()
                } else {
                    cert.violations.join(", ")
                }
            )));
        }
    }

    let tasks = accessing_sorted(inner, state);
    let mut guards: Vec<_> = tasks.iter().map(|t| inner.targets[t].write()).collect();
    let p = inner.cells.read().get(&state).map(|g| g.len()).unwrap_or(0);
    if p <= 1 {
        return Err(SdgError::Runtime(format!(
            "state `{}` is already at one replica",
            decl.name
        )));
    }
    let drain = drain_barrier(inner, &guards);
    record_drain(inner, trigger, drain);

    // Fold the victim's partial aggregate (and its dedupe watermarks) into
    // replica 0 — pointwise addition preserves the element-wise-sum
    // invariant of partial groups.
    let migrate_t0 = Instant::now();
    let moved_bytes = {
        let mut cells = inner.cells.write();
        let group = cells.get_mut(&state).expect("checked above");
        let victim = group.pop().expect("p > 1");
        let (entries, vector) = victim.export_merged();
        let moved: u64 = entries.iter().map(|e| e.size() as u64).sum();
        group[0].merge_additive(&entries, &vector)?;
        moved
    };
    inner.invalidate_chains(state);

    let victim = p as u32 - 1;
    let node = stop_victims(inner, &tasks, &mut guards, victim);
    drop(guards);
    inner.forget_replica(state, victim);
    inner.record_migration(state, moved_bytes, migrate_t0.elapsed());
    inner.record_scale(trigger, node, ScaleDirection::In);
    Ok(MigrationStats { drain, moved_bytes })
}

/// Repartitions a partitioned SE group from `p` to `p + 1` instances.
fn scale_out_partitioned(
    inner: &Inner,
    state: StateId,
    dim: PartitionDim,
    trigger: TaskId,
) -> SdgResult<MigrationStats> {
    let tasks = accessing_sorted(inner, state);

    // Pause producers and wait for in-flight items to drain so the
    // repartitioning sees a consistent key population. The guards stay
    // held until the new instances are swapped in: releasing earlier
    // would let producers route by the old partition count against the
    // already-repartitioned state.
    let mut guards: Vec<_> = tasks.iter().map(|t| inner.targets[t].write()).collect();
    let drain = drain_barrier(inner, &guards);
    record_drain(inner, trigger, drain);

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
    inner.invalidate_chains(state);

    let node = inner.next_node();
    for (i, &task) in tasks.iter().enumerate() {
        inner.spawn_instance_in(task, new_replica, node, Some(&mut guards[i]))?;
    }
    drop(guards);
    inner.record_migration(state, moved_bytes, migrate_t0.elapsed());
    inner.record_scale(trigger, node, ScaleDirection::Out);
    Ok(MigrationStats { drain, moved_bytes })
}

/// Repartitions a partitioned SE group from `p` to `p − 1` instances,
/// splitting the victim's shard by key hash into the survivors.
fn scale_in_partitioned(
    inner: &Inner,
    state: StateId,
    dim: PartitionDim,
    trigger: TaskId,
) -> SdgResult<MigrationStats> {
    let tasks = accessing_sorted(inner, state);
    let mut guards: Vec<_> = tasks.iter().map(|t| inner.targets[t].write()).collect();
    let p = inner.cells.read().get(&state).map(|g| g.len()).unwrap_or(0);
    if p <= 1 {
        let decl = inner.sdg.state(state)?;
        return Err(SdgError::Runtime(format!(
            "state `{}` is already at one partition",
            decl.name
        )));
    }
    let drain = drain_barrier(inner, &guards);
    record_drain(inner, trigger, drain);

    // Merge every partition (the victim's shard included), re-split to
    // p − 1 by the same key hash the dispatchers use, and swap the pieces
    // into the survivors. The merged-max dedupe vector is exact after the
    // drain, mirroring scale-out.
    let migrate_t0 = Instant::now();
    let decl = inner.sdg.state(state)?.clone();
    let (all_entries, merged_vector, victim_bytes) = export_group(inner, state)?;
    let moved_bytes = migrated_bytes(&all_entries, decl.ty, dim, p, p - 1, victim_bytes);
    {
        let mut cells = inner.cells.write();
        let group = cells.get_mut(&state).expect("exported above");
        let mut all = StateStore::new(decl.ty);
        all.import_entries(&all_entries)?;
        let splits = all.split_by_hash(p - 1, dim)?;
        group.pop().expect("p > 1");
        for (cell, store) in group.iter().zip(splits) {
            cell.replace(store, merged_vector.clone())?;
        }
    }
    inner.invalidate_chains(state);

    let victim = p as u32 - 1;
    let node = stop_victims(inner, &tasks, &mut guards, victim);
    drop(guards);
    inner.forget_replica(state, victim);
    inner.record_migration(state, moved_bytes, migrate_t0.elapsed());
    inner.record_scale(trigger, node, ScaleDirection::In);
    Ok(MigrationStats { drain, moved_bytes })
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

/// Waits (up to 5 s) until the held queues are empty and nothing is
/// mid-processing, so a migration sees a consistent key population.
fn drain_barrier<G>(inner: &Inner, guards: &[G]) -> Duration
where
    G: std::ops::Deref<Target = Vec<PoolSender>>,
{
    let drain_t0 = Instant::now();
    let deadline = drain_t0 + Duration::from_secs(5);
    loop {
        let queued: usize = guards.iter().flat_map(|g| g.iter()).map(|s| s.len()).sum();
        if queued == 0 && inner.in_flight.load(Ordering::Acquire) == 0 {
            break;
        }
        if Instant::now() >= deadline {
            break; // Proceed; duplicate filtering keeps this safe.
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    drain_t0.elapsed()
}

fn record_drain(inner: &Inner, trigger: TaskId, waited: Duration) {
    if let Ok(task) = inner.sdg.task(trigger) {
        inner.obs.record_event(EventKind::RepartitionDrain {
            task: task.name.clone(),
            waited,
        });
    }
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
    G: std::ops::DerefMut<Target = Vec<PoolSender>>,
{
    let mut node = 0;
    for (i, &task) in tasks.iter().enumerate() {
        if let Some(sender) = guards[i].pop() {
            // See `scale_in`: Stop must bypass the mailbox cap while the
            // target write guards are held.
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
