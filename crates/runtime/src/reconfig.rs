//! The control plane: the typed entry point for every topology change,
//! and the sequenced operations behind it.
//!
//! [`crate::deploy::Deployment::reconfigure`] accepts a [`ReconfigRequest`]
//! — scale-out, scale-in, checkpoint, or failure injection — and returns a
//! uniform [`ReconfigReport`] carrying timings, migrated bytes and the
//! resulting instance counts. The control thread (`control::start`)
//! submits its interval checkpoints and the scaling monitor's requests
//! through the same entry, and its supervisor calls `recover`. Every operation here takes
//! `&mut Control`, so it runs holding the control sequencer
//! (`Inner::control`): checkpoints, migrations and recoveries never
//! interleave.
//!
//! Every scale, recovery and respawn pauses through a `Quiesced`: the
//! route of the recovery unit it changes (an SE group, or a stateless
//! task) and of every unit upstream of it. Only a `Quiesced` kills, spawns
//! or stops instances, and dropping it resumes the routes. The route is
//! the only index of an SE's instances, so a spawn carries the replica's
//! cell: an empty one (partial scale-out, or a restore with no chain),
//! the restored one, or the one a repartition added; a stop takes the
//! last replica's cell with it. A scale of a
//! stateful group waits until the unit's instances are quiet and refuses
//! to run over an instance that has failed and awaits recovery
//! (`Quiesced::drain`); the other operations move no live state and do not
//! wait (`Quiesced::pause`).
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

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdg_checkpoint::backup::{BackupSet, ChunkReader};
use sdg_checkpoint::cell::StateCell;
use sdg_checkpoint::coordinator::{take_checkpoint_with, CheckpointOptions};
use sdg_checkpoint::recovery::{restore_chain_resilient, RestoreOptions};
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{StateId, TaskId};
use sdg_common::obs::EventKind;
use sdg_common::time::VectorTs;
use sdg_graph::model::{Dispatch, Distribution, Sdg};
use sdg_state::store::StateType;

use crate::control::{se_instance_id, Control};
use crate::deploy::{Inner, Unit};
use crate::fault::RecoveryUnit;
use crate::item::{lane, route_hash, Item};
use crate::scaling::ScaleDirection;
use crate::worker::{state_cells, Paused, WorkerMsg};

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
    /// Any task of a state group names the whole group.
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
    let instances = |unit: &Unit| unit.route.read().len() as u32;
    let te_instances = |unit: &Unit| unit.tasks.len() as u32 * instances(unit);
    let replicas = |unit: &Unit| unit.state.map_or(0, |_| instances(unit));
    let (mut stats, mut restore, mut replayed) = (MigrationStats::default(), Duration::ZERO, 0);
    let (task_instances, se_instances) = match request {
        ReconfigRequest::ScaleOut { task } | ReconfigRequest::ScaleIn { task } => {
            let direction = match request {
                ReconfigRequest::ScaleOut { .. } => ScaleDirection::Out,
                _ => ScaleDirection::In,
            };
            stats = scale(inner, ctl, task, direction)?;
            let unit = inner.units.unit(task);
            (instances(unit), replicas(unit))
        }
        ReconfigRequest::Checkpoint => {
            checkpoint_all(inner, ctl)?;
            let tasks = inner.units.iter().map(te_instances).sum();
            (tasks, inner.units.iter().map(replicas).sum())
        }
        ReconfigRequest::FailAndRecover { state, replica } => {
            (restore, replayed) = fail_and_recover(inner, ctl, state, replica)?;
            let unit = inner.units.of_state(state)?;
            (te_instances(unit), replicas(unit))
        }
    };
    Ok(ReconfigReport {
        request,
        total: t0.elapsed(),
        drain: stats.drain,
        restore,
        moved_bytes: stats.moved_bytes,
        replayed,
        task_instances,
        se_instances,
    })
}

/// The paused route of one recovery unit and of every unit upstream of
/// it: no request enters the pipeline that feeds the unit, and a send into
/// any of the routes from inside the pool is staged.
///
/// Apart from `Deployment::start`, only a `Quiesced` takes route write
/// guards ([`crate::worker::Route::write`]), so no control operation can
/// change a unit's instances without pausing its producers. Each route is
/// taken once: [`Unit::upstream`] leaves out the unit itself, which the
/// upstream cone of a self-feeding SE group reaches. Dropping it resumes
/// the unit, then the upstream units (fields drop in declaration order),
/// each flushing its staged sends by the instances as they then stand: by
/// a scale's new count, and stamped above everything a recovery replayed.
pub(crate) struct Quiesced<'a> {
    inner: &'a Inner,
    unit: &'a Unit,
    /// The unit's instances.
    route: Paused<'a>,
    /// The routes of the units upstream of it, in unit order, held until
    /// the drop.
    _upstream: Vec<Paused<'a>>,
}

impl<'a> Quiesced<'a> {
    /// Pauses `unit`, then every unit upstream of it in unit order, and
    /// returns at once.
    ///
    /// Recovery pauses this way. It does not wait for quiet: the instance
    /// it replaces is killed and its mailbox drains as discards, and the
    /// restored cut plus replay rebuild its state, so no item in flight
    /// needs to land first. Respawns, stateless scales and a partial SE's
    /// scale-out move no live state either.
    fn pause(inner: &'a Inner, unit: &'a Unit) -> Self {
        let route = unit.route.write();
        let upstream = unit.upstream.iter();
        Quiesced {
            inner,
            unit,
            route,
            _upstream: upstream.map(|&u| inner.units[u].route.write()).collect(),
        }
    }

    /// Pauses `unit` as [`Quiesced::pause`] does, then waits
    /// until each of its instances is quiet — mailbox empty, no item
    /// mid-processing — so a migration sees a consistent key population.
    ///
    /// The wait has no deadline, because it always ends: a send into a
    /// paused route from inside the pool is staged rather than waited on,
    /// so no pool thread is held, and a paused instance that forwards into
    /// another paused unit still drains its own mailbox. Instances of other
    /// units are not waited on. Returns the wait too, which is also logged
    /// as `trigger`'s `RepartitionDrain`.
    ///
    /// # Errors
    ///
    /// Refuses when one of the paused instances has failed: see
    /// [`Quiesced::refuse_failed`].
    fn drain(inner: &'a Inner, unit: &'a Unit, trigger: TaskId) -> SdgResult<(Self, Duration)> {
        let paused = Self::pause(inner, unit);
        let t0 = Instant::now();
        while !Inner::drained(&paused.route) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let waited = t0.elapsed();
        let task = inner.task_name(trigger);
        inner
            .obs
            .record_event(EventKind::RepartitionDrain { task, waited });
        // Checked after the drain: by then no paused actor can still fail.
        paused.refuse_failed()?;
        Ok((paused, waited))
    }

    /// Refuses to scale while an instance of the unit has failed and
    /// awaits recovery. A scale would move or retire the dead instance's
    /// state and slot, so the recovery that follows would find neither;
    /// the caller asks again once the supervisor (or a `FailAndRecover`)
    /// has recovered it.
    fn refuse_failed(&self) -> SdgResult<()> {
        if self.route.iter().any(|i| i.tx.is_closed()) {
            return Err(SdgError::Runtime(format!(
                "a failed instance of `{}` awaits recovery",
                self.inner.task_name(self.unit.tasks[0])
            )));
        }
        Ok(())
    }

    /// Kills instance `replica` of the unit: its mailbox drains as
    /// discards.
    ///
    /// # Errors
    ///
    /// `NotFound` when the unit has no such instance.
    fn kill(&self, replica: u32) -> SdgResult<()> {
        let old = (self.route.get(replica as usize))
            .ok_or_else(|| SdgError::NotFound(format!("instance {}", self.unit.label(replica))))?;
        old.alive.store(false, Ordering::Release);
        Ok(())
    }

    /// Spawns instance `replica` of the unit on `node` and on `cell` (the
    /// replica's SE instance; `None` in a stateless unit), appended or in
    /// place of the instance it replaces.
    fn spawn(&mut self, replica: u32, node: u32, cell: Option<Arc<StateCell>>) -> SdgResult<()> {
        (self.inner).spawn_instance(self.unit, replica, node, cell, &mut self.route)
    }

    /// Stops the unit's last instance and returns the node it ran on.
    fn stop_last(&mut self) -> u32 {
        let Some(victim) = self.route.pop() else {
            return 0;
        };
        // `force_send`: `Stop` must land whatever the mailbox holds.
        let _ = victim.tx.force_send(0, WorkerMsg::Stop);
        victim.node
    }
}

/// Takes every replica of every SE that has a unit.
fn checkpoint_all(inner: &Inner, ctl: &mut Control) -> SdgResult<()> {
    (inner.units.iter()).try_for_each(|unit| checkpoint_state(inner, ctl, unit))
}

/// Takes every replica of `unit`'s SE (none in a stateless unit), each a
/// delta of its dirty chunks unless its record asks for a base.
fn checkpoint_state(inner: &Inner, ctl: &mut Control, unit: &Unit) -> SdgResult<()> {
    let Some(state) = unit.state else {
        return Ok(());
    };
    for (replica, cell) in state_cells(&unit.route.read()).iter().enumerate() {
        let replica = replica as u32;
        let seq = ctl.next_seq();
        let label = unit.label(replica);
        let base = ctl.needs_base(state, replica);
        inner.obs.record_event(EventKind::CheckpointBegin {
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
            &inner.stores,
            &inner.cfg.checkpoint,
            Some(inner.obs.checkpoints()),
            CheckpointOptions { base },
        )?;
        inner.obs.record_event(EventKind::CheckpointBackup {
            instance: label.clone(),
            seq,
            bytes: set.state_bytes as u64,
        });
        inner.obs.record_event(EventKind::CheckpointConsolidate {
            instance: label,
            seq,
        });
        (inner.obs.state_with_id(&unit.name, Some(state)))
            .checkpoints
            .inc();
        // Trim upstream buffers covered by this checkpoint.
        trim_for(inner, unit, replica, &set);
        ctl.record(state, replica, set, &inner.stores);
    }
    Ok(())
}

/// Trims buffers into replica `replica` of `unit`'s tasks using the
/// checkpoint's vector watermarks.
fn trim_for(inner: &Inner, unit: &Unit, replica: u32, set: &BackupSet) {
    for &task in &unit.tasks {
        for (edge, _) in inner.in_edges(task) {
            for (src, buf) in inner.buffers.buffers_into(edge, replica) {
                buf.lock().trim(set.vector.get(lane(edge, src)));
            }
        }
    }
}

/// Executes one recovery on behalf of the supervisor.
pub(crate) fn recover(inner: &Inner, ctl: &mut Control, unit: RecoveryUnit) -> SdgResult<()> {
    let replica = unit.replica;
    let unit = &inner.units[unit.unit];
    match unit.state {
        Some(state) => fail_and_recover(inner, ctl, state, replica).map(|_| ()),
        None => respawn_stateless(inner, ctl, unit, replica),
    }
}

/// Kills SE instance `(state, replica)` with its accessing TE instances and
/// recovers it (§5): restores the latest checkpoint chain and replays the
/// upstream buffers past it. Returns the restore time and the items
/// replayed.
fn fail_and_recover(
    inner: &Inner,
    ctl: &mut Control,
    state: StateId,
    replica: u32,
) -> SdgResult<(Duration, usize)> {
    let t0 = Instant::now();
    let unit = inner.units.of_state(state)?;
    let label = unit.label(replica);
    inner.obs.record_event(EventKind::FailureInjected {
        instance: label.clone(),
    });
    let chain = ctl.recovery_chain(state, replica, inner.cfg.checkpoint.enabled)?;

    // Pause the affected tasks and the tasks upstream of them. The pause
    // is held through restore, respawn AND replay: if new traffic ran
    // ahead of the replayed (lower-timestamped) items, the duplicate
    // filter would wrongly discard the replay. Sends made meanwhile from
    // inside the pool are staged, and the pause's drop flushes them after
    // the replay, stamped above it. The old instances die first.
    let mut paused = Quiesced::pause(inner, unit);
    paused.kill(replica)?;

    // Restore state from the m backup stores, composing the base
    // generation with any deltas taken since it. The resilient restore
    // routes around corrupt or missing chunks by falling back to the
    // newest intact prefix of the chain; with no chain at all (never
    // checkpointed), recovery rebuilds from an empty store and a zero
    // watermark — replay then reconstructs the state from scratch.
    let restore_t0 = Instant::now();
    let (stripes, dim, delta) = inner.layout_of(inner.sdg.state(state)?);
    // The restore decodes every entry straight into the stripe that
    // owns its key, each stripe with the exact vector recorded at
    // checkpoint time when the stripe layout is unchanged (else the
    // cut's min vector on every stripe, which is safe but replays
    // more).
    let cell = match &chain {
        Some(chain) => {
            let restored = restore_chain_resilient(
                chain,
                &inner.stores,
                1,
                RestoreOptions {
                    stripes,
                    dim,
                    ..RestoreOptions::default()
                },
                Some(inner.obs.checkpoints()),
            )?;
            if !restored.fallback_errors.is_empty() {
                // Corrupt generations were dropped: surface each loss,
                // then cut the recorded chain to the prefix that
                // actually restored.
                for e in &restored.fallback_errors {
                    inner.obs.faults().chunks_corrupt.inc();
                    inner.obs.record_event(EventKind::ChunkCorrupt {
                        instance: label.clone(),
                        error: e.to_string(),
                    });
                }
                inner
                    .obs
                    .recovery()
                    .chain_fallbacks
                    .add(restored.fallback_errors.len() as u64);
                ctl.truncate(state, replica, restored.used + 1);
            }
            let parts = restored.parts.into_iter().next().expect("n=1 restore");
            Arc::new(StateCell::from_parts(parts, dim, delta))
        }
        None => inner.empty_cell(state)?,
    };
    let (floor, frontier) = (cell.vector(), cell.frontier());
    let restore = restore_t0.elapsed();
    inner.obs.record_event(EventKind::RecoveryRestored {
        instance: label.clone(),
        took: restore,
    });

    // Respawn the replica on a fresh node and on the restored cell,
    // swapping it in through the held pause.
    paused.spawn(replica, ctl.next_node(), Some(cell))?;

    // Replay from upstream output buffers past the restored watermarks,
    // still before any producer may send: replayed items must be first
    // in every lane so their (older) timestamps pass the filter.
    let mut replayed = 0usize;
    let sender = &paused.route[replica as usize].tx;
    for (slot, &task) in paused.unit.tasks.iter().enumerate() {
        for (edge, dispatch) in inner.in_edges(task) {
            let watermarks = replay_watermarks(&dispatch, &floor, &frontier);
            for (src, buf) in inner.buffers.buffers_into(edge, replica) {
                let wm = watermarks.get(lane(edge, src));
                for buffered in buf.lock().replay_after(wm) {
                    let mut item = Item::from_buffered(edge, src, buffered);
                    item.route = route_hash(&dispatch, &item.payload)?;
                    // Replay runs under the pause: bypass the cap (see
                    // `PoolSender::force_send`).
                    sender
                        .force_send(slot, WorkerMsg::Item(item))
                        .map_err(|_| SdgError::Runtime("replay channel closed".into()))?;
                    replayed += 1;
                }
            }
        }
    }
    drop(paused);
    inner.obs.checkpoints().replayed.add(replayed as u64);
    inner.obs.record_event(EventKind::RecoveryReplayed {
        instance: label.clone(),
        items: replayed as u64,
    });
    inner.obs.record_event(EventKind::RecoveryComplete {
        instance: label,
        took: t0.elapsed(),
    });
    Ok((restore, replayed))
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

/// Replaces a dead stateless instance with a fresh one on a new node.
///
/// There is no state to restore and nothing to replay: the items in
/// flight at the dead instance die with it, and no lane into it logs
/// (see `Inner::logs_into`). This is §5's model: durability comes
/// from the stateful consumers' checkpoints plus replay of the lanes
/// into them, so the respawn restores liveness, not the lost items.
fn respawn_stateless(inner: &Inner, ctl: &mut Control, unit: &Unit, replica: u32) -> SdgResult<()> {
    let mut paused = Quiesced::pause(inner, unit);
    paused.kill(replica)?;
    paused.spawn(replica, ctl.next_node(), None)
}

/// Adds (`Out`) or removes (`In`) one instance of `task`. A stateless
/// task spawns or stops one instance. A stateful one resizes its SE group
/// ([`migrate`]): a partitioned group is re-placed onto p ± 1 instances,
/// a partial group folds its last replica into replica 0, or grows by an
/// empty one ([`scale_out_partial`]).
fn scale(
    inner: &Inner,
    ctl: &mut Control,
    task_id: TaskId,
    direction: ScaleDirection,
) -> SdgResult<MigrationStats> {
    let task = inner.sdg.task(task_id)?;
    let out = direction == ScaleDirection::Out;
    let unit = inner.units.unit(task_id);
    let Some(state) = unit.state else {
        let mut paused = Quiesced::pause(inner, unit);
        let n = paused.route.len();
        let node = if out {
            let node = ctl.next_node();
            paused.spawn(n as u32, node, None)?;
            node
        } else if n <= 1 {
            return Err(SdgError::Runtime(format!(
                "task `{}` is already at one instance",
                task.name
            )));
        } else {
            paused.refuse_failed()?;
            paused.stop_last()
        };
        drop(paused);
        record_scale(inner, task_id, node, direction);
        return Ok(MigrationStats::default());
    };
    let decl = inner.sdg.state(state)?;
    let part = match decl.dist {
        Distribution::Local => {
            let way = if out { "out" } else { "in" };
            return Err(SdgError::Runtime(format!(
                "task `{}` accesses local state and cannot scale {way}",
                task.name
            )));
        }
        Distribution::Partial if out => return scale_out_partial(inner, ctl, state, task_id),
        Distribution::Partial => {
            check_partial_merge(&inner.sdg, &decl.name)?;
            "replica"
        }
        Distribution::Partitioned { .. } => "partition",
    };
    let p = unit.route.read().len();
    if out {
        migrate(inner, ctl, state, task_id, p + 1)
    } else if p <= 1 {
        Err(SdgError::Runtime(format!(
            "state `{}` is already at one {part}",
            decl.name
        )))
    } else {
        migrate(inner, ctl, state, task_id, p - 1)
    }
}

/// Moves the SE group of `state` from its `p` instances to `to = p ± 1`:
/// drains the accessing tasks ([`Quiesced::drain`]), re-places a
/// partitioned group ([`repartition`]) or folds a partial group's last
/// replica into replica 0, spawns or stops the accessing tasks' instance
/// `max(p, to) − 1`, and ends with a base take of every replica.
fn migrate(
    inner: &Inner,
    ctl: &mut Control,
    state: StateId,
    trigger: TaskId,
    to: usize,
) -> SdgResult<MigrationStats> {
    // The pause is held until the instances are swapped: releasing
    // earlier would let producers route by the old partition count
    // against the already-moved state. Its drop flushes the sends staged
    // meanwhile by the new count.
    let unit = inner.units.of_state(state)?;
    let (mut paused, drain) = Quiesced::drain(inner, unit, trigger)?;
    let migrate_t0 = Instant::now();
    let cells = state_cells(&paused.route);
    let p = cells.len();
    let (moved_bytes, added) = match inner.sdg.state(state)?.dist {
        Distribution::Partitioned { .. } => repartition(inner, state, &cells, to)?,
        _ => (fold_partial(&cells)?, None),
    };
    ctl.invalidate(state, to);
    let (node, direction) = if to > p {
        let node = ctl.next_node();
        paused.spawn(p as u32, node, added)?;
        (node, ScaleDirection::Out)
    } else {
        ctl.forget_replica(state, to as u32, &inner.stores);
        (paused.stop_last(), ScaleDirection::In)
    };
    drop(paused);
    record_migration(inner, unit, moved_bytes, migrate_t0.elapsed());
    record_scale(inner, trigger, node, direction);
    // The migration emptied every record and left every tracked chunk
    // dirty, so these takes are bases: each chain is recoverable again
    // before the sequencer is released. A failed take does not fail the
    // scale; its replica keeps the empty record, and its recovery is
    // refused until the next take.
    if inner.cfg.checkpoint.enabled {
        let _ = checkpoint_state(inner, ctl, unit);
    }
    Ok(MigrationStats { drain, moved_bytes })
}

/// Adds one replica to a partial SE group: a fresh (empty) partial
/// instance plus one new instance of every accessing task.
fn scale_out_partial(
    inner: &Inner,
    ctl: &mut Control,
    state: StateId,
    trigger: TaskId,
) -> SdgResult<MigrationStats> {
    let mut paused = Quiesced::pause(inner, inner.units.of_state(state)?);
    let (replica, node) = (paused.route.len() as u32, ctl.next_node());
    paused.spawn(replica, node, Some(inner.empty_cell(state)?))?;
    drop(paused);
    record_scale(inner, trigger, node, ScaleDirection::Out);
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
/// into replica 0 of `group` — pointwise addition preserves the
/// element-wise-sum invariant of partial groups; the caller then stops
/// the last replica. Returns the bytes moved.
fn fold_partial(group: &[Arc<StateCell>]) -> SdgResult<u64> {
    let victim = group.last().expect("p > 1");
    let (entries, vector) = victim.export_merged();
    group[0].merge_additive(&entries, &vector)?;
    Ok(entries.iter().map(|e| e.size() as u64).sum())
}

/// Re-places every entry of the partitioned SE `state`, whose instances
/// are `group`, onto `to` instances, the way a restore places a
/// checkpoint.
///
/// Each instance exports its entries once, and one [`ChunkReader`] puts
/// every entry straight into its final stripe by
/// [`KeyLayout::shard`](sdg_state::partition::KeyLayout::shard), the rule
/// the dispatchers route by. Survivors
/// install their new stripes in place, because workers hold their cells;
/// an added instance gets a new cell, returned for the caller to spawn,
/// and a removed one (the last) is left for the caller to stop. Every
/// stripe gets the group's pointwise-max vector, which is exact after the
/// drain: fresh items carry higher timestamps than anything placed.
/// Returns the bytes placed on an instance other than the one that
/// exported them, and the added cell.
fn repartition(
    inner: &Inner,
    state: StateId,
    group: &[Arc<StateCell>],
    to: usize,
) -> SdgResult<(u64, Option<Arc<StateCell>>)> {
    let decl = inner.sdg.state(state)?;
    if decl.ty == StateType::Vector {
        return Err(SdgError::State(format!(
            "dense vector `{}` cannot be partitioned; declare it @Partial",
            decl.name
        )));
    }
    let (stripes, dim, delta) = inner.layout_of(decl);
    let mut reader = ChunkReader::new(decl.ty, to, stripes, dim);
    let mut vector = VectorTs::new();
    let mut moved = 0;
    for (i, cell) in group.iter().enumerate() {
        let (entries, cell_vector) = cell.export_merged();
        vector.merge_max(&cell_vector);
        moved += reader.place(i, &entries)?;
    }
    let mut placed = reader.finish().into_iter();
    for (cell, stores) in group.iter().zip(placed.by_ref()) {
        cell.install(stores, &vector);
    }
    let added = placed.next().map(|stores| {
        let parts = stores.into_iter().map(|s| (s, vector.clone())).collect();
        Arc::new(StateCell::from_parts(parts, dim, delta))
    });
    Ok((moved, added))
}

/// Records one scale event in the obs log and the reconfig counters. A
/// scale-out is named after the task asked to grow (the scaling monitor
/// names the one whose queued items triggered it). A scale-in resizes a
/// whole recovery unit and no task's load asks for it, so it is named
/// after the unit: the SE of a state group, or the stateless task.
fn record_scale(inner: &Inner, task: TaskId, node: u32, direction: ScaleDirection) {
    let unit = inner.units.unit(task);
    let instances = unit.route.read().len() as u32;
    let name = match direction {
        ScaleDirection::In => unit.name.clone(),
        ScaleDirection::Out => inner.task_name(task),
    };
    let (task, counters) = (name, inner.obs.reconfig());
    let (event, counter) = match direction {
        ScaleDirection::Out => (
            EventKind::ScaleOut {
                task,
                instances,
                node,
            },
            &counters.scale_outs,
        ),
        ScaleDirection::In => (
            EventKind::ScaleIn {
                task,
                instances,
                node,
            },
            &counters.scale_ins,
        ),
    };
    inner.obs.record_event(event);
    counter.inc();
}

/// Records one state-migration episode of `unit`'s SE (bytes that changed
/// SE owner).
fn record_migration(inner: &Inner, unit: &Unit, bytes: u64, took: Duration) {
    let state = unit.name.clone();
    inner
        .obs
        .record_event(EventKind::StateMigrated { state, bytes, took });
    inner.obs.reconfig().migrated_bytes.record(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::ids::EdgeId;
    use sdg_common::value::Key;
    use sdg_state::partition::PartitionDim;

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
}
