//! The checkpoint protocol (§5, "State checkpointing").
//!
//! Every take writes one *generation* in the configured chunk space
//! (`Key::stable_hash() % chunks`): a **base** when it rewrites every chunk
//! that holds state, otherwise a **delta** of the chunks dirtied since the
//! previous completed take. A cell that tracks no dirty chunks writes a
//! base on every take.
//!
//! Asynchronous mode follows the paper's five steps:
//!
//! 1. under a short lock (all stripes at once, forming one consistent
//!    cut): flag each stripe's shard dirty (O(1) snapshot), copy the
//!    stripe vectors, and take the dirty-chunk set. The caller's
//!    output-buffer capture also runs here and its entries pass through to
//!    the [`BackupSet`] by refcount, unencoded. The runtime passes an
//!    empty one: its upstream buffers live in a registry that survives an
//!    instance kill, and recovery replays from that registry directly;
//! 2. processing resumes immediately against the dirty overlays;
//! 3. off the processing path, a serialisation thread pool encodes the
//!    generation's chunks (Fig. 4 step B1–B2): each thread walks a share of
//!    the stripe snapshots and encodes every wanted entry once, straight
//!    into its chunk's frame buffer ([`ChunkWriter`]). The snapshots are
//!    released as soon as they are encoded, so step 5 folds the overlays
//!    into unshared bases in place, at a cost proportional to the writes
//!    made during the take;
//! 4. chunks stream to the `m` backup stores by `chunk_id % m` (step B3),
//!    keeping a chunk's location stable across generations;
//! 5. under a short lock: consolidate the dirty overlays into the bases.
//!
//! Synchronous mode runs the same steps while holding the locks for the
//! entire procedure — the "stop-the-world" behaviour of Naiad and SEEP
//! that Fig. 12 compares against. Synchronous checkpoints are always bases.

use std::sync::Arc;
use std::time::Instant;

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, InstanceId};
use sdg_common::obs::CheckpointInstruments;
use sdg_common::time::VectorTs;
use sdg_state::store::{StateSnapshot, StateType};

use crate::backup::{BackupSet, BackupStore, ChunkKey, ChunkWriter, DeltaMeta, Frame};
use crate::buffer::BufferedItem;
use crate::cell::{CellInner, StateCell};
use crate::config::CheckpointConfig;

/// Per-checkpoint policy knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointOptions {
    /// Take a base generation even when the cell's dirty chunks would
    /// produce a delta: the runtime asks for one when a migration broke
    /// the chain or the accumulated deltas outgrew the compaction
    /// threshold.
    pub base: bool,
}

/// Takes one checkpoint of `cell`, writing chunks to `stores`.
///
/// `capture_outputs` is invoked inside the initiation lock; whatever it
/// returns is kept, as is, in [`BackupSet::out_buffers`]. Callers whose
/// buffers outlive the instance (the runtime's) pass `Vec::new`.
///
/// Returns the [`BackupSet`] describing where everything landed.
///
/// # Errors
///
/// Fails if a checkpoint is already in progress on the cell, if `stores`
/// is empty, or if a chunk write fails.
pub fn take_checkpoint(
    cell: &StateCell,
    instance: InstanceId,
    seq: u64,
    capture_outputs: impl FnOnce() -> Vec<(EdgeId, Vec<BufferedItem>)>,
    stores: &[Arc<BackupStore>],
    cfg: &CheckpointConfig,
) -> SdgResult<BackupSet> {
    take_checkpoint_with(
        cell,
        instance,
        seq,
        capture_outputs,
        stores,
        cfg,
        None,
        CheckpointOptions::default(),
    )
}

/// [`take_checkpoint`] with an optional observability probe and explicit
/// [`CheckpointOptions`].
///
/// When `obs` is given, the protocol's phase timings land in its
/// histograms — `snapshot_ns` (lock-held initiation), `persist_ns`
/// (off-path serialise + backup), `consolidate_ns` (lock-held overlay
/// fold), or `sync_ns` (the whole stop-the-world span in synchronous
/// mode) — and `taken`/`deltas`/`failed`/`bytes` are counted.
#[allow(clippy::too_many_arguments)]
pub fn take_checkpoint_with(
    cell: &StateCell,
    instance: InstanceId,
    seq: u64,
    capture_outputs: impl FnOnce() -> Vec<(EdgeId, Vec<BufferedItem>)>,
    stores: &[Arc<BackupStore>],
    cfg: &CheckpointConfig,
    obs: Option<&CheckpointInstruments>,
    opts: CheckpointOptions,
) -> SdgResult<BackupSet> {
    let result =
        take_checkpoint_inner(cell, instance, seq, capture_outputs, stores, cfg, obs, opts);
    if let Some(obs) = obs {
        match &result {
            Ok(set) => {
                obs.taken.inc();
                obs.bytes.add(set.state_bytes as u64);
                if !set.is_base() {
                    obs.deltas.inc();
                }
            }
            Err(_) => obs.failed.inc(),
        }
    }
    result
}

/// The consistent cut taken in step 1.
struct InitCut {
    /// Per-stripe snapshots, in stripe order. Step 3 takes and drops them.
    snapshots: Vec<StateSnapshot>,
    /// Per-stripe vectors, in stripe order.
    stripe_vectors: Vec<VectorTs>,
    state_type: StateType,
    out_buffers: Vec<(EdgeId, Vec<BufferedItem>)>,
    /// The chunks this generation serialises: those dirty in any stripe
    /// when every stripe tracks the configured chunk space, else all.
    wanted: Vec<bool>,
}

/// Where a generation's chunks landed, and their total bytes.
type Written = (Vec<(usize, ChunkKey)>, usize);

#[allow(clippy::too_many_arguments)]
fn take_checkpoint_inner(
    cell: &StateCell,
    instance: InstanceId,
    seq: u64,
    capture_outputs: impl FnOnce() -> Vec<(EdgeId, Vec<BufferedItem>)>,
    stores: &[Arc<BackupStore>],
    cfg: &CheckpointConfig,
    obs: Option<&CheckpointInstruments>,
    opts: CheckpointOptions,
) -> SdgResult<BackupSet> {
    cfg.validate()?;
    if stores.is_empty() {
        return Err(SdgError::Recovery("no backup stores configured".into()));
    }
    let fanout = cfg.backup_fanout.min(stores.len());
    // Steps 3–4: serialise the generation and write the chunks.
    let persist = |cut: &mut InitCut, base: bool| {
        if base {
            cut.wanted.fill(true);
        }
        let snapshots = std::mem::take(&mut cut.snapshots);
        let (frames, delta) = serialise_generation(snapshots, &cut.wanted, cfg.serialise_threads);
        let written = write_chunks(frames, instance, seq, stores, fanout, cfg.serialise_threads);
        (written, delta)
    };
    let finish = |cut: InitCut, (chunk_locations, state_bytes): Written, delta| BackupSet {
        instance,
        seq,
        state_type: cut.state_type,
        vector: min_vector(&cut.stripe_vectors),
        stripe_vectors: cut.stripe_vectors,
        chunk_locations,
        out_buffers: cut.out_buffers,
        state_bytes,
        delta,
    };

    if cfg.synchronous {
        // Every step under the cell locks: every processing thread blocks
        // for the duration (the Fig. 12 baseline).
        let t0 = Instant::now();
        let result = cell.with_all(|inners| {
            let mut cut = begin_cut(inners, cfg.chunks, capture_outputs)?;
            let (written, delta) = persist(&mut cut, true);
            consolidate(inners, written.is_err())?;
            Ok(finish(cut, written?, delta))
        });
        if let Some(obs) = obs {
            obs.sync_ns.record_duration(t0.elapsed());
        }
        return result;
    }

    // Step 1: O(1) snapshots under the all-stripes lock; processing
    // resumes on the dirty overlays as soon as the locks drop.
    let t0 = Instant::now();
    let mut cut = cell.with_all(|inners| begin_cut(inners, cfg.chunks, capture_outputs))?;
    if let Some(obs) = obs {
        obs.snapshot_ns.record_duration(t0.elapsed());
    }

    // Steps 2–4 run off the processing path.
    let t1 = Instant::now();
    let (written, delta) = persist(&mut cut, opts.base);
    if let Some(obs) = obs {
        obs.persist_ns.record_duration(t1.elapsed());
    }

    // Step 5: consolidate even if a write failed, so the cell stays usable.
    let t2 = Instant::now();
    cell.with_all(|inners| consolidate(inners, written.is_err()))?;
    if let Some(obs) = obs {
        obs.consolidate_ns.record_duration(t2.elapsed());
    }
    Ok(finish(cut, written?, delta))
}

/// Step 1 on locked stripes: snapshots, vectors, dirty chunks and the
/// caller's output capture.
fn begin_cut(
    inners: &mut [&mut CellInner],
    space: usize,
    capture_outputs: impl FnOnce() -> Vec<(EdgeId, Vec<BufferedItem>)>,
) -> SdgResult<InitCut> {
    let tracking = inners
        .iter()
        .all(|i| i.store.tracked_chunks() == Some(space));
    let mut wanted = vec![!tracking; space];
    let mut snapshots = Vec::with_capacity(inners.len());
    let mut stripe_vectors = Vec::with_capacity(inners.len());
    for k in 0..inners.len() {
        // The dirty bits are taken *before* the snapshot so overlay writes
        // landing after the lock drops re-mark their chunks for the next
        // generation.
        if tracking {
            for id in inners[k].store.take_dirty_chunks().unwrap_or_default() {
                wanted[id as usize] = true;
            }
        }
        match inners[k].store.begin_checkpoint() {
            Ok(snap) => {
                snapshots.push(snap);
                stripe_vectors.push(inners[k].vector.clone());
            }
            Err(e) => {
                // Roll back: fold the stripes already begun and put the
                // consumed dirty bits back (conservatively, all of them) so
                // the next checkpoint misses nothing.
                for begun in inners.iter_mut().take(k) {
                    let _ = begun.store.consolidate();
                }
                for inner in inners.iter_mut() {
                    inner.store.mark_all_dirty();
                }
                return Err(e);
            }
        }
    }
    Ok(InitCut {
        snapshots,
        stripe_vectors,
        state_type: inners[0].store.state_type(),
        out_buffers: capture_outputs(),
        wanted,
    })
}

/// Step 5 on locked stripes. When the generation never made it to the
/// stores (`lost`), every chunk is re-marked dirty, so the next
/// checkpoint covers the loss.
fn consolidate(inners: &mut [&mut CellInner], lost: bool) -> SdgResult<()> {
    for inner in inners.iter_mut() {
        inner.store.consolidate()?;
        if lost {
            inner.store.mark_all_dirty();
        }
    }
    Ok(())
}

/// Cell-level vector: pointwise minimum across stripes.
fn min_vector(stripe_vectors: &[VectorTs]) -> VectorTs {
    if stripe_vectors.len() == 1 {
        stripe_vectors[0].clone()
    } else {
        VectorTs::pointwise_min(stripe_vectors)
    }
}

/// Encodes the snapshots into `(chunk_id, frame)` chunks plus the
/// generation header, dropping the snapshots once encoded.
///
/// Only the `wanted` chunks are encoded, by up to `threads` writers over
/// disjoint shares of the stripes, whose chunks are then concatenated. The
/// generation is a base when the wanted chunks cover every chunk that
/// holds state, however the key space is partitioned across replicas. A
/// base shadows nothing (it starts a chain), so it skips empty chunks; a
/// delta writes every wanted chunk, even an emptied one, whose empty copy
/// shadows the stale one.
fn serialise_generation(
    snapshots: Vec<StateSnapshot>,
    wanted: &[bool],
    threads: usize,
) -> (Vec<(u32, Frame)>, DeltaMeta) {
    let share = snapshots.len().div_ceil(threads.max(1)).max(1);
    let writers: Vec<ChunkWriter> = std::thread::scope(|scope| {
        let workers: Vec<_> = snapshots
            .chunks(share)
            .map(|stripes| {
                scope.spawn(move || {
                    let mut writer = ChunkWriter::new(wanted);
                    for snap in stripes {
                        writer.write(snap);
                    }
                    writer
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("chunk encoder does not panic"))
            .collect()
    });
    drop(snapshots);
    let mut writers = writers.into_iter();
    let mut writer = writers.next().expect("a cell has at least one stripe");
    for more in writers {
        writer.absorb(more);
    }
    let occupied = writer.occupied().to_vec();
    let base = occupied.iter().zip(wanted).all(|(&o, &w)| w || !o);
    let frames = writer
        .finish()
        .into_iter()
        .filter(|&(id, _)| !base || occupied[id as usize])
        .collect();
    (
        frames,
        DeltaMeta {
            base,
            chunk_space: wanted.len(),
        },
    )
}

/// Writes the frames in parallel (Fig. 4 step B3); each store seals a
/// frame in place. A chunk's store is `chunk_id % fanout`, which is stable
/// across generations so delta chains can be garbage-collected per store
/// without relocation.
fn write_chunks(
    frames: Vec<(u32, Frame)>,
    instance: InstanceId,
    seq: u64,
    stores: &[Arc<BackupStore>],
    fanout: usize,
    threads: usize,
) -> SdgResult<(Vec<(usize, ChunkKey)>, usize)> {
    let locations: Vec<(usize, ChunkKey)> = frames
        .iter()
        .map(|&(chunk, _)| {
            (
                chunk as usize % fanout,
                ChunkKey {
                    instance,
                    seq,
                    chunk,
                },
            )
        })
        .collect();
    let total = frames.iter().map(|(_, f)| f.payload_len()).sum();
    let queue = parking_lot::Mutex::new(frames.into_iter().zip(&locations));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1).min(locations.len().max(1)))
            .map(|_| {
                scope.spawn(|| loop {
                    let Some(((_, frame), &(store, key))) = queue.lock().next() else {
                        return Ok(());
                    };
                    stores[store].write_chunk(key, frame)?;
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("chunk writer does not panic"))
    })?;
    Ok((locations, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::ids::TaskId;
    use sdg_common::value::{Key, Value};
    use sdg_state::partition::PartitionDim;
    use sdg_state::store::StateType;

    fn instance() -> InstanceId {
        InstanceId::new(TaskId(0), 0)
    }

    fn populated_cell(n: i64) -> StateCell {
        let cell = StateCell::new(StateType::Table);
        for i in 0..n {
            cell.apply(EdgeId(0), (i + 1) as u64, |s| {
                s.as_table().unwrap().put(Key::Int(i), Value::Int(i * 2));
            });
        }
        cell
    }

    fn stores(m: usize) -> Vec<Arc<BackupStore>> {
        (0..m).map(|_| Arc::new(BackupStore::in_memory())).collect()
    }

    #[test]
    fn checkpoint_records_chunks_and_vector() {
        let cell = populated_cell(100);
        let stores = stores(2);
        let cfg = CheckpointConfig::default();
        let set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        assert_eq!(set.seq, 1);
        assert_eq!(set.chunk_locations.len(), cfg.chunks);
        assert_eq!(set.vector.get(EdgeId(0)), 100);
        assert!(set.state_bytes > 0);
        assert!(set.is_base());
        assert_eq!(set.stripe_vectors.len(), 1);
        // Chunks alternate between the two stores.
        assert!(set.chunk_locations.iter().any(|(s, _)| *s == 0));
        assert!(set.chunk_locations.iter().any(|(s, _)| *s == 1));
        // The cell is consolidated and writable again.
        cell.with(|inner| assert!(!inner.store.is_checkpointing()));
        let set2 = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        assert_eq!(set2.seq, 2);
    }

    #[test]
    fn sync_mode_produces_equivalent_backup() {
        let cell = populated_cell(50);
        let stores = stores(2);
        let mut cfg = CheckpointConfig::default();
        let async_set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        cfg.synchronous = true;
        let sync_set = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        assert_eq!(async_set.state_bytes, sync_set.state_bytes);
        assert_eq!(async_set.vector, sync_set.vector);
    }

    #[test]
    fn output_buffers_are_captured() {
        let cell = populated_cell(1);
        let stores = stores(1);
        let cfg = CheckpointConfig::default();
        let payload = Arc::new(sdg_common::record! { "k" => Value::Int(7) });
        let item = BufferedItem {
            ts: 3,
            corr: 99,
            expect: 2,
            payload: Arc::clone(&payload),
        };
        let outs = vec![(EdgeId(7), vec![item.clone()])];
        let set = take_checkpoint(&cell, instance(), 1, move || outs, &stores, &cfg).unwrap();
        assert_eq!(set.out_buffers, vec![(EdgeId(7), vec![item])]);
        // Captured entries pass through by refcount: nothing is encoded.
        assert!(Arc::ptr_eq(&set.out_buffers[0].1[0].payload, &payload));
    }

    #[test]
    fn empty_store_checkpoints_cleanly() {
        let cell = StateCell::new(StateType::Matrix);
        let stores = stores(1);
        let set = take_checkpoint(
            &cell,
            instance(),
            1,
            Vec::new,
            &stores,
            &CheckpointConfig::default(),
        )
        .unwrap();
        assert_eq!(
            set.state_bytes as u64,
            set.chunk_locations
                .iter()
                .map(|(s, k)| stores[*s].read_chunk(*k).unwrap().len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn observed_checkpoint_records_phase_timings() {
        let cell = populated_cell(200);
        let stores = stores(2);
        let obs = CheckpointInstruments::default();

        // Async mode fills the three async-phase histograms.
        take_checkpoint_with(
            &cell,
            instance(),
            1,
            Vec::new,
            &stores,
            &CheckpointConfig::default(),
            Some(&obs),
            CheckpointOptions::default(),
        )
        .unwrap();
        assert_eq!(obs.taken.get(), 1);
        assert!(obs.bytes.get() > 0);
        assert_eq!(obs.snapshot_ns.count(), 1);
        assert_eq!(obs.persist_ns.count(), 1);
        assert_eq!(obs.consolidate_ns.count(), 1);
        assert_eq!(obs.sync_ns.count(), 0);

        // Synchronous mode records the stop-the-world span instead.
        let sync_cfg = CheckpointConfig {
            synchronous: true,
            ..Default::default()
        };
        take_checkpoint_with(
            &cell,
            instance(),
            2,
            Vec::new,
            &stores,
            &sync_cfg,
            Some(&obs),
            CheckpointOptions::default(),
        )
        .unwrap();
        assert_eq!(obs.taken.get(), 2);
        assert_eq!(obs.sync_ns.count(), 1);
        assert_eq!(obs.snapshot_ns.count(), 1);

        // Failures are counted, not recorded as taken.
        let r = take_checkpoint_with(
            &cell,
            instance(),
            3,
            Vec::new,
            &[],
            &CheckpointConfig::default(),
            Some(&obs),
            CheckpointOptions::default(),
        );
        assert!(r.is_err());
        assert_eq!(obs.failed.get(), 1);
        assert_eq!(obs.taken.get(), 2);
    }

    #[test]
    fn no_stores_is_an_error() {
        let cell = populated_cell(1);
        let r = take_checkpoint(
            &cell,
            instance(),
            1,
            Vec::new,
            &[],
            &CheckpointConfig::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn fanout_larger_than_stores_is_clamped() {
        let cell = populated_cell(20);
        let stores = stores(1);
        let cfg = CheckpointConfig {
            backup_fanout: 4,
            chunks: 4,
            ..Default::default()
        };
        let set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        assert!(set.chunk_locations.iter().all(|(s, _)| *s == 0));
    }

    fn striped_cell(keys: i64, stripes: usize, chunks: usize) -> StateCell {
        striped_cell_of((0..keys).collect(), stripes, chunks)
    }

    /// A striped cell tracking `chunks` dirty chunks, holding `key → key * 2`
    /// for every key in `keys`, written at timestamps 1, 2, ….
    fn striped_cell_of(keys: Vec<i64>, stripes: usize, chunks: usize) -> StateCell {
        let cell =
            StateCell::new_striped(StateType::Table, stripes, PartitionDim::Row, Some(chunks));
        for (ts, &i) in keys.iter().enumerate() {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), ts as u64 + 1, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i * 2));
            });
        }
        cell
    }

    /// Each stripe's base address, read from a snapshot that is released
    /// before the stripe consolidates again.
    fn base_addrs(cell: &StateCell) -> Vec<usize> {
        cell.with_all(|inners| {
            inners
                .iter_mut()
                .map(|inner| {
                    let snap = inner.store.begin_checkpoint().unwrap();
                    let addr = match &snap {
                        StateSnapshot::Table(map) => Arc::as_ptr(map) as usize,
                        StateSnapshot::Matrix(rows) => Arc::as_ptr(rows) as usize,
                        StateSnapshot::Vector(values) => Arc::as_ptr(values) as usize,
                    };
                    drop(snap);
                    inner.store.consolidate().unwrap();
                    addr
                })
                .collect()
        })
    }

    #[test]
    fn a_take_without_writes_consolidates_every_stripe_in_place() {
        let matrix = StateCell::new_striped(StateType::Matrix, 4, PartitionDim::Row, None);
        for r in 0..40i64 {
            matrix.apply_routed(
                EdgeId(0),
                r as u64 + 1,
                Some(Key::Int(r).stable_hash()),
                |s| s.as_matrix().unwrap().set(r, r % 3, 1.0),
            );
        }
        let vector = StateCell::new(StateType::Vector);
        vector.apply(EdgeId(0), 1, |s| s.as_vector().unwrap().set(700, 2.0));
        let stores = stores(2);
        for synchronous in [false, true] {
            let cfg = CheckpointConfig {
                synchronous,
                ..Default::default()
            };
            for cell in [&striped_cell(200, 4, 8), &matrix, &vector] {
                let before = base_addrs(cell);
                take_checkpoint(cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
                assert_eq!(base_addrs(cell), before, "synchronous: {synchronous}");
            }
        }
    }

    #[test]
    fn first_checkpoint_is_a_base() {
        let cell = striped_cell(200, 4, 16);
        let stores = stores(2);
        let cfg = CheckpointConfig {
            chunks: 16,
            ..Default::default()
        };
        let set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        assert!(set.is_base());
        assert_eq!(set.delta.chunk_space, 16);
        assert_eq!(set.chunk_locations.len(), 16);
        assert_eq!(set.stripe_vectors.len(), 4);
        // The cell-level vector is the pointwise min across stripes: it
        // trails the newest item (200) but matches the cell's own view.
        assert_eq!(set.vector, cell.vector());
        let newest = set
            .stripe_vectors
            .iter()
            .map(|v| v.get(EdgeId(0)))
            .max()
            .unwrap();
        assert_eq!(newest, 200);
        assert!(set.vector.get(EdgeId(0)) <= 200);
    }

    #[test]
    fn second_checkpoint_is_a_small_delta() {
        let cell = striped_cell(500, 4, 64);
        let stores = stores(2);
        let cfg = CheckpointConfig {
            chunks: 64,
            ..Default::default()
        };
        let base = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        assert!(base.is_base());

        // Touch a handful of keys; the delta must cover only their chunks.
        let touched: Vec<i64> = vec![3, 7];
        for &i in &touched {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), 500 + i as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(-i));
            });
        }
        let delta = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        assert!(!delta.is_base());
        let mut expected: Vec<u32> = touched
            .iter()
            .map(|&i| (Key::Int(i).stable_hash() % 64) as u32)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let mut written: Vec<u32> = delta.chunk_locations.iter().map(|(_, k)| k.chunk).collect();
        written.sort_unstable();
        assert_eq!(written, expected);
        assert!(delta.state_bytes < base.state_bytes / 4);
    }

    #[test]
    fn forced_base_option_produces_a_base_generation() {
        let cell = striped_cell(100, 2, 8);
        let stores = stores(2);
        let cfg = CheckpointConfig::default();
        take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        let set = take_checkpoint_with(
            &cell,
            instance(),
            2,
            Vec::new,
            &stores,
            &cfg,
            None,
            CheckpointOptions { base: true },
        )
        .unwrap();
        assert!(set.is_base());
        assert_eq!(set.chunk_locations.len(), 8);
    }

    #[test]
    fn clean_checkpoint_writes_no_chunks() {
        let cell = striped_cell(100, 2, 8);
        let stores = stores(1);
        let cfg = CheckpointConfig::default();
        take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        // Nothing changed: the delta generation is empty.
        let set = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        assert!(!set.is_base());
        assert!(set.chunk_locations.is_empty());
        assert_eq!(set.state_bytes, 0);
    }

    #[test]
    fn untracked_cells_write_a_base_on_every_take() {
        // Matrices track no dirty chunks: every take is a base of the
        // chunks that hold state.
        let cell = StateCell::new(StateType::Matrix);
        cell.apply(EdgeId(0), 1, |s| s.as_matrix().unwrap().set(1, 2, 3.0));
        let stores = stores(1);
        let cfg = CheckpointConfig::default();
        for seq in 1..=2 {
            let set = take_checkpoint(&cell, instance(), seq, Vec::new, &stores, &cfg).unwrap();
            assert!(set.is_base());
            let written: Vec<u32> = set.chunk_locations.iter().map(|(_, k)| k.chunk).collect();
            assert_eq!(written, vec![(Key::Int(1).stable_hash() % 8) as u32]);
        }
    }

    #[test]
    fn full_churn_on_half_the_key_space_is_a_base_without_empty_chunks() {
        // Replica 0 of 2 owns only keys with an even hash, so it can only
        // ever dirty the even half of an 8-chunk space.
        let keys: Vec<i64> = (0..400)
            .filter(|i| Key::Int(*i).stable_hash().is_multiple_of(2))
            .collect();
        let cell = striped_cell_of(keys.clone(), 4, 8);
        let stores = stores(2);
        let cfg = CheckpointConfig::default();
        let first = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        assert!(first.is_base());
        let even: Vec<u32> = vec![0, 2, 4, 6];
        let chunks_of = |set: &BackupSet| -> Vec<u32> {
            let mut ids: Vec<u32> = set.chunk_locations.iter().map(|(_, k)| k.chunk).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(chunks_of(&first), even, "a base writes no empty chunk");

        // Rewrite every key: every chunk that holds state is dirty.
        for (ts, &i) in keys.iter().enumerate() {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), 1_000 + ts as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(-i));
            });
        }
        let second = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        assert!(second.is_base(), "full churn must start a new chain");
        assert_eq!(chunks_of(&second), even);

        let restored = crate::recovery::restore_chain(
            &[second],
            &stores,
            1,
            crate::recovery::RestoreOptions::default(),
        )
        .unwrap();
        let (store, _) = restored.into_iter().next().unwrap().pop().unwrap();
        let mut got = store.export_entries();
        let mut want = cell.export_merged().0;
        got.sort_by(|a, b| a.key.cmp(&b.key));
        want.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(got, want);
    }
}
