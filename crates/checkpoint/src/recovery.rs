//! Parallel m-to-n state restore (§5, "State backup and restore", Fig. 4).
//!
//! A failed SE instance is restored to `n` new (possibly partitioned)
//! instances of `stripes` stripes each. Each of the `m` stores holding
//! checkpoint chunks streams its chunks on a reader thread of its own and
//! verifies every frame in place (step R1). Each entry of each chunk is
//! then decoded once, straight into the stripe of the instance that owns
//! its key (step R2): [`sdg_state::partition::KeyLayout::shard`], the rule
//! the dispatcher and the stripes route by, so the restored shards need no
//! re-split. Each stripe carries the vector recorded for it when
//! the layout matches the checkpoint's. Replaying upstream output buffers
//! (step R3) is the runtime's job, using those vectors.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::obs::CheckpointInstruments;
use sdg_common::time::VectorTs;
use sdg_state::partition::PartitionDim;
use sdg_state::store::StateStore;

use crate::backup::{BackupSet, BackupStore, ChunkKey, ChunkReader, Payload};

/// Tuning knobs and target layout for [`restore_chain`].
#[derive(Debug, Clone, Copy)]
pub struct RestoreOptions {
    /// Simulated per-instance reconstitution bandwidth in bytes/second —
    /// the network + deserialisation + insert capacity of one recovering
    /// node (step R2 of Fig. 4). `None` runs at host speed.
    pub rebuild_bps: Option<u64>,
    /// Stripes per restored instance (default 1).
    pub stripes: usize,
    /// Axis a matrix is partitioned along, across instances and stripes
    /// alike (default [`PartitionDim::Row`]).
    pub dim: PartitionDim,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        RestoreOptions {
            rebuild_bps: None,
            stripes: 1,
            dim: PartitionDim::Row,
        }
    }
}

/// One restored instance: its stripes in stripe order, each a (shard,
/// vector) pair as [`StateCell::from_parts`] takes them.
///
/// [`StateCell::from_parts`]: crate::cell::StateCell::from_parts
pub type Stripes = Vec<(StateStore, VectorTs)>;

/// Restores a chain — one base generation followed by its delta
/// generations, oldest first — onto `n` fresh instances.
///
/// Each chunk is written whole by whichever generation last touched it, so
/// composition is newest-wins per chunk id: later sets shadow earlier
/// ones. Every entry goes to the stripe of the instance that owns its key
/// hash, [`KeyLayout::shard`](sdg_state::partition::KeyLayout::shard) over
/// `n` instances of `options.stripes` stripes (with `n == 1` the single
/// result holds the complete state); a matrix is placed
/// cell by cell along `options.dim`, as [`StateStore::split_by_hash`]
/// places it. When the stripe count equals the newest set's, stripe `s`
/// of every instance carries that set's vector of stripe `s`; otherwise
/// every stripe carries the set's cell-level vector (the chain's cut).
/// Either way duplicate replayed items are filtered.
///
/// # Errors
///
/// Fails when `n` or the stripe count is zero, when the chain is empty,
/// does not start with a base generation, mixes instances/structure
/// types/chunk spaces, or is out of order, and when a chunk is missing or
/// corrupt or an entry does not decode into the checkpoint's structure
/// type.
pub fn restore_chain(
    sets: &[BackupSet],
    stores: &[Arc<BackupStore>],
    n: usize,
    options: RestoreOptions,
) -> SdgResult<Vec<Stripes>> {
    let first = sets
        .first()
        .ok_or_else(|| SdgError::Recovery("empty restore chain".into()))?;
    if !first.is_base() {
        return Err(SdgError::Recovery(
            "restore chain must start with a base generation".into(),
        ));
    }
    let newest = sets.last().expect("non-empty");
    let mut winner: HashMap<u32, (usize, ChunkKey)> = HashMap::new();
    let mut prev_seq = None;
    for set in sets {
        if set.instance != first.instance || set.state_type != first.state_type {
            return Err(SdgError::Recovery(
                "restore chain mixes instances or structure types".into(),
            ));
        }
        if set.delta.chunk_space != first.delta.chunk_space {
            return Err(SdgError::Recovery(
                "restore chain mixes chunk spaces".into(),
            ));
        }
        if prev_seq.is_some_and(|p| set.seq <= p) {
            return Err(SdgError::Recovery("restore chain out of order".into()));
        }
        prev_seq = Some(set.seq);
        for (store_idx, key) in &set.chunk_locations {
            winner.insert(key.chunk, (*store_idx, *key));
        }
    }
    let chunk_locations: Vec<(usize, ChunkKey)> = winner.into_values().collect();
    restore_chunks(&chunk_locations, newest, stores, n, options)
}

/// Result of [`restore_chain_resilient`]: the restored instances plus
/// which generation of the chain actually supplied them.
#[derive(Debug)]
pub struct ChainRestore {
    /// The `n` restored instances.
    pub parts: Vec<Stripes>,
    /// Index into the original chain of the newest generation restored
    /// (`sets.len() - 1` when nothing had to be dropped). Replay must use
    /// `sets[used]`'s vector and output buffers, not the newest set's.
    pub used: usize,
    /// The data-loss errors that forced each fallback, newest first.
    pub fallback_errors: Vec<SdgError>,
}

/// `true` for errors that mean a persisted chunk is gone or unreadable —
/// the class a chain fallback can route around. Structural chain errors
/// (out of order, mixed instances, …) recur at every prefix and are not
/// worth falling back over.
fn is_data_loss(e: &SdgError) -> bool {
    match e {
        SdgError::Io { .. } | SdgError::Codec(_) => true,
        SdgError::Recovery(m) => m.starts_with("chunk "),
        _ => false,
    }
}

/// [`restore_chain`] hardened against corrupt or missing chunks: when
/// the full chain fails with a data-loss error, the newest generation is
/// dropped and the remaining prefix retried, down to the bare base. The
/// restore therefore lands on the newest *intact* generation instead of
/// erroring, at the cost of replaying a little more upstream buffer.
///
/// When `obs` is given, a successful restore records its whole fetch +
/// rebuild span (fallbacks included) into `restore_ns`.
///
/// # Errors
///
/// Fails when the chain is structurally invalid, or when every prefix —
/// including the base generation alone — has lost a chunk.
pub fn restore_chain_resilient(
    sets: &[BackupSet],
    stores: &[Arc<BackupStore>],
    n: usize,
    options: RestoreOptions,
    obs: Option<&CheckpointInstruments>,
) -> SdgResult<ChainRestore> {
    let t0 = Instant::now();
    let mut fallback_errors = Vec::new();
    for end in (1..=sets.len()).rev() {
        match restore_chain(&sets[..end], stores, n, options) {
            Ok(parts) => {
                if let Some(obs) = obs {
                    obs.restore_ns.record_duration(t0.elapsed());
                }
                return Ok(ChainRestore {
                    parts,
                    used: end - 1,
                    fallback_errors,
                });
            }
            Err(e) if is_data_loss(&e) && end > 1 => fallback_errors.push(e),
            Err(e) => return Err(e),
        }
    }
    Err(SdgError::Recovery("empty restore chain".into()))
}

fn restore_chunks(
    chunk_locations: &[(usize, ChunkKey)],
    newest: &BackupSet,
    stores: &[Arc<BackupStore>],
    n: usize,
    options: RestoreOptions,
) -> SdgResult<Vec<Stripes>> {
    if n == 0 || options.stripes == 0 {
        return Err(SdgError::Recovery(
            "cannot restore to zero instances or stripes".into(),
        ));
    }
    let payloads = fetch_chunks(chunk_locations, stores)?;

    // Step R2: decode every entry once, into its instance's stripe.
    let mut reader = ChunkReader::new(newest.state_type, n, options.stripes, options.dim);
    reader.read(&payloads)?;
    drop(payloads);
    if let Some(bps) = options.rebuild_bps.filter(|&bps| bps > 0) {
        // The n recovering nodes reconstitute their equal shares in
        // parallel, each at `bps`.
        let share = reader.bytes() as f64 / n as f64;
        std::thread::sleep(std::time::Duration::from_secs_f64(share / bps as f64));
    }

    let exact = newest.stripe_vectors.len() == options.stripes;
    let vector_of = |stripe: usize| {
        if exact {
            newest.stripe_vectors[stripe].clone()
        } else {
            newest.vector.clone()
        }
    };
    Ok(reader
        .finish()
        .into_iter()
        .map(|stripes| {
            stripes
                .into_iter()
                .enumerate()
                .map(|(s, store)| (store, vector_of(s)))
                .collect()
        })
        .collect())
}

/// Step R1: every store streams its chunks on a reader thread of its own,
/// verifying each frame in place.
fn fetch_chunks(
    chunk_locations: &[(usize, ChunkKey)],
    stores: &[Arc<BackupStore>],
) -> SdgResult<Vec<Payload>> {
    let mut by_store: HashMap<usize, Vec<ChunkKey>> = HashMap::new();
    for (store_idx, key) in chunk_locations {
        if *store_idx >= stores.len() {
            return Err(SdgError::Recovery(format!(
                "backup set references store {store_idx} but only {} are available",
                stores.len()
            )));
        }
        by_store.entry(*store_idx).or_default().push(*key);
    }
    let fetched: Vec<SdgResult<Vec<Payload>>> = std::thread::scope(|scope| {
        let readers: Vec<_> = by_store
            .iter()
            .map(|(store_idx, keys)| {
                let store = &stores[*store_idx];
                scope.spawn(move || keys.iter().map(|key| store.read_chunk(*key)).collect())
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("chunk reader does not panic"))
            .collect()
    });
    let mut payloads = Vec::with_capacity(chunk_locations.len());
    for chunks in fetched {
        payloads.extend(chunks?);
    }
    Ok(payloads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::StateCell;
    use crate::config::CheckpointConfig;
    use crate::coordinator::take_checkpoint;
    use sdg_common::ids::{EdgeId, InstanceId, TaskId};
    use sdg_common::value::{Key, Value};
    use sdg_state::store::StateType;

    fn instance() -> InstanceId {
        InstanceId::new(TaskId(0), 0)
    }

    fn stores(m: usize) -> Vec<Arc<BackupStore>> {
        (0..m).map(|_| Arc::new(BackupStore::in_memory())).collect()
    }

    /// The one stripe of each restored instance.
    fn unstriped(parts: Vec<Stripes>) -> Vec<(StateStore, VectorTs)> {
        parts
            .into_iter()
            .map(|mut stripes| {
                assert_eq!(stripes.len(), 1, "restored unstriped");
                stripes.pop().unwrap()
            })
            .collect()
    }

    fn table_cell(n: i64) -> StateCell {
        let cell = StateCell::new(StateType::Table);
        for i in 0..n {
            cell.apply(EdgeId(0), (i + 1) as u64, |s| {
                s.as_table().unwrap().put(Key::Int(i), Value::Int(i * 3));
            });
        }
        cell
    }

    #[test]
    fn one_to_one_restore_reproduces_state() {
        let cell = table_cell(200);
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
        let restored =
            unstriped(restore_chain(&[set], &stores, 1, RestoreOptions::default()).unwrap());
        assert_eq!(restored.len(), 1);
        let (mut store, vector) = restored.into_iter().next().unwrap();
        let table = store.as_table().unwrap();
        assert_eq!(table.len(), 200);
        for i in 0..200 {
            assert_eq!(table.get(&Key::Int(i)), Some(Value::Int(i * 3)));
        }
        assert_eq!(vector.get(EdgeId(0)), 200);
    }

    #[test]
    fn two_to_two_restore_partitions_disjointly() {
        let cell = table_cell(300);
        let stores = stores(2);
        let set = take_checkpoint(
            &cell,
            instance(),
            1,
            Vec::new,
            &stores,
            &CheckpointConfig::default(),
        )
        .unwrap();
        let restored =
            unstriped(restore_chain(&[set], &stores, 2, RestoreOptions::default()).unwrap());
        assert_eq!(restored.len(), 2);
        let mut total = 0;
        for (i, (mut store, _)) in restored.into_iter().enumerate() {
            let table = store.as_table().unwrap();
            total += table.len();
            // Every key must belong to partition i.
            table.for_each(|k, _| {
                assert_eq!((k.stable_hash() % 2) as usize, i);
            });
        }
        assert_eq!(total, 300);
    }

    #[test]
    fn matrix_restore_roundtrips() {
        let cell = StateCell::new(StateType::Matrix);
        for i in 0..50i64 {
            cell.apply(EdgeId(1), (i + 1) as u64, |s| {
                s.as_matrix().unwrap().set(i, i % 5, i as f64);
            });
        }
        let stores = stores(2);
        let set = take_checkpoint(
            &cell,
            instance(),
            1,
            Vec::new,
            &stores,
            &CheckpointConfig::default(),
        )
        .unwrap();
        let restored =
            unstriped(restore_chain(&[set], &stores, 3, RestoreOptions::default()).unwrap());
        let mut nnz = 0;
        for (mut store, _) in restored {
            nnz += store.as_matrix().unwrap().nnz();
        }
        assert_eq!(nnz, 50);
    }

    #[test]
    fn column_partitioned_matrix_restores_onto_its_column_owners() {
        let cell = StateCell::new(StateType::Matrix);
        for i in 0..60i64 {
            cell.apply(EdgeId(1), (i + 1) as u64, |s| {
                s.as_matrix().unwrap().set(i % 7, i, i as f64);
            });
        }
        let stores = stores(2);
        let cfg = CheckpointConfig::default();
        let set = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        let options = RestoreOptions {
            dim: PartitionDim::Col,
            ..RestoreOptions::default()
        };
        let restored = unstriped(restore_chain(&[set], &stores, 2, options).unwrap());
        let want = cell
            .with(|inner| inner.store.split_by_hash(2, PartitionDim::Col))
            .unwrap();
        for ((mut got, _), mut want) in restored.into_iter().zip(want) {
            let (got, want) = (got.as_matrix().unwrap(), want.as_matrix().unwrap());
            assert_eq!(got.nnz(), want.nnz());
            for r in want.row_indices() {
                assert_eq!(got.row(r), want.row(r));
            }
        }
    }

    #[test]
    fn writes_during_checkpoint_are_not_in_the_backup() {
        let cell = table_cell(10);
        let stores = stores(1);
        // Take the snapshot, then write more before the serialiser would
        // finish. Because take_checkpoint is synchronous in this test we
        // emulate it by checkpointing and then writing, then restoring.
        let set = take_checkpoint(
            &cell,
            instance(),
            1,
            Vec::new,
            &stores,
            &CheckpointConfig::default(),
        )
        .unwrap();
        cell.apply(EdgeId(0), 11, |s| {
            s.as_table().unwrap().put(Key::Int(999), Value::Int(1));
        });
        let restored =
            unstriped(restore_chain(&[set], &stores, 1, RestoreOptions::default()).unwrap());
        let (mut store, vector) = restored.into_iter().next().unwrap();
        assert_eq!(store.as_table().unwrap().get(&Key::Int(999)), None);
        // The vector only covers ts ≤ 10, so item 11 will be replayed and
        // accepted by a recovered cell.
        let recovered = StateCell::from_store(store, vector);
        assert!(recovered
            .apply(EdgeId(0), 11, |s| {
                s.as_table().unwrap().put(Key::Int(999), Value::Int(1));
            })
            .is_some());
        // While item 10 is a duplicate and is filtered.
        assert!(recovered.apply(EdgeId(0), 10, |_| ()).is_none());
    }

    #[test]
    fn chain_restore_composes_base_and_deltas() {
        use sdg_state::partition::PartitionDim;
        let cell = StateCell::new_striped(StateType::Table, 4, PartitionDim::Row, Some(32));
        for i in 0..300i64 {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i));
            });
        }
        let stores = stores(2);
        let cfg = CheckpointConfig {
            chunks: 32,
            ..Default::default()
        };
        let base = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        // Overwrite a few keys, add one, and checkpoint a delta.
        for i in [5i64, 17, 300] {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), 400 + i as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i * 100));
            });
        }
        let d1 = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        assert!(!d1.is_base());
        // Another round, including an overwrite of an already-delta'd key.
        for i in [5i64, 44] {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), 800 + i as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i * 1000));
            });
        }
        let d2 = take_checkpoint(&cell, instance(), 3, Vec::new, &stores, &cfg).unwrap();

        let chain = vec![base, d1, d2];
        let restored =
            unstriped(restore_chain(&chain, &stores, 1, RestoreOptions::default()).unwrap());
        let (mut store, vector) = restored.into_iter().next().unwrap();
        let table = store.as_table().unwrap();
        assert_eq!(table.len(), 301);
        assert_eq!(table.get(&Key::Int(5)), Some(Value::Int(5000)));
        assert_eq!(table.get(&Key::Int(44)), Some(Value::Int(44000)));
        assert_eq!(table.get(&Key::Int(17)), Some(Value::Int(1700)));
        assert_eq!(table.get(&Key::Int(300)), Some(Value::Int(30000)));
        assert_eq!(table.get(&Key::Int(200)), Some(Value::Int(200)));
        // The vector is the newest set's (min across stripes).
        assert_eq!(vector, chain[2].vector);
    }

    #[test]
    fn chain_restore_sees_deletions() {
        use sdg_state::partition::PartitionDim;
        let cell = StateCell::new_striped(StateType::Table, 2, PartitionDim::Row, Some(16));
        for i in 0..50i64 {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i));
            });
        }
        let stores = stores(1);
        let cfg = CheckpointConfig {
            chunks: 16,
            ..Default::default()
        };
        let base = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        let key = Key::Int(13);
        cell.apply_routed(EdgeId(0), 60, Some(key.stable_hash()), |s| {
            s.as_table().unwrap().remove(&key);
        });
        let d1 = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        let restored =
            unstriped(restore_chain(&[base, d1], &stores, 1, RestoreOptions::default()).unwrap());
        let (mut store, _) = restored.into_iter().next().unwrap();
        let table = store.as_table().unwrap();
        assert_eq!(table.len(), 49);
        assert_eq!(table.get(&Key::Int(13)), None);
    }

    /// Builds a base + two deltas chain over one store,
    /// mirroring `chain_restore_composes_base_and_deltas`.
    fn corruptible_chain(stores: &[Arc<BackupStore>]) -> Vec<BackupSet> {
        use sdg_state::partition::PartitionDim;
        let cell = StateCell::new_striped(StateType::Table, 4, PartitionDim::Row, Some(32));
        for i in 0..300i64 {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i));
            });
        }
        let cfg = CheckpointConfig {
            chunks: 32,
            ..Default::default()
        };
        let base = take_checkpoint(&cell, instance(), 1, Vec::new, stores, &cfg).unwrap();
        for i in [5i64, 17] {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), 400 + i as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i * 100));
            });
        }
        let d1 = take_checkpoint(&cell, instance(), 2, Vec::new, stores, &cfg).unwrap();
        for i in [5i64, 44] {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), 800 + i as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i * 1000));
            });
        }
        let d2 = take_checkpoint(&cell, instance(), 3, Vec::new, stores, &cfg).unwrap();
        vec![base, d1, d2]
    }

    /// All (key, value) pairs of a restored single-partition table,
    /// sorted, for byte-identity comparisons.
    fn table_contents(parts: Vec<Stripes>) -> Vec<(Key, Value)> {
        let (mut store, _) = unstriped(parts).into_iter().next().unwrap();
        let mut out = Vec::new();
        store.as_table().unwrap().for_each(|k, v| {
            out.push((k.clone(), v.clone()));
        });
        out.sort_by_key(|(k, _)| k.stable_hash());
        out
    }

    #[test]
    fn intact_chain_restores_newest_generation_byte_identically() {
        let stores = stores(1);
        let chain = corruptible_chain(&stores);
        let plain = restore_chain(&chain, &stores, 1, RestoreOptions::default()).unwrap();
        let resilient =
            restore_chain_resilient(&chain, &stores, 1, RestoreOptions::default(), None).unwrap();
        assert_eq!(resilient.used, 2);
        assert!(resilient.fallback_errors.is_empty());
        assert_eq!(table_contents(resilient.parts), table_contents(plain));
    }

    #[test]
    fn truncated_newest_delta_falls_back_to_prior_generation() {
        let stores = stores(1);
        let chain = corruptible_chain(&stores);
        for (_, key) in &chain[2].chunk_locations {
            stores[0].truncate_chunk(*key).unwrap();
        }
        let r =
            restore_chain_resilient(&chain, &stores, 1, RestoreOptions::default(), None).unwrap();
        assert_eq!(r.used, 1, "restore must land on the intact d1 generation");
        assert!(!r.fallback_errors.is_empty());
        let expected = restore_chain(&chain[..2], &stores, 1, RestoreOptions::default()).unwrap();
        assert_eq!(table_contents(r.parts), table_contents(expected));
    }

    #[test]
    fn bit_flipped_newest_delta_falls_back_to_prior_generation() {
        let stores = stores(1);
        let chain = corruptible_chain(&stores);
        let (_, key) = chain[2].chunk_locations[0];
        stores[0].flip_chunk_bit(key).unwrap();
        let r =
            restore_chain_resilient(&chain, &stores, 1, RestoreOptions::default(), None).unwrap();
        assert!(r.used < 2);
        assert!(r
            .fallback_errors
            .iter()
            .any(|e| e.to_string().contains("checksum mismatch")));
        let expected =
            restore_chain(&chain[..r.used + 1], &stores, 1, RestoreOptions::default()).unwrap();
        assert_eq!(table_contents(r.parts), table_contents(expected));
    }

    #[test]
    fn missing_newest_delta_falls_back_to_prior_generation() {
        let stores = stores(1);
        let chain = corruptible_chain(&stores);
        for (_, key) in &chain[2].chunk_locations {
            stores[0].delete_chunk(*key).unwrap();
        }
        let r =
            restore_chain_resilient(&chain, &stores, 1, RestoreOptions::default(), None).unwrap();
        assert_eq!(r.used, 1);
        let expected = restore_chain(&chain[..2], &stores, 1, RestoreOptions::default()).unwrap();
        assert_eq!(table_contents(r.parts), table_contents(expected));
    }

    #[test]
    fn fully_corrupt_chain_is_an_error_not_a_panic() {
        let stores = stores(1);
        let chain = corruptible_chain(&stores);
        for set in &chain {
            for (_, key) in &set.chunk_locations {
                let _ = stores[0].truncate_chunk(*key);
            }
        }
        assert!(
            restore_chain_resilient(&chain, &stores, 1, RestoreOptions::default(), None).is_err()
        );
    }

    #[test]
    fn invalid_chains_are_rejected() {
        let cell = table_cell(20);
        let stores = stores(1);
        let cfg = CheckpointConfig::default();
        let s1 = take_checkpoint(&cell, instance(), 1, Vec::new, &stores, &cfg).unwrap();
        let s2 = take_checkpoint(&cell, instance(), 2, Vec::new, &stores, &cfg).unwrap();
        // Empty chain.
        assert!(restore_chain(&[], &stores, 1, RestoreOptions::default()).is_err());
        // Out of order.
        assert!(restore_chain(
            &[s2.clone(), s1.clone()],
            &stores,
            1,
            RestoreOptions::default()
        )
        .is_err());
        // A chain starting with a non-base delta.
        let mut fake_delta = s2;
        fake_delta.delta.base = false;
        assert!(restore_chain(&[fake_delta], &stores, 1, RestoreOptions::default()).is_err());
    }

    #[test]
    fn restore_to_zero_instances_is_rejected() {
        let cell = table_cell(1);
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
        assert!(restore_chain(&[set], &stores, 0, RestoreOptions::default()).is_err());
    }

    #[test]
    fn missing_store_is_an_error() {
        let cell = table_cell(5);
        let stores2 = stores(2);
        let set = take_checkpoint(
            &cell,
            instance(),
            1,
            Vec::new,
            &stores2,
            &CheckpointConfig::default(),
        )
        .unwrap();
        // Present only one of the two stores at restore time.
        let r = restore_chain(&[set], &stores2[..1], 1, RestoreOptions::default());
        assert!(r.is_err());
    }

    #[test]
    fn undecodable_entry_key_is_a_codec_error() {
        let cell = table_cell(5);
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
        let (_, key) = set.chunk_locations[0];
        // One entry whose 3-byte key carries no valid tag.
        let garbage = vec![1, 3, 0xff, 0xff, 0xff, 1, 1];
        stores[0].write_chunk(key, garbage).unwrap();
        let err = restore_chain(&[set], &stores, 2, RestoreOptions::default()).unwrap_err();
        assert!(matches!(err, SdgError::Codec(_)), "{err}");
    }
}
