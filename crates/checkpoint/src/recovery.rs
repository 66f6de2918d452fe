//! Parallel m-to-n state restore (§5, "State backup and restore", Fig. 4).
//!
//! A failed SE instance is restored to `n` new (possibly partitioned)
//! instances: each of the `m` stores holding checkpoint chunks streams its
//! chunks in parallel (step R1), each chunk's entries are split `n` ways by
//! stable key hash, and `n` builder threads reconstitute the new stores
//! (step R2). Replaying upstream output buffers (step R3) is the runtime's
//! job, using the vector timestamp carried in the [`BackupSet`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::obs::CheckpointInstruments;
use sdg_common::time::VectorTs;
use sdg_common::value::Key;
use sdg_state::entry::StateEntry;
use sdg_state::store::StateStore;

use crate::backup::{decode_entries, BackupSet, BackupStore};

/// Returns the restore partition of an entry among `n` targets.
///
/// Uses the stable hash of the *decoded* key so that a key lands on the
/// same partition the runtime's hash dispatcher would route it to — this
/// is what lets a partitioned SE be restored directly onto `n` partitioned
/// instances. Every built-in structure keys its entries by an encoded
/// [`Key`], so a key that does not decode is a codec error; onto a single
/// instance nothing needs decoding.
fn partition_of(entry: &StateEntry, n: usize) -> SdgResult<usize> {
    if n == 1 {
        return Ok(0);
    }
    let key: Key = sdg_common::codec::decode_from_slice(&entry.key)?;
    Ok((key.stable_hash() % n as u64) as usize)
}

/// Tuning knobs for [`restore_chain`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RestoreOptions {
    /// Simulated per-instance reconstitution bandwidth in bytes/second —
    /// the network + deserialisation + insert capacity of one recovering
    /// node (step R2 of Fig. 4). `None` runs at host speed.
    pub rebuild_bps: Option<u64>,
}

/// Restores a chain — one base generation followed by its delta
/// generations, oldest first — onto `n` fresh instances.
///
/// Each chunk is written whole by whichever generation last touched it, so
/// composition is newest-wins per chunk id: later sets shadow earlier
/// ones. Instance `i` receives the entries whose key hashes to `i` modulo
/// `n` (with `n == 1` the single result holds the complete state), and
/// every instance inherits the newest set's vector timestamp (the chain's
/// cut) so duplicate replayed items are filtered.
///
/// # Errors
///
/// Fails when `n` is zero, when the chain is empty, does not start with a
/// base generation, mixes instances/structure types/chunk spaces, or is out
/// of order, and when a chunk is missing or corrupt or an entry does not
/// decode into the checkpoint's structure type.
pub fn restore_chain(
    sets: &[BackupSet],
    stores: &[Arc<BackupStore>],
    n: usize,
    options: RestoreOptions,
) -> SdgResult<Vec<(StateStore, VectorTs)>> {
    let first = sets
        .first()
        .ok_or_else(|| SdgError::Recovery("empty restore chain".into()))?;
    if !first.is_base() {
        return Err(SdgError::Recovery(
            "restore chain must start with a base generation".into(),
        ));
    }
    let newest = sets.last().expect("non-empty");
    let mut winner: HashMap<u32, (usize, crate::backup::ChunkKey)> = HashMap::new();
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
    let chunk_locations: Vec<(usize, crate::backup::ChunkKey)> = winner.into_values().collect();
    restore_chunks(
        &chunk_locations,
        newest.state_type,
        &newest.vector,
        stores,
        n,
        options,
    )
}

/// Result of [`restore_chain_resilient`]: the restored partitions plus
/// which generation of the chain actually supplied them.
#[derive(Debug)]
pub struct ChainRestore {
    /// The `n` restored (store, vector) pairs.
    pub parts: Vec<(StateStore, VectorTs)>,
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
    chunk_locations: &[(usize, crate::backup::ChunkKey)],
    state_type: sdg_state::store::StateType,
    vector: &VectorTs,
    stores: &[Arc<BackupStore>],
    n: usize,
    options: RestoreOptions,
) -> SdgResult<Vec<(StateStore, VectorTs)>> {
    if n == 0 {
        return Err(SdgError::Recovery(
            "cannot restore to zero instances".into(),
        ));
    }

    // Group chunk keys by their holding store so each store streams its
    // chunks independently (one reader thread per disk — step R1).
    let mut by_store: HashMap<usize, Vec<crate::backup::ChunkKey>> = HashMap::new();
    for (store_idx, key) in chunk_locations {
        if *store_idx >= stores.len() {
            return Err(SdgError::Recovery(format!(
                "backup set references store {store_idx} but only {} are available",
                stores.len()
            )));
        }
        by_store.entry(*store_idx).or_default().push(*key);
    }

    // Each target partition accumulates its entries behind a mutex; reader
    // threads push into them as chunks arrive.
    let partitions: Vec<Mutex<Vec<StateEntry>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let errors: Mutex<Vec<SdgError>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for (store_idx, keys) in &by_store {
            let store = &stores[*store_idx];
            let partitions = &partitions;
            let errors = &errors;
            scope.spawn(move || {
                for key in keys {
                    let placed = store
                        .read_chunk(*key)
                        .and_then(|b| decode_entries(&b))
                        .and_then(|entries| {
                            for entry in entries {
                                let idx = partition_of(&entry, n)?;
                                partitions[idx].lock().push(entry);
                            }
                            Ok(())
                        });
                    if let Err(e) = placed {
                        errors.lock().push(e);
                    }
                }
            });
        }
    });
    if let Some(e) = errors.into_inner().into_iter().next() {
        return Err(e);
    }

    // Step R2: n builders reconstitute the stores in parallel. Each
    // builder models one recovering node's reconstitution bandwidth.
    let results: Vec<Mutex<Option<SdgResult<StateStore>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for (idx, part) in partitions.iter().enumerate() {
            let results = &results;
            scope.spawn(move || {
                let entries = std::mem::take(&mut *part.lock());
                if let Some(bps) = options.rebuild_bps {
                    if bps > 0 {
                        let bytes: usize = entries.iter().map(|e| e.size()).sum();
                        std::thread::sleep(std::time::Duration::from_secs_f64(
                            bytes as f64 / bps as f64,
                        ));
                    }
                }
                let mut store = StateStore::new(state_type);
                let r = store.import_entries(&entries).map(|()| store);
                *results[idx].lock() = Some(r);
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    for slot in results {
        let store = slot
            .into_inner()
            .unwrap_or_else(|| Err(SdgError::Recovery("restore builder missing".into())))?;
        out.push((store, vector.clone()));
    }
    Ok(out)
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
        let restored = restore_chain(&[set], &stores, 1, RestoreOptions::default()).unwrap();
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
        let restored = restore_chain(&[set], &stores, 2, RestoreOptions::default()).unwrap();
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
        let restored = restore_chain(&[set], &stores, 3, RestoreOptions::default()).unwrap();
        let mut nnz = 0;
        for (mut store, _) in restored {
            nnz += store.as_matrix().unwrap().nnz();
        }
        assert_eq!(nnz, 50);
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
        let restored = restore_chain(&[set], &stores, 1, RestoreOptions::default()).unwrap();
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
        let restored = restore_chain(&chain, &stores, 1, RestoreOptions::default()).unwrap();
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
        let restored = restore_chain(&[base, d1], &stores, 1, RestoreOptions::default()).unwrap();
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
    fn table_contents(parts: Vec<(StateStore, VectorTs)>) -> Vec<(Key, Value)> {
        let (mut store, _) = parts.into_iter().next().unwrap();
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
        let garbage = vec![StateEntry::new(vec![0xff; 3], vec![1])];
        stores[0]
            .write_chunk(key, crate::backup::encode_entries(&garbage))
            .unwrap();
        let err = restore_chain(&[set], &stores, 2, RestoreOptions::default()).unwrap_err();
        assert!(matches!(err, SdgError::Codec(_)), "{err}");
    }
}
