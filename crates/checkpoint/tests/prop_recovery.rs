//! Property-based tests of the full checkpoint → failure → restore →
//! replay cycle (§5).
//!
//! For any operation sequence, any checkpoint position, any m-to-n
//! strategy: restoring the checkpoint and replaying the *entire* input
//! (with timestamp-based duplicate filtering) must reproduce exactly the
//! reference state — nothing lost, nothing applied twice.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use sdg_checkpoint::backup::{BackupSet, BackupStore, ChunkKey, ChunkWriter};
use sdg_checkpoint::cell::StateCell;
use sdg_checkpoint::config::CheckpointConfig;
use sdg_checkpoint::coordinator::{take_checkpoint, take_checkpoint_with, CheckpointOptions};
use sdg_checkpoint::recovery::{restore_chain, RestoreOptions, Stripes};
use sdg_common::codec::{decode_from_slice, Reader};
use sdg_common::ids::{EdgeId, InstanceId, TaskId};
use sdg_common::time::VectorTs;
use sdg_common::value::{Key, Value};
use sdg_state::partition::PartitionDim;
use sdg_state::store::{StateSnapshot, StateStore, StateType};

#[derive(Debug, Clone)]
enum Op {
    Put(i64, i64),
    Inc(i64, i64),
    Remove(i64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0i64..24, -50i64..50).prop_map(|(k, v)| Op::Put(k, v)),
            (0i64..24, 1i64..5).prop_map(|(k, v)| Op::Inc(k, v)),
            (0i64..24).prop_map(Op::Remove),
        ],
        1..40,
    )
}

fn apply_store(store: &mut StateStore, op: &Op) {
    let table = store.as_table().expect("table");
    match op {
        Op::Put(k, v) => {
            table.put(Key::Int(*k), Value::Int(*v));
        }
        Op::Inc(k, by) => {
            let next = match table.get(&Key::Int(*k)) {
                Some(Value::Int(c)) => c + by,
                _ => *by,
            };
            table.put(Key::Int(*k), Value::Int(next));
        }
        Op::Remove(k) => {
            table.remove(&Key::Int(*k));
        }
    }
}

fn apply_reference(model: &mut HashMap<i64, i64>, op: &Op) {
    match op {
        Op::Put(k, v) => {
            model.insert(*k, *v);
        }
        Op::Inc(k, by) => {
            *model.entry(*k).or_insert(0) += by;
        }
        Op::Remove(k) => {
            model.remove(k);
        }
    }
}

fn key_of(op: &Op) -> i64 {
    match op {
        Op::Put(k, _) | Op::Inc(k, _) | Op::Remove(k) => *k,
    }
}

fn sorted_entries(store: &StateStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = store
        .export_entries()
        .into_iter()
        .map(|e| (e.key, e.value))
        .collect();
    entries.sort();
    entries
}

/// The one stripe of the one instance a restore produced.
fn sole(mut parts: Vec<Stripes>) -> (StateStore, VectorTs) {
    assert_eq!(parts.len(), 1, "one instance");
    assert_eq!(parts[0].len(), 1, "one stripe");
    parts.remove(0).remove(0)
}

fn table_contents(store: &mut StateStore) -> HashMap<i64, i64> {
    let mut out = HashMap::new();
    store.as_table().expect("table").for_each(|k, v| {
        if let (Key::Int(k), Value::Int(v)) = (k, v) {
            out.insert(*k, *v);
        }
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn checkpoint_restore_replay_is_exactly_once(
        ops in arb_ops(),
        ckpt_at_frac in 0.0f64..1.0,
        m in 1usize..4,
        n in 1usize..4,
        chunks in 1usize..10,
    ) {
        let edge = EdgeId(5);
        let instance = InstanceId::new(TaskId(1), 0);
        let ckpt_at = ((ops.len() as f64) * ckpt_at_frac) as usize;

        // Reference: all ops applied once, in order.
        let mut reference = HashMap::new();
        for op in &ops {
            apply_reference(&mut reference, op);
        }
        let mut reference_at_ckpt = HashMap::new();
        for op in &ops[..ckpt_at] {
            apply_reference(&mut reference_at_ckpt, op);
        }

        // Live cell: apply the prefix, checkpoint, apply the suffix.
        let cell = StateCell::new(StateType::Table);
        for (i, op) in ops[..ckpt_at].iter().enumerate() {
            prop_assert!(cell.apply(edge, (i + 1) as u64, |s| apply_store(s, op)).is_some());
        }
        let stores: Vec<Arc<BackupStore>> =
            (0..m).map(|_| Arc::new(BackupStore::in_memory())).collect();
        let cfg = CheckpointConfig {
            backup_fanout: m,
            chunks: chunks.max(m),
            serialise_threads: 2,
            ..CheckpointConfig::default()
        };
        let set = take_checkpoint(&cell, instance, 1, Vec::new, &stores, &cfg).unwrap();
        for (i, op) in ops[ckpt_at..].iter().enumerate() {
            let ts = (ckpt_at + i + 1) as u64;
            prop_assert!(cell.apply(edge, ts, |s| apply_store(s, op)).is_some());
        }

        // Failure: restore to n instances and merge them.
        let restored = restore_chain(&[set], &stores, n, RestoreOptions::default()).unwrap();
        prop_assert_eq!(restored.len(), n);
        let mut merged = StateStore::new(StateType::Table);
        let mut vector = sdg_common::time::VectorTs::new();
        for (store, v) in restored.into_iter().flatten() {
            let entries = store.export_entries();
            merged.import_entries(&entries).unwrap();
            vector.merge_max(&v);
        }
        // The restored state must be exactly the checkpoint-time state.
        prop_assert_eq!(table_contents(&mut merged), reference_at_ckpt);
        prop_assert_eq!(vector.get(edge), ckpt_at as u64);

        // Replay the ENTIRE input against a recovered cell: the vector
        // filters the prefix; the suffix applies exactly once.
        let recovered = StateCell::from_store(merged, vector);
        let mut applied = 0usize;
        for (i, op) in ops.iter().enumerate() {
            if recovered
                .apply(edge, (i + 1) as u64, |s| apply_store(s, op))
                .is_some()
            {
                applied += 1;
            }
        }
        prop_assert_eq!(applied, ops.len() - ckpt_at, "only the suffix replays");
        let final_state = recovered.with(|inner| table_contents(&mut inner.store));
        prop_assert_eq!(final_state, reference);
    }

    /// Striping and delta generations are an implementation detail: for
    /// any operation sequence, checkpoint positions, stripe count and chunk
    /// space, a striped cell checkpointed as a base + delta chain and
    /// restored by composing the chain must hold byte-identical state to an
    /// unsharded, untracked cell whose every take is a base — and both must
    /// equal the reference model at the last cut, which shares no code with
    /// the serialiser. Replaying the entire input must then filter exactly
    /// the same duplicates in both.
    #[test]
    fn striped_delta_chain_equals_unsharded_full(
        ops in arb_ops(),
        stripes in 1usize..6,
        cut1_frac in 0.0f64..1.0,
        cut2_frac in 0.0f64..1.0,
        chunks in 1usize..12,
        m in 1usize..4,
    ) {
        let edge = EdgeId(7);
        let instance = InstanceId::new(TaskId(2), 0);
        let mut cuts = vec![
            ((ops.len() as f64) * cut1_frac) as usize,
            ((ops.len() as f64) * cut2_frac) as usize,
        ];
        cuts.sort_unstable();
        cuts.dedup();

        // Route hash = the key's partition hash, as the dispatcher computes.
        let route = |op: &Op| Some(Key::Int(key_of(op)).stable_hash());

        let chunks = chunks.max(m);
        let cell_striped = StateCell::new_striped(
            StateType::Table, stripes, PartitionDim::Row, Some(chunks));
        let cell_flat = StateCell::new(StateType::Table);
        let stores_a: Vec<Arc<BackupStore>> =
            (0..m).map(|_| Arc::new(BackupStore::in_memory())).collect();
        let stores_b: Vec<Arc<BackupStore>> =
            (0..m).map(|_| Arc::new(BackupStore::in_memory())).collect();
        let cfg = CheckpointConfig {
            backup_fanout: m,
            chunks,
            serialise_threads: 2,
            ..CheckpointConfig::default()
        };

        let mut chain: Vec<BackupSet> = Vec::new();
        let mut flat_set = None;
        let mut seq = 0u64;
        for i in 0..=ops.len() {
            if cuts.contains(&i) {
                seq += 1;
                let set = take_checkpoint_with(
                    &cell_striped, instance, seq, Vec::new, &stores_a, &cfg,
                    None, CheckpointOptions::default(),
                ).unwrap();
                if set.is_base() {
                    chain.clear();
                }
                chain.push(set);
                let flat = take_checkpoint(
                    &cell_flat, instance, seq, Vec::new, &stores_b, &cfg,
                ).unwrap();
                prop_assert!(flat.is_base(), "an untracked cell takes only bases");
                flat_set = Some(flat);
            }
            if let Some(op) = ops.get(i) {
                let ts = (i + 1) as u64;
                prop_assert!(cell_striped
                    .apply_routed(edge, ts, route(op), |s| apply_store(s, op))
                    .is_some());
                prop_assert!(cell_flat
                    .apply(edge, ts, |s| apply_store(s, op))
                    .is_some());
            }
        }
        prop_assert!(!chain.is_empty() && chain[0].is_base());

        // Crash: compose the chain (striped path) vs the one-base chain
        // (flat path). State must be byte-identical, and both must hold the
        // reference model's state at the last cut.
        let last_cut = *cuts.last().unwrap();
        let restored_a = restore_chain(&chain, &stores_a, 1, RestoreOptions::default()).unwrap();
        let (store_a, _) = sole(restored_a);
        let flat_chain = [flat_set.unwrap()];
        let restored_b = restore_chain(&flat_chain, &stores_b, 1, RestoreOptions::default()).unwrap();
        let (mut store_b, vector_b) = sole(restored_b);
        prop_assert_eq!(sorted_entries(&store_a), sorted_entries(&store_b));
        let mut reference_at_cut = HashMap::new();
        for op in &ops[..last_cut] {
            apply_reference(&mut reference_at_cut, op);
        }
        prop_assert_eq!(table_contents(&mut store_b), reference_at_cut);

        // Restore a striped cell straight onto its stripes, each with the
        // exact vector recorded in the newest generation (the runtime's
        // recovery path), and an unsharded cell from its one-base chain.
        // Replaying the ENTIRE input must filter exactly the same
        // duplicates in both.
        let newest = chain.last().unwrap();
        prop_assert_eq!(newest.stripe_vectors.len(), stripes);
        let options = RestoreOptions { stripes, ..RestoreOptions::default() };
        let mut parts = restore_chain(&chain, &stores_a, 1, options).unwrap();
        let recovered_a = StateCell::from_parts(parts.remove(0), PartitionDim::Row, Some(chunks));
        let recovered_b = StateCell::from_store(store_b, vector_b);
        let mut applied_a = Vec::new();
        let mut applied_b = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let ts = (i + 1) as u64;
            if recovered_a.apply_routed(edge, ts, route(op), |s| apply_store(s, op)).is_some() {
                applied_a.push(i);
            }
            if recovered_b.apply(edge, ts, |s| apply_store(s, op)).is_some() {
                applied_b.push(i);
            }
        }
        prop_assert_eq!(&applied_a, &applied_b, "identical duplicate filtering");
        prop_assert_eq!(applied_b.len(), ops.len() - last_cut, "exactly the suffix replays");

        // After replay both paths hold the reference final state.
        let mut reference = HashMap::new();
        for op in &ops {
            apply_reference(&mut reference, op);
        }
        let (entries_a, _) = recovered_a.export_merged();
        let mut merged_a = StateStore::new(StateType::Table);
        merged_a.import_entries(&entries_a).unwrap();
        prop_assert_eq!(table_contents(&mut merged_a), reference.clone());
        let final_b = recovered_b.with(|inner| table_contents(&mut inner.store));
        prop_assert_eq!(final_b, reference);
    }

    /// The dirty-state overlay never leaks post-checkpoint writes into the
    /// backup, even when the checkpoint races concurrent mutation.
    #[test]
    fn concurrent_writes_never_leak_into_the_checkpoint(
        prefix in arb_ops(),
        suffix in arb_ops(),
    ) {
        let edge = EdgeId(1);
        let cell = Arc::new(StateCell::new(StateType::Table));
        for (i, op) in prefix.iter().enumerate() {
            cell.apply(edge, (i + 1) as u64, |s| apply_store(s, op));
        }
        let mut reference_at_ckpt = HashMap::new();
        for op in &prefix {
            apply_reference(&mut reference_at_ckpt, op);
        }

        let stores: Vec<Arc<BackupStore>> = vec![Arc::new(BackupStore::in_memory())];
        let cfg = CheckpointConfig::default();

        // Writer thread races the checkpoint.
        let writer_cell = Arc::clone(&cell);
        let suffix_cloned = suffix.clone();
        let plen = prefix.len();
        let writer = std::thread::spawn(move || {
            for (i, op) in suffix_cloned.iter().enumerate() {
                writer_cell.apply(edge, (plen + i + 1) as u64, |s| apply_store(s, op));
            }
        });
        let set = take_checkpoint(
            &cell,
            InstanceId::new(TaskId(0), 0),
            1,
            Vec::new,
            &stores,
            &cfg,
        )
        .unwrap();
        writer.join().unwrap();

        // The checkpoint is a consistent prefix: its vector tells exactly
        // which ops it contains, and the restored contents match the
        // reference at that point.
        let covered = set.vector.get(edge) as usize;
        prop_assert!(covered >= prefix.len());
        prop_assert!(covered <= prefix.len() + suffix.len());
        let mut reference_at_cover = HashMap::new();
        for op in prefix.iter().chain(&suffix).take(covered) {
            apply_reference(&mut reference_at_cover, op);
        }
        let restored = restore_chain(&[set], &stores, 1, RestoreOptions::default()).unwrap();
        let (mut store, _) = sole(restored);
        prop_assert_eq!(table_contents(&mut store), reference_at_cover);
    }
}

/// The structures and partition axes the chunk equivalence tests cover.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Table,
    RowMatrix,
    ColMatrix,
    Vector,
}

impl Shape {
    fn ty(self) -> StateType {
        match self {
            Shape::Table => StateType::Table,
            Shape::RowMatrix | Shape::ColMatrix => StateType::Matrix,
            Shape::Vector => StateType::Vector,
        }
    }

    fn dim(self) -> PartitionDim {
        match self {
            Shape::ColMatrix => PartitionDim::Col,
            _ => PartitionDim::Row,
        }
    }

    /// A cell of this shape with `stripes` stripes, as the runtime lays
    /// it out: dense vectors are never striped, only tables track chunks.
    fn cell(self, stripes: usize, chunks: usize) -> StateCell {
        let stripes = if self == Shape::Vector { 1 } else { stripes };
        let tracked = (self == Shape::Table).then_some(chunks);
        StateCell::new_striped(self.ty(), stripes, self.dim(), tracked)
    }

    /// Applies write `(a, b, v)` at `ts`, routed to the stripe owning it.
    fn apply(self, cell: &StateCell, ts: u64, (a, b, v): (i64, i64, i64)) {
        let (row, col) = (a % 8, b % 8);
        let route = match self {
            Shape::Table => Some(Key::Int(a).stable_hash()),
            Shape::RowMatrix => Some(Key::Int(row).stable_hash()),
            Shape::ColMatrix => Some(Key::Int(col).stable_hash()),
            Shape::Vector => None,
        };
        let applied = cell.apply_routed(EdgeId(3), ts, route, |s| match self {
            Shape::Table if v == 0 => {
                s.as_table().unwrap().remove(&Key::Int(a));
            }
            Shape::Table => {
                s.as_table().unwrap().put(Key::Int(a), Value::Int(v));
            }
            Shape::RowMatrix | Shape::ColMatrix => s.as_matrix().unwrap().set(row, col, v as f64),
            Shape::Vector => s.as_vector().unwrap().set(a as usize * 15, v as f64),
        });
        assert!(applied.is_some());
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::sample::select(vec![
        Shape::Table,
        Shape::RowMatrix,
        Shape::ColMatrix,
        Shape::Vector,
    ])
}

fn arb_writes() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((0i64..40, 0i64..40, -3i64..6), 0..60)
}

/// The `(key, value)` byte pairs of a chunk payload, parsed independently
/// of the restore reader.
fn payload_entries(payload: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut r = Reader::new(payload);
    let count = r.read_varint().unwrap();
    let field = |r: &mut Reader<'_>| {
        let len = r.read_varint().unwrap() as usize;
        r.read_bytes(len).unwrap().to_vec()
    };
    let out = (0..count).map(|_| (field(&mut r), field(&mut r))).collect();
    assert!(r.is_empty(), "no trailing bytes");
    out
}

fn entry_hash(key: &[u8]) -> u64 {
    decode_from_slice::<Key>(key).unwrap().stable_hash()
}

/// The model of a restore onto `n` instances of `stripes` stripes: the
/// whole state split by instance, then each part by stripe. Tables and
/// matrices split as the live structures do; dense vectors (which do not
/// split) place each block by its start index.
fn model_split(shape: Shape, model: &StateStore, n: usize, stripes: usize) -> Vec<Vec<StateStore>> {
    if shape == Shape::Vector {
        let mut shards: Vec<StateStore> = (0..n * stripes)
            .map(|_| StateStore::new(StateType::Vector))
            .collect();
        for e in model.export_entries() {
            let h = entry_hash(&e.key);
            let idx = (h % n as u64) as usize * stripes + (h % stripes as u64) as usize;
            shards[idx].import_entries(&[e]).unwrap();
        }
        let mut shards = shards.into_iter();
        return (0..n)
            .map(|_| shards.by_ref().take(stripes).collect())
            .collect();
    }
    model
        .split_by_hash(n, shape.dim())
        .unwrap()
        .into_iter()
        .map(|part| part.split_by_hash(stripes, shape.dim()).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The chunk writer encodes every wanted chunk, and only those, and
    /// each decodes to exactly the model's entries for that chunk (the
    /// live export bucketed by key hash), whichever way the stripes are
    /// shared between writers.
    #[test]
    fn every_written_chunk_holds_exactly_the_model_entries_of_its_chunk(
        shape in arb_shape(),
        writes in arb_writes(),
        stripes in 1usize..17,
        chunks in 1usize..17,
        wanted_bits in any::<u16>(),
        split in 0usize..17,
    ) {
        let cell = shape.cell(stripes, chunks);
        for (ts, &w) in writes.iter().enumerate() {
            shape.apply(&cell, ts as u64 + 1, w);
        }
        let wanted: Vec<bool> = (0..chunks).map(|c| wanted_bits >> c & 1 == 1).collect();
        let snapshots: Vec<StateSnapshot> = cell.with_all(|inners| {
            inners
                .iter_mut()
                .map(|inner| {
                    let snap = inner.store.begin_checkpoint().unwrap();
                    inner.store.consolidate().unwrap();
                    snap
                })
                .collect()
        });
        let split = split.min(snapshots.len());
        let mut writer = ChunkWriter::new(&wanted);
        for snap in &snapshots[..split] {
            writer.write(snap);
        }
        let mut rest = ChunkWriter::new(&wanted);
        for snap in &snapshots[split..] {
            rest.write(snap);
        }
        writer.absorb(rest);

        let mut model: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); chunks];
        for e in cell.export_merged().0 {
            model[(entry_hash(&e.key) % chunks as u64) as usize].push((e.key, e.value));
        }
        let occupied: Vec<bool> = model.iter().map(|m| !m.is_empty()).collect();
        prop_assert_eq!(writer.occupied(), &occupied[..]);
        let frames = writer.finish();
        let ids: Vec<u32> = frames.iter().map(|(id, _)| *id).collect();
        let want_ids: Vec<u32> = (0..chunks as u32).filter(|&c| wanted[c as usize]).collect();
        prop_assert_eq!(ids, want_ids);
        let store = BackupStore::in_memory();
        for (id, frame) in frames {
            let key = ChunkKey { instance: InstanceId::new(TaskId(4), 0), seq: 1, chunk: id };
            store.write_chunk(key, frame).unwrap();
            let mut got = payload_entries(&store.read_chunk(key).unwrap());
            let mut want = model[id as usize].clone();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want, "chunk {}", id);
        }
    }

    /// A base + delta chain restored onto `n` instances of `stripes`
    /// stripes equals the state at the last cut split by instance and then
    /// by stripe, and every stripe carries the vector recorded for it (the
    /// cut's cell-level vector when the stripe layout changed).
    #[test]
    fn restored_chain_equals_the_model_split_by_instance_then_stripe(
        shape in arb_shape(),
        first in arb_writes(),
        second in arb_writes(),
        cell_stripes in 1usize..17,
        chunks in 1usize..17,
        m in 1usize..4,
        n in 1usize..4,
        stripes in 1usize..17,
        threads in 1usize..4,
    ) {
        let chunks = chunks.max(m);
        let cell = shape.cell(cell_stripes, chunks);
        let stores: Vec<Arc<BackupStore>> =
            (0..m).map(|_| Arc::new(BackupStore::in_memory())).collect();
        let cfg = CheckpointConfig {
            backup_fanout: m,
            chunks,
            serialise_threads: threads,
            ..CheckpointConfig::default()
        };
        let instance = InstanceId::new(TaskId(5), 0);
        let mut chain: Vec<BackupSet> = Vec::new();
        let mut ts = 0u64;
        for (seq, writes) in [&first, &second].into_iter().enumerate() {
            for &w in writes {
                ts += 1;
                shape.apply(&cell, ts, w);
            }
            let set = take_checkpoint(&cell, instance, seq as u64 + 1, Vec::new, &stores, &cfg)
                .unwrap();
            if set.is_base() {
                chain.clear();
            }
            chain.push(set);
        }
        let mut model = StateStore::new(shape.ty());
        model.import_entries(&cell.export_merged().0).unwrap();

        let options = RestoreOptions { stripes, dim: shape.dim(), ..RestoreOptions::default() };
        let restored = restore_chain(&chain, &stores, n, options).unwrap();
        let want = model_split(shape, &model, n, stripes);
        prop_assert_eq!(restored.len(), n);
        let newest = chain.last().unwrap();
        for (got, want) in restored.into_iter().zip(want) {
            prop_assert_eq!(got.len(), stripes);
            for (s, ((got, vector), want)) in got.into_iter().zip(want).enumerate() {
                prop_assert_eq!(sorted_entries(&got), sorted_entries(&want));
                let recorded = if newest.stripe_vectors.len() == stripes {
                    &newest.stripe_vectors[s]
                } else {
                    &newest.vector
                };
                prop_assert_eq!(&vector, recorded);
            }
        }
    }
}
