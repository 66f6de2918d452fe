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
use sdg_checkpoint::backup::{BackupSet, BackupStore};
use sdg_checkpoint::cell::StateCell;
use sdg_checkpoint::config::CheckpointConfig;
use sdg_checkpoint::coordinator::{take_checkpoint, take_checkpoint_with, CheckpointOptions};
use sdg_checkpoint::recovery::{restore_chain, RestoreOptions};
use sdg_common::ids::{EdgeId, InstanceId, TaskId};
use sdg_common::value::{Key, Value};
use sdg_state::partition::PartitionDim;
use sdg_state::store::{StateStore, StateType};

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
        for (store, v) in restored {
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
        let (store_a, _vector_a) = restored_a.into_iter().next().unwrap();
        let flat_chain = [flat_set.unwrap()];
        let restored_b = restore_chain(&flat_chain, &stores_b, 1, RestoreOptions::default()).unwrap();
        let (mut store_b, vector_b) = restored_b.into_iter().next().unwrap();
        prop_assert_eq!(sorted_entries(&store_a), sorted_entries(&store_b));
        let mut reference_at_cut = HashMap::new();
        for op in &ops[..last_cut] {
            apply_reference(&mut reference_at_cut, op);
        }
        prop_assert_eq!(table_contents(&mut store_b), reference_at_cut);

        // Rebuild a striped cell with the exact per-stripe vectors recorded
        // in the newest generation (the runtime's recovery path), and an
        // unsharded cell from its one-base chain. Replaying the ENTIRE
        // input must filter exactly the same duplicates in both.
        let newest = chain.last().unwrap();
        prop_assert_eq!(newest.stripe_vectors.len(), stripes);
        let parts = store_a.split_by_hash(stripes, PartitionDim::Row).unwrap();
        let recovered_a = StateCell::from_parts(
            parts.into_iter().zip(newest.stripe_vectors.iter().cloned()).collect(),
            PartitionDim::Row,
            Some(chunks),
        );
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
        let (mut store, _) = restored.into_iter().next().unwrap();
        prop_assert_eq!(table_contents(&mut store), reference_at_cover);
    }
}
