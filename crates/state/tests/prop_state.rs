//! Property-based tests for state structures.
//!
//! The central invariant of §5's dirty-state protocol: a sequence of
//! operations executed with an arbitrary checkpoint/consolidate pair
//! inserted anywhere must be observationally identical to the same sequence
//! executed without any checkpoint.

use std::collections::HashMap;

use proptest::prelude::*;
use sdg_common::codec::encode_to_vec;
use sdg_common::value::{Key, Value};
use sdg_state::partition::PartitionDim;
use sdg_state::{DenseVector, KeyedTable, SparseMatrix, StateEntry, StateStore, StateType};

#[derive(Debug, Clone)]
enum TableOp {
    Put(i64, i64),
    Remove(i64),
}

fn arb_table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    prop::collection::vec(
        prop_oneof![
            (0i64..32, any::<i64>()).prop_map(|(k, v)| TableOp::Put(k, v)),
            (0i64..32).prop_map(TableOp::Remove),
        ],
        0..64,
    )
}

fn apply_table(t: &mut KeyedTable, op: &TableOp) {
    match op {
        TableOp::Put(k, v) => {
            t.put(Key::Int(*k), Value::Int(*v));
        }
        TableOp::Remove(k) => {
            t.remove(&Key::Int(*k));
        }
    }
}

fn table_contents(t: &KeyedTable) -> Vec<(Key, Value)> {
    let mut out = Vec::new();
    t.for_each(|k, v| out.push((k.clone(), v.clone())));
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The matrix kernels' naive reference: a plain row map read the way
/// `SparseMatrix` once did — materialise the row, sort it by column,
/// accumulate.
#[derive(Default)]
struct NaiveMatrix {
    rows: HashMap<i64, HashMap<i64, f64>>,
}

impl NaiveMatrix {
    fn get(&self, r: i64, c: i64) -> f64 {
        self.rows
            .get(&r)
            .and_then(|row| row.get(&c))
            .copied()
            .unwrap_or(0.0)
    }

    fn set(&mut self, r: i64, c: i64, v: f64) {
        self.rows.entry(r).or_default().insert(c, v);
    }

    fn add(&mut self, r: i64, c: i64, delta: f64) {
        let v = self.get(r, c);
        self.set(r, c, v + delta);
    }

    fn nnz(&self) -> usize {
        self.rows.values().map(HashMap::len).sum()
    }

    fn row(&self, r: i64) -> Vec<(i64, f64)> {
        let mut out: Vec<(i64, f64)> = self
            .rows
            .get(&r)
            .cloned()
            .unwrap_or_default()
            .into_iter()
            .collect();
        out.sort_by_key(|&(c, _)| c);
        out
    }

    fn multiply(&self, x: &[(i64, f64)]) -> Vec<(i64, f64)> {
        let xmap: HashMap<i64, f64> = x.iter().copied().collect();
        let mut rows: Vec<i64> = self.rows.keys().copied().collect();
        rows.sort_unstable();
        let mut out = Vec::new();
        for r in rows {
            let mut acc = 0.0;
            for (c, v) in self.row(r) {
                if let Some(xv) = xmap.get(&c) {
                    acc += v * xv;
                }
            }
            if acc != 0.0 {
                out.push((r, acc));
            }
        }
        out
    }
}

#[derive(Debug, Clone)]
enum MatrixOp {
    Set(i64, i64, f64),
    Add(i64, i64, f64),
    Get(i64, i64),
    Row(i64),
    Multiply(Vec<(i64, f64)>),
    /// `begin_checkpoint` when none is outstanding, else `consolidate`.
    Checkpoint,
}

/// Fractional and negative values, with exact (and negative) zeros mixed in.
fn arb_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        4 => -100.0f64..100.0,
        1 => prop::sample::select(vec![0.0, -0.0, 1.0, -0.5, 1e-300]),
    ]
    .boxed()
}

fn arb_matrix_ops() -> impl Strategy<Value = Vec<MatrixOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0i64..6, 0i64..10, arb_f64()).prop_map(|(r, c, v)| MatrixOp::Set(r, c, v)),
            4 => (0i64..6, 0i64..10, arb_f64()).prop_map(|(r, c, v)| MatrixOp::Add(r, c, v)),
            1 => (0i64..7, 0i64..11).prop_map(|(r, c)| MatrixOp::Get(r, c)),
            1 => (0i64..7).prop_map(MatrixOp::Row),
            // Unsorted, with duplicate indices, zeros, and lengths on
            // both sides of a row's length.
            2 => prop::collection::vec((0i64..11, arb_f64()), 0..16).prop_map(MatrixOp::Multiply),
            1 => Just(MatrixOp::Checkpoint),
        ],
        0..80,
    )
}

fn bits(cells: &[(i64, f64)]) -> Vec<(i64, u64)> {
    cells.iter().map(|&(i, v)| (i, v.to_bits())).collect()
}

proptest! {
    /// Checkpointing at any point must not change the visible table state.
    #[test]
    fn table_dirty_mode_is_transparent(
        ops in arb_table_ops(),
        ckpt_at in 0usize..64,
        cons_at in 0usize..64,
    ) {
        let (ckpt_at, cons_at) = (ckpt_at.min(ops.len()), cons_at.min(ops.len()));
        let (ckpt_at, cons_at) = if ckpt_at <= cons_at { (ckpt_at, cons_at) } else { (cons_at, ckpt_at) };

        let mut plain = KeyedTable::new();
        for op in &ops {
            apply_table(&mut plain, op);
        }

        let mut ckpt = KeyedTable::new();
        let mut snapshot = None;
        for (i, op) in ops.iter().enumerate() {
            if i == ckpt_at {
                snapshot = Some(ckpt.begin_checkpoint().unwrap());
            }
            if i == cons_at && snapshot.is_some() {
                ckpt.consolidate().unwrap();
                snapshot = None;
            }
            apply_table(&mut ckpt, op);
        }
        if ckpt_at == ops.len() {
            snapshot = Some(ckpt.begin_checkpoint().unwrap());
        }
        if snapshot.is_some() {
            ckpt.consolidate().unwrap();
        }

        prop_assert_eq!(table_contents(&plain), table_contents(&ckpt));
        prop_assert_eq!(plain.len(), ckpt.len());
        prop_assert_eq!(plain.approx_bytes(), ckpt.approx_bytes());
    }

    /// The snapshot must reflect exactly the state at checkpoint time,
    /// regardless of later writes.
    #[test]
    fn table_snapshot_is_frozen(ops_before in arb_table_ops(), ops_after in arb_table_ops()) {
        let mut t = KeyedTable::new();
        for op in &ops_before {
            apply_table(&mut t, op);
        }
        let expected = table_contents(&t);
        let snap = t.begin_checkpoint().unwrap();
        for op in &ops_after {
            apply_table(&mut t, op);
        }
        let mut got: Vec<(Key, Value)> = snap.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(got, expected);
        t.consolidate().unwrap();
    }

    /// Export → import must reproduce the table exactly.
    #[test]
    fn table_export_import_roundtrips(ops in arb_table_ops()) {
        let mut t = KeyedTable::new();
        for op in &ops {
            apply_table(&mut t, op);
        }
        let mut restored = StateStore::new(StateType::Table);
        restored.import_entries(&t.export_entries()).unwrap();
        prop_assert_eq!(table_contents(restored.as_table().unwrap()), table_contents(&t));
    }

    /// Hash-splitting into n parts and merging them back must be lossless,
    /// and parts must be disjoint.
    #[test]
    fn table_split_merge_roundtrips(ops in arb_table_ops(), n in 1usize..6) {
        let mut t = KeyedTable::new();
        for op in &ops {
            apply_table(&mut t, op);
        }
        let parts = t.split_by_hash(n);
        prop_assert_eq!(parts.iter().map(KeyedTable::len).sum::<usize>(), t.len());
        let mut merged = KeyedTable::new();
        for p in &parts {
            p.for_each(|k, v| {
                merged.put(k.clone(), v.clone());
            });
        }
        prop_assert_eq!(table_contents(&merged), table_contents(&t));
    }

    /// Matrix dirty mode must be transparent for set/add sequences.
    #[test]
    fn matrix_dirty_mode_is_transparent(
        ops in prop::collection::vec((0i64..8, 0i64..8, -100i64..100), 0..48),
        ckpt_at in 0usize..48,
    ) {
        let ckpt_at = ckpt_at.min(ops.len());
        let mut plain = SparseMatrix::new();
        for &(r, c, v) in &ops {
            plain.add(r, c, v as f64);
        }
        let mut ckpt = SparseMatrix::new();
        let mut snap = None;
        for (i, &(r, c, v)) in ops.iter().enumerate() {
            if i == ckpt_at {
                snap = Some(ckpt.begin_checkpoint().unwrap());
            }
            ckpt.add(r, c, v as f64);
        }
        if snap.is_none() {
            snap = Some(ckpt.begin_checkpoint().unwrap());
        }
        drop(snap);
        ckpt.consolidate().unwrap();

        prop_assert_eq!(plain.nnz(), ckpt.nnz());
        for r in 0..8 {
            prop_assert_eq!(plain.row(r), ckpt.row(r));
        }
    }

    /// `get`, `row`, `multiply`, `add` and `nnz` are bit-identical to the
    /// naive reference, with checkpoints begun and consolidated anywhere.
    #[test]
    fn matrix_kernels_match_naive_reference_bit_for_bit(ops in arb_matrix_ops()) {
        let mut naive = NaiveMatrix::default();
        let mut m = SparseMatrix::new();
        let mut snap = None;
        for op in &ops {
            match op {
                MatrixOp::Set(r, c, v) => {
                    naive.set(*r, *c, *v);
                    m.set(*r, *c, *v);
                }
                MatrixOp::Add(r, c, v) => {
                    naive.add(*r, *c, *v);
                    m.add(*r, *c, *v);
                }
                MatrixOp::Get(r, c) => {
                    prop_assert_eq!(m.get(*r, *c).to_bits(), naive.get(*r, *c).to_bits());
                }
                MatrixOp::Row(r) => prop_assert_eq!(bits(&m.row(*r)), bits(&naive.row(*r))),
                MatrixOp::Multiply(x) => {
                    prop_assert_eq!(bits(&m.multiply(x)), bits(&naive.multiply(x)), "x = {:?}", x);
                }
                MatrixOp::Checkpoint => {
                    if snap.take().is_some() {
                        m.consolidate().unwrap();
                    } else {
                        snap = Some(m.begin_checkpoint().unwrap());
                    }
                }
            }
            prop_assert_eq!(m.nnz(), naive.nnz());
        }
        if snap.is_some() {
            m.consolidate().unwrap();
        }
        for r in 0..6 {
            prop_assert_eq!(bits(&m.row(r)), bits(&naive.row(r)));
        }
    }

    /// Matrix multiply must agree with a dense reference implementation.
    #[test]
    fn matrix_multiply_matches_dense(
        cells in prop::collection::vec((0i64..6, 0i64..6, -10i64..10), 0..24),
        x in prop::collection::vec(-10i64..10, 6),
    ) {
        let mut m = SparseMatrix::new();
        let mut dense = [[0.0f64; 6]; 6];
        for &(r, c, v) in &cells {
            m.set(r, c, v as f64);
            dense[r as usize][c as usize] = v as f64;
        }
        let xs: Vec<(i64, f64)> = x.iter().enumerate().map(|(i, &v)| (i as i64, v as f64)).collect();
        let got: std::collections::HashMap<i64, f64> = m.multiply(&xs).into_iter().collect();
        for (r, row) in dense.iter().enumerate() {
            let expected: f64 = row.iter().zip(&x).map(|(a, &b)| a * b as f64).sum();
            let gv = got.get(&(r as i64)).copied().unwrap_or(0.0);
            prop_assert!((gv - expected).abs() < 1e-9, "row {}: {} != {}", r, gv, expected);
        }
    }

    /// Matrix split along either dimension must partition nnz exactly.
    #[test]
    fn matrix_split_is_total(
        cells in prop::collection::vec((0i64..16, 0i64..16, 1i64..10), 0..48),
        n in 1usize..5,
        by_row in any::<bool>(),
    ) {
        let mut m = SparseMatrix::new();
        for &(r, c, v) in &cells {
            m.set(r, c, v as f64);
        }
        let dim = if by_row { PartitionDim::Row } else { PartitionDim::Col };
        let parts = m.split_by_hash(dim, n);
        prop_assert_eq!(parts.iter().map(SparseMatrix::nnz).sum::<usize>(), m.nnz());
    }

    /// Dense vector dirty mode must be transparent.
    #[test]
    fn vector_dirty_mode_is_transparent(
        ops in prop::collection::vec((0usize..64, -100i64..100), 0..48),
        ckpt_at in 0usize..48,
    ) {
        let ckpt_at = ckpt_at.min(ops.len());
        let mut plain = DenseVector::new();
        for &(i, v) in &ops {
            plain.set(i, v as f64);
        }
        let mut ckpt = DenseVector::new();
        let mut snap = None;
        for (j, &(i, v)) in ops.iter().enumerate() {
            if j == ckpt_at {
                snap = Some(ckpt.begin_checkpoint().unwrap());
            }
            ckpt.set(i, v as f64);
        }
        if snap.is_none() {
            let _ = ckpt.begin_checkpoint().unwrap();
        }
        ckpt.consolidate().unwrap();
        prop_assert_eq!(plain.to_vec(), ckpt.to_vec());
    }

    /// merge_sum must equal elementwise addition of all parts.
    #[test]
    fn vector_merge_sum_is_elementwise(
        parts in prop::collection::vec(prop::collection::vec(-10i64..10, 0..12), 0..5),
    ) {
        let vecs: Vec<DenseVector> = parts
            .iter()
            .map(|p| DenseVector::from_vec(p.iter().map(|&v| v as f64).collect()))
            .collect();
        let merged = DenseVector::merge_sum(vecs.iter());
        let max_len = parts.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert_eq!(merged.len(), max_len);
        for i in 0..max_len {
            let expected: f64 = parts
                .iter()
                .map(|p| p.get(i).copied().unwrap_or(0) as f64)
                .sum();
            prop_assert!((merged.get(i) - expected).abs() < 1e-9);
        }
    }

    /// Snapshot-to-entries must equal live export for every structure type.
    #[test]
    fn snapshot_entries_equal_live_export(
        table_ops in arb_table_ops(),
        cells in prop::collection::vec((0i64..8, 0i64..8, 1i64..10), 0..16),
        dense in prop::collection::vec(-10i64..10, 0..300),
    ) {
        let mut stores = Vec::new();
        let mut t = StateStore::new(StateType::Table);
        for op in &table_ops {
            apply_table(t.as_table().unwrap(), op);
        }
        stores.push(t);
        let mut m = StateStore::new(StateType::Matrix);
        for &(r, c, v) in &cells {
            m.as_matrix().unwrap().set(r, c, v as f64);
        }
        stores.push(m);
        let mut v = StateStore::new(StateType::Vector);
        for (i, &x) in dense.iter().enumerate() {
            v.as_vector().unwrap().set(i, x as f64);
        }
        stores.push(v);

        for mut store in stores {
            let mut live = store.export_entries();
            let snap = store.begin_checkpoint().unwrap();
            let mut from_snap = Vec::new();
            snap.for_each_entry(|key, encode_value| {
                let mut value = bytes::BytesMut::new();
                encode_value(&mut value);
                from_snap.push(StateEntry::new(encode_to_vec(key), value.freeze()));
            });
            store.consolidate().unwrap();
            live.sort_by(|a, b| a.key.cmp(&b.key));
            from_snap.sort_by(|a, b| a.key.cmp(&b.key));
            prop_assert_eq!(live, from_snap);
        }
    }
}
