//! A uniform, enum-dispatched view over all SE data structures.
//!
//! The runtime stores every SE instance as a [`StateStore`] so task-element
//! code (interpreted or native) and the checkpoint subsystem can operate on
//! state without knowing the concrete structure. Enum dispatch keeps the
//! hot path free of virtual calls and the whole workspace free of `unsafe`.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::BytesMut;
use sdg_common::codec::{decode_from_slice, Codec};
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::value::{Key, Value};

use crate::dense::{block_value, DenseVector, EXPORT_BLOCK};
use crate::entry::StateEntry;
use crate::matrix::{owner_hash, row_value, SparseMatrix};
use crate::partition::PartitionDim;
use crate::table::KeyedTable;

/// The declared structure of a state element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateType {
    /// A key/value dictionary ([`KeyedTable`]).
    Table,
    /// A sparse matrix ([`SparseMatrix`]).
    Matrix,
    /// A dense vector ([`DenseVector`]).
    Vector,
}

impl std::fmt::Display for StateType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateType::Table => write!(f, "Table"),
            StateType::Matrix => write!(f, "Matrix"),
            StateType::Vector => write!(f, "Vector"),
        }
    }
}

/// One runtime instance of a state element.
#[derive(Debug, Clone)]
pub enum StateStore {
    /// A key/value table.
    Table(KeyedTable),
    /// A sparse matrix.
    Matrix(SparseMatrix),
    /// A dense vector.
    Vector(DenseVector),
}

impl StateStore {
    /// Creates an empty store of the given type.
    pub fn new(ty: StateType) -> Self {
        match ty {
            StateType::Table => StateStore::Table(KeyedTable::new()),
            StateType::Matrix => StateStore::Matrix(SparseMatrix::new()),
            StateType::Vector => StateStore::Vector(DenseVector::new()),
        }
    }

    /// Returns the structure type.
    pub fn state_type(&self) -> StateType {
        match self {
            StateStore::Table(_) => StateType::Table,
            StateStore::Matrix(_) => StateType::Matrix,
            StateStore::Vector(_) => StateType::Vector,
        }
    }

    /// Approximates the in-memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            StateStore::Table(t) => t.approx_bytes(),
            StateStore::Matrix(m) => m.approx_bytes(),
            StateStore::Vector(v) => v.approx_bytes(),
        }
    }

    /// Returns `true` while a checkpoint snapshot is outstanding.
    pub fn is_checkpointing(&self) -> bool {
        match self {
            StateStore::Table(t) => t.is_checkpointing(),
            StateStore::Matrix(m) => m.is_checkpointing(),
            StateStore::Vector(v) => v.is_checkpointing(),
        }
    }

    /// Approximate bytes held by the dirty overlay (0 outside a
    /// checkpoint).
    pub fn dirty_bytes(&self) -> usize {
        match self {
            StateStore::Table(t) => t.dirty_bytes(),
            StateStore::Matrix(m) => m.dirty_bytes(),
            StateStore::Vector(v) => v.dirty_bytes(),
        }
    }

    /// Enables dirty-chunk tracking, so checkpoints can write delta
    /// generations.
    ///
    /// Returns `true` when the structure supports tracking (tables);
    /// matrices and dense vectors track nothing, so every checkpoint of
    /// them is a base, and return `false`.
    pub fn enable_chunk_tracking(&mut self, chunks: usize) -> bool {
        match self {
            StateStore::Table(t) => {
                t.enable_chunk_tracking(chunks);
                true
            }
            StateStore::Matrix(_) | StateStore::Vector(_) => false,
        }
    }

    /// Returns the tracked chunk-space size, or `None` when tracking is off.
    pub fn tracked_chunks(&self) -> Option<usize> {
        match self {
            StateStore::Table(t) => t.tracked_chunks(),
            StateStore::Matrix(_) | StateStore::Vector(_) => None,
        }
    }

    /// Number of chunks currently marked dirty (0 when tracking is off).
    pub fn dirty_chunk_count(&self) -> usize {
        match self {
            StateStore::Table(t) => t.dirty_chunk_count(),
            StateStore::Matrix(_) | StateStore::Vector(_) => 0,
        }
    }

    /// Takes and clears the set of dirty chunk ids (sorted).
    ///
    /// `None` when tracking is not enabled for this structure.
    pub fn take_dirty_chunks(&mut self) -> Option<Vec<u32>> {
        match self {
            StateStore::Table(t) => t.take_dirty_chunks(),
            StateStore::Matrix(_) | StateStore::Vector(_) => None,
        }
    }

    /// Marks every tracked chunk dirty (used after failed checkpoints and
    /// bulk mutations that bypass `put`/`remove`).
    pub fn mark_all_dirty(&mut self) {
        if let StateStore::Table(t) = self {
            t.mark_all_dirty();
        }
    }

    /// Accesses the table variant.
    pub fn as_table(&mut self) -> SdgResult<&mut KeyedTable> {
        match self {
            StateStore::Table(t) => Ok(t),
            other => Err(SdgError::type_mismatch("Table", other.type_name())),
        }
    }

    /// Accesses the matrix variant.
    pub fn as_matrix(&mut self) -> SdgResult<&mut SparseMatrix> {
        match self {
            StateStore::Matrix(m) => Ok(m),
            other => Err(SdgError::type_mismatch("Matrix", other.type_name())),
        }
    }

    /// Accesses the vector variant.
    pub fn as_vector(&mut self) -> SdgResult<&mut DenseVector> {
        match self {
            StateStore::Vector(v) => Ok(v),
            other => Err(SdgError::type_mismatch("Vector", other.type_name())),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            StateStore::Table(_) => "Table",
            StateStore::Matrix(_) => "Matrix",
            StateStore::Vector(_) => "Vector",
        }
    }

    /// Begins a checkpoint, returning an O(1) consistent snapshot and
    /// flipping the structure into dirty mode (§5).
    pub fn begin_checkpoint(&mut self) -> SdgResult<StateSnapshot> {
        match self {
            StateStore::Table(t) => Ok(StateSnapshot::Table(t.begin_checkpoint()?)),
            StateStore::Matrix(m) => Ok(StateSnapshot::Matrix(m.begin_checkpoint()?)),
            StateStore::Vector(v) => Ok(StateSnapshot::Vector(v.begin_checkpoint()?)),
        }
    }

    /// Folds dirty writes into the base structure, ending dirty mode.
    pub fn consolidate(&mut self) -> SdgResult<()> {
        match self {
            StateStore::Table(t) => t.consolidate(),
            StateStore::Matrix(m) => m.consolidate(),
            StateStore::Vector(v) => v.consolidate(),
        }
    }

    /// Exports the visible state as canonical entries.
    pub fn export_entries(&self) -> Vec<StateEntry> {
        match self {
            StateStore::Table(t) => t.export_entries(),
            StateStore::Matrix(m) => m.export_entries(),
            StateStore::Vector(v) => v.export_entries(),
        }
    }

    /// Imports entries previously produced by the same structure type,
    /// overwriting what the store holds under their keys.
    pub fn import_entries(&mut self, entries: &[StateEntry]) -> SdgResult<()> {
        let shard = std::slice::from_mut(self);
        for e in entries {
            place_entry(shard, PartitionDim::Row, &e.key, &e.value, |_| 0)?;
        }
        Ok(())
    }

    /// Reserves room for `additional` more entries (tables only; the other
    /// structures do not pre-size).
    pub fn reserve(&mut self, additional: usize) {
        if let StateStore::Table(t) = self {
            t.reserve(additional);
        }
    }

    /// Merges `entries` into this store **additively**: numeric values are
    /// summed with whatever the store already holds instead of overwriting
    /// it (the folding direction of a `@Partial` merge, where each replica
    /// contributes an independent partial aggregate).
    ///
    /// - Tables: `Int`/`Float` values are summed per key; equal-length
    ///   numeric lists are summed element-wise; anything else overwrites
    ///   (matching [`StateStore::import_entries`] for non-additive values).
    /// - Matrices: cell-wise sum.
    /// - Vectors: element-wise sum, extending the length as needed.
    pub fn merge_additive(&mut self, entries: &[StateEntry]) -> SdgResult<()> {
        match self {
            StateStore::Table(t) => {
                for e in entries {
                    let key: Key = sdg_common::codec::decode_from_slice(&e.key)?;
                    let incoming: Value = sdg_common::codec::decode_from_slice(&e.value)?;
                    let merged = match (t.get(&key), incoming) {
                        (Some(Value::Int(a)), Value::Int(b)) => Value::Int(a + b),
                        (Some(Value::Float(a)), Value::Float(b)) => Value::Float(a + b),
                        (Some(Value::Int(a)), Value::Float(b)) => Value::Float(a as f64 + b),
                        (Some(Value::Float(a)), Value::Int(b)) => Value::Float(a + b as f64),
                        (Some(Value::List(a)), Value::List(b)) if a.len() == b.len() => match a
                            .iter()
                            .zip(&b)
                            .map(|(x, y)| match (x, y) {
                                (Value::Int(x), Value::Int(y)) => Some(Value::Int(x + y)),
                                (Value::Float(x), Value::Float(y)) => Some(Value::Float(x + y)),
                                _ => None,
                            })
                            .collect::<Option<Vec<Value>>>()
                        {
                            Some(summed) => Value::List(summed),
                            None => Value::List(b),
                        },
                        (_, incoming) => incoming,
                    };
                    t.put(key, merged);
                }
                Ok(())
            }
            StateStore::Matrix(m) => {
                let mut other = StateStore::new(StateType::Matrix);
                other.import_entries(entries)?;
                m.absorb_add(other.as_matrix()?);
                Ok(())
            }
            StateStore::Vector(v) => {
                let mut other = StateStore::new(StateType::Vector);
                other.import_entries(entries)?;
                let other = other.as_vector()?;
                for i in 0..other.len() {
                    let delta = other.get(i);
                    if delta != 0.0 {
                        v.add(i, delta);
                    }
                }
                Ok(())
            }
        }
    }

    /// Splits a partitioned SE into `n` disjoint instances.
    ///
    /// `dim` selects the matrix axis and is ignored for tables. Dense
    /// vectors do not support partitioning (they are partial-only state) and
    /// report an error.
    pub fn split_by_hash(&self, n: usize, dim: PartitionDim) -> SdgResult<Vec<StateStore>> {
        match self {
            StateStore::Table(t) => Ok(t
                .split_by_hash(n)
                .into_iter()
                .map(StateStore::Table)
                .collect()),
            StateStore::Matrix(m) => Ok(m
                .split_by_hash(dim, n)
                .into_iter()
                .map(StateStore::Matrix)
                .collect()),
            StateStore::Vector(_) => Err(SdgError::State(
                "dense vectors cannot be partitioned; declare them @Partial".into(),
            )),
        }
    }

    /// Drops all entries not belonging to partition `idx` of `n`.
    pub fn retain_partition(&mut self, idx: usize, n: usize, dim: PartitionDim) -> SdgResult<()> {
        match self {
            StateStore::Table(t) => {
                t.retain_partition(idx, n);
                Ok(())
            }
            StateStore::Matrix(m) => {
                m.retain_partition(dim, idx, n);
                Ok(())
            }
            StateStore::Vector(_) => Err(SdgError::State(
                "dense vectors cannot be partitioned; declare them @Partial".into(),
            )),
        }
    }
}

/// An immutable, consistent snapshot of one SE instance.
///
/// Snapshots are `Arc` clones of the base structure, so they can be
/// serialised from a checkpoint thread while processing continues on the
/// dirty overlay.
#[derive(Debug, Clone)]
pub enum StateSnapshot {
    /// Snapshot of a [`KeyedTable`].
    Table(Arc<HashMap<Key, Value>>),
    /// Snapshot of a [`SparseMatrix`] (rows map).
    Matrix(Arc<HashMap<i64, HashMap<i64, f64>>>),
    /// Snapshot of a [`DenseVector`].
    Vector(Arc<Vec<f64>>),
}

impl StateSnapshot {
    /// Returns the structure type the snapshot came from.
    pub fn state_type(&self) -> StateType {
        match self {
            StateSnapshot::Table(_) => StateType::Table,
            StateSnapshot::Matrix(_) => StateType::Matrix,
            StateSnapshot::Vector(_) => StateType::Vector,
        }
    }

    /// Approximates the snapshot size in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            StateSnapshot::Table(map) => map
                .iter()
                .map(|(k, v)| k.approx_size() + v.approx_size() + 16)
                .sum(),
            StateSnapshot::Matrix(rows) => rows.values().map(|r| r.len() * 32).sum(),
            StateSnapshot::Vector(v) => v.len() * 8,
        }
    }

    /// Visits every entry of the snapshot, in unspecified order, as the key
    /// it is exported under plus an encoder that appends the canonical
    /// encoding of its value.
    ///
    /// The key is the entry's identity everywhere: its chunk is
    /// `Key::stable_hash() % chunks`, the id the dirty-chunk tracker marks.
    /// A caller that skips an entry pays for its key only; nothing is
    /// allocated until the value is encoded. This runs on the checkpoint
    /// thread, off the processing path.
    pub fn for_each_entry(&self, mut f: impl FnMut(&Key, &dyn Fn(&mut BytesMut))) {
        match self {
            StateSnapshot::Table(map) => {
                for (k, v) in map.iter() {
                    f(k, &|buf| v.encode(buf));
                }
            }
            StateSnapshot::Matrix(rows) => {
                for (&row, cells) in rows.iter() {
                    if cells.is_empty() {
                        continue;
                    }
                    f(&Key::Int(row), &|buf| {
                        row_value(cells.iter().map(|(&c, &v)| (c, v)).collect()).encode(buf)
                    });
                }
            }
            StateSnapshot::Vector(values) => {
                for (b, block) in values.chunks(EXPORT_BLOCK).enumerate() {
                    let start = Key::Int((b * EXPORT_BLOCK) as i64);
                    f(&start, &|buf| {
                        block_value(block.iter().copied()).encode(buf)
                    });
                }
            }
        }
    }
}

/// Decodes one exported entry of the structure `shards` hold and inserts
/// it, piece by piece, into the shard `shard_of` picks from each piece's
/// owner hash.
///
/// The owner hash is the one [`StateStore::split_by_hash`] partitions by:
/// a table key's stable hash, and a matrix cell's row or column index
/// (along `dim`) hashed as a `Key::Int`, so a row of a column-partitioned
/// matrix lands cell by cell. A dense-vector block is placed whole by its
/// start index. With one shard nothing is hashed. This is the one decoder
/// of the entry format: [`StateStore::import_entries`] and checkpoint
/// restore both use it.
///
/// # Errors
///
/// Fails when the key or value does not decode, or does not describe an
/// entry of the shards' structure.
///
/// # Panics
///
/// Panics if `shards` is empty or `shard_of` returns an index out of range.
pub fn place_entry(
    shards: &mut [StateStore],
    dim: PartitionDim,
    key: &[u8],
    value: &[u8],
    shard_of: impl Fn(u64) -> usize,
) -> SdgResult<()> {
    let single = shards.len() == 1;
    let pick = |hash: &dyn Fn() -> u64| if single { 0 } else { shard_of(hash()) };
    let key: Key = decode_from_slice(key)?;
    let value: Value = decode_from_slice(value)?;
    match shards[0].state_type() {
        StateType::Table => {
            let idx = pick(&|| key.stable_hash());
            shards[idx].as_table()?.put(key, value);
        }
        StateType::Matrix => {
            let Key::Int(row) = key else {
                return Err(SdgError::State("matrix entry key must be Int".into()));
            };
            for cell in value.as_list()? {
                let pair = cell.as_list()?;
                if pair.len() != 2 {
                    return Err(SdgError::State("matrix cell must be [col, value]".into()));
                }
                let col = pair[0].as_int()?;
                let idx = pick(&|| owner_hash(dim, row, col));
                shards[idx].as_matrix()?.set(row, col, pair[1].as_float()?);
            }
        }
        StateType::Vector => {
            let Key::Int(start) = key else {
                return Err(SdgError::State("vector entry key must be Int".into()));
            };
            let idx = pick(&|| key.stable_hash());
            let start = usize::try_from(start)
                .map_err(|_| SdgError::State("vector entry key must be non-negative".into()))?;
            let vector = shards[idx].as_vector()?;
            for (offset, cell) in value.as_list()?.iter().enumerate() {
                vector.set(start + offset, cell.as_float()?);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::codec::encode_to_vec;

    /// The snapshot's entries in canonical encoding.
    fn entries_of(snap: &StateSnapshot) -> Vec<StateEntry> {
        let mut out = Vec::new();
        snap.for_each_entry(|key, encode_value| {
            let mut value = BytesMut::new();
            encode_value(&mut value);
            out.push(StateEntry::new(encode_to_vec(key), value.freeze()));
        });
        out
    }

    #[test]
    fn new_creates_matching_type() {
        for ty in [StateType::Table, StateType::Matrix, StateType::Vector] {
            assert_eq!(StateStore::new(ty).state_type(), ty);
        }
    }

    #[test]
    fn typed_accessors_enforce_variant() {
        let mut s = StateStore::new(StateType::Table);
        assert!(s.as_table().is_ok());
        assert!(s.as_matrix().is_err());
        assert!(s.as_vector().is_err());
    }

    #[test]
    fn snapshot_entries_match_live_export() {
        let mut s = StateStore::new(StateType::Table);
        let t = s.as_table().unwrap();
        for i in 0..10 {
            t.put(Key::Int(i), Value::Int(i * 2));
        }
        let mut live = s.export_entries();
        let snap = s.begin_checkpoint().unwrap();
        let mut from_snap = entries_of(&snap);
        live.sort_by(|a, b| a.key.cmp(&b.key));
        from_snap.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(live, from_snap);
        s.consolidate().unwrap();
    }

    #[test]
    fn matrix_snapshot_roundtrips_through_entries() {
        let mut s = StateStore::new(StateType::Matrix);
        let m = s.as_matrix().unwrap();
        m.set(1, 2, 3.0);
        m.set(4, 5, 6.0);
        let snap = s.begin_checkpoint().unwrap();
        let entries = entries_of(&snap);
        s.consolidate().unwrap();
        let mut restored = StateStore::new(StateType::Matrix);
        restored.import_entries(&entries).unwrap();
        assert_eq!(restored.as_matrix().unwrap().get(1, 2), 3.0);
        assert_eq!(restored.as_matrix().unwrap().get(4, 5), 6.0);
    }

    #[test]
    fn vector_snapshot_roundtrips_through_entries() {
        let mut s = StateStore::new(StateType::Vector);
        s.as_vector().unwrap().set(300, 1.5);
        let snap = s.begin_checkpoint().unwrap();
        let entries = entries_of(&snap);
        s.consolidate().unwrap();
        let mut restored = StateStore::new(StateType::Vector);
        restored.import_entries(&entries).unwrap();
        assert_eq!(restored.as_vector().unwrap().get(300), 1.5);
        assert_eq!(restored.as_vector().unwrap().len(), 301);
    }

    #[test]
    fn vectors_refuse_partitioning() {
        let s = StateStore::new(StateType::Vector);
        assert!(s.split_by_hash(2, PartitionDim::Row).is_err());
        let mut s = s;
        assert!(s.retain_partition(0, 2, PartitionDim::Row).is_err());
    }

    #[test]
    fn table_split_through_store_api() {
        let mut s = StateStore::new(StateType::Table);
        for i in 0..40 {
            s.as_table().unwrap().put(Key::Int(i), Value::Int(i));
        }
        let parts = s.split_by_hash(4, PartitionDim::Row).unwrap();
        let total: usize = parts
            .iter()
            .map(|p| match p {
                StateStore::Table(t) => t.len(),
                _ => panic!("expected table parts"),
            })
            .sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn chunk_tracking_dispatch_by_structure() {
        let mut table = StateStore::new(StateType::Table);
        assert!(table.enable_chunk_tracking(4));
        assert_eq!(table.tracked_chunks(), Some(4));
        assert_eq!(table.dirty_chunk_count(), 4);
        let mut matrix = StateStore::new(StateType::Matrix);
        assert!(!matrix.enable_chunk_tracking(4));
        assert_eq!(matrix.tracked_chunks(), None);
        assert_eq!(matrix.take_dirty_chunks(), None);
        let mut vector = StateStore::new(StateType::Vector);
        assert!(!vector.enable_chunk_tracking(4));
        vector.mark_all_dirty();
        assert_eq!(vector.dirty_chunk_count(), 0);
    }

    #[test]
    fn additive_merge_sums_table_values() {
        let mut a = StateStore::new(StateType::Table);
        a.as_table().unwrap().put(Key::Int(1), Value::Int(10));
        a.as_table().unwrap().put(Key::Int(2), Value::Float(1.5));
        a.as_table()
            .unwrap()
            .put(Key::Int(3), Value::List(vec![Value::Int(1), Value::Int(2)]));
        let mut b = StateStore::new(StateType::Table);
        b.as_table().unwrap().put(Key::Int(1), Value::Int(32));
        b.as_table().unwrap().put(Key::Int(2), Value::Float(0.5));
        b.as_table().unwrap().put(
            Key::Int(3),
            Value::List(vec![Value::Int(10), Value::Int(20)]),
        );
        b.as_table().unwrap().put(Key::Int(4), Value::Int(7));
        a.merge_additive(&b.export_entries()).unwrap();
        let t = a.as_table().unwrap();
        assert_eq!(t.get(&Key::Int(1)), Some(Value::Int(42)));
        assert_eq!(t.get(&Key::Int(2)), Some(Value::Float(2.0)));
        assert_eq!(
            t.get(&Key::Int(3)),
            Some(Value::List(vec![Value::Int(11), Value::Int(22)]))
        );
        // Keys absent on the receiving side are plain inserts.
        assert_eq!(t.get(&Key::Int(4)), Some(Value::Int(7)));
    }

    #[test]
    fn additive_merge_sums_matrices_and_vectors() {
        let mut a = StateStore::new(StateType::Matrix);
        a.as_matrix().unwrap().set(1, 2, 3.0);
        let mut b = StateStore::new(StateType::Matrix);
        b.as_matrix().unwrap().set(1, 2, 4.0);
        b.as_matrix().unwrap().set(9, 9, 1.0);
        a.merge_additive(&b.export_entries()).unwrap();
        assert_eq!(a.as_matrix().unwrap().get(1, 2), 7.0);
        assert_eq!(a.as_matrix().unwrap().get(9, 9), 1.0);

        let mut v = StateStore::new(StateType::Vector);
        v.as_vector().unwrap().set(0, 1.0);
        let mut w = StateStore::new(StateType::Vector);
        w.as_vector().unwrap().set(0, 2.0);
        w.as_vector().unwrap().set(5, 3.0);
        v.merge_additive(&w.export_entries()).unwrap();
        assert_eq!(v.as_vector().unwrap().get(0), 3.0);
        assert_eq!(v.as_vector().unwrap().get(5), 3.0);
        assert_eq!(v.as_vector().unwrap().len(), 6);
    }

    #[test]
    fn snapshot_size_reflects_contents() {
        let mut s = StateStore::new(StateType::Vector);
        s.as_vector().unwrap().set(999, 1.0);
        let snap = s.begin_checkpoint().unwrap();
        assert_eq!(snap.approx_bytes(), 1000 * 8);
        assert_eq!(snap.state_type(), StateType::Vector);
    }
}
