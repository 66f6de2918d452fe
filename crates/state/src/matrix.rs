//! A row-indexed sparse matrix with dirty-state checkpointing.
//!
//! Backs both matrices of the collaborative filtering algorithm (§2.1):
//! `userItem` (partitioned by row = user) and `coOcc` (partial, replicated,
//! randomly accessed). Rows are hash maps from column index to `f64`.
//!
//! Both levels are keyed by [`HashedIndex`]: an index with its hash,
//! computed once from one process-wide [`RandomState`] (std's keyed
//! SipHash, since row and column indices arrive in requests), and handed to
//! the map unchanged by [`StoredHash`].
//!
//! Cost model, with `c` the cells of one row and `x` the entries of a
//! vector. While a checkpoint is outstanding, writes land in a dirty
//! overlay keyed by row the same way, so every bound below holds with the
//! overlay's row added to `c`; nothing scans the whole overlay.
//! - `get`, `set`, `add`: each index is hashed once, then one probe per
//!   level (row, then column) in the overlay and the base alike.
//! - `row`: O(c log c); builds and sorts that row only.
//! - `multiply`: hashes each entry of `x` once per call, then one pass
//!   over the rows, each costing min(x, c) lookups (probe `x`'s hashed
//!   columns in the row, or walk the row and binary-search `x`), then a
//!   sort of the non-zero results. No row is copied and no index is hashed
//!   again; the only allocations are the output and the hashed copy of
//!   `x`.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use sdg_common::codec::encode_to_vec;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::value::{Key, Value};

use crate::entry::StateEntry;
use crate::partition::{KeyLayout, PartitionDim};

/// A row or column index with its keyed hash, computed once.
///
/// Two keys compare by index alone; the hash is a function of the index
/// (one set of keys per process), so equal keys hash equally.
#[derive(Debug, Clone, Copy)]
pub struct HashedIndex {
    index: i64,
    hash: u64,
}

impl HashedIndex {
    pub(crate) fn new(index: i64) -> Self {
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        HashedIndex {
            index,
            hash: KEYS.get_or_init(RandomState::new).hash_one(index),
        }
    }

    pub(crate) fn index(self) -> i64 {
        self.index
    }
}

impl PartialEq for HashedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}

impl Eq for HashedIndex {}

impl Hash for HashedIndex {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The hasher of the matrix maps: hands a [`HashedIndex`]'s stored hash
/// to the map unchanged.
#[derive(Debug, Default)]
pub struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("matrix maps hash only HashedIndex keys");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The cells of one row, by column.
pub type Cells = HashMap<HashedIndex, f64, BuildHasherDefault<StoredHash>>;

/// A matrix's rows, by row index: what a checkpoint snapshot holds.
pub type Rows = HashMap<HashedIndex, Cells, BuildHasherDefault<StoredHash>>;

/// A mutable sparse matrix supporting dirty-state checkpoints.
#[derive(Debug, Clone, Default)]
pub struct SparseMatrix {
    base: Arc<Rows>,
    /// Writes performed while a checkpoint snapshot is outstanding, keyed
    /// by row like `base` so per-row reads never scan the whole overlay.
    dirty: Option<Rows>,
    /// Cells held by `dirty`.
    dirty_cells: usize,
    nnz: usize,
}

/// The visible cells of one row: the overlay's row shadowing the base's.
#[derive(Clone, Copy)]
struct RowView<'a> {
    base: Option<&'a Cells>,
    over: Option<&'a Cells>,
}

impl RowView<'_> {
    fn get(self, col: &HashedIndex) -> Option<f64> {
        self.over
            .and_then(|o| o.get(col))
            .or_else(|| self.base.and_then(|b| b.get(col)))
            .copied()
    }

    /// Upper bound on the visible cells (exact outside a checkpoint).
    fn len_bound(self) -> usize {
        self.base.map_or(0, Cells::len) + self.over.map_or(0, Cells::len)
    }

    /// Visits every visible cell once, in unspecified order.
    fn for_each(self, mut f: impl FnMut(HashedIndex, f64)) {
        for (&c, &v) in self.over.into_iter().flatten() {
            f(c, v);
        }
        for (&c, &v) in self.base.into_iter().flatten() {
            if !self.over.is_some_and(|o| o.contains_key(&c)) {
                f(c, v);
            }
        }
    }
}

/// The hash that places cell `(row, col)` along `dim`: its row's or its
/// column's index, hashed as a `Key::Int`.
pub(crate) fn owner_hash(dim: PartitionDim, row: i64, col: i64) -> u64 {
    let key = match dim {
        PartitionDim::Row => row,
        PartitionDim::Col => col,
    };
    Key::Int(key).stable_hash()
}

/// The entry value of one row: its `(col, value)` cells as a list of
/// `[col, value]` pairs in column order. Its key is the row index.
pub(crate) fn row_value(mut cells: Vec<(i64, f64)>) -> Value {
    cells.sort_unstable_by_key(|&(c, _)| c);
    Value::Pairs(cells.into())
}

impl SparseMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the number of explicitly stored (non-zero at write time)
    /// elements.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Returns `true` if nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.nnz == 0
    }

    /// Approximates the in-memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        // Row key + column key + value + per-entry bookkeeping.
        self.nnz * 32
    }

    /// Returns `true` while a checkpoint snapshot is outstanding.
    pub fn is_checkpointing(&self) -> bool {
        self.dirty.is_some()
    }

    /// Approximate bytes held by the dirty overlay (0 outside a
    /// checkpoint).
    pub fn dirty_bytes(&self) -> usize {
        self.dirty_cells * 32
    }

    fn row_view(&self, row: &HashedIndex) -> RowView<'_> {
        RowView {
            base: self.base.get(row),
            over: self.dirty.as_ref().and_then(|d| d.get(row)),
        }
    }

    /// Visits every row with a visible cell once, in unspecified order.
    fn for_each_row(&self, mut f: impl FnMut(HashedIndex, RowView<'_>)) {
        let dirty = self.dirty.as_ref().filter(|d| !d.is_empty());
        for (&row, cells) in self.base.iter() {
            let over = dirty.and_then(|d| d.get(&row));
            f(
                row,
                RowView {
                    base: Some(cells),
                    over,
                },
            );
        }
        for (&row, cells) in dirty.into_iter().flatten() {
            if !self.base.contains_key(&row) {
                f(
                    row,
                    RowView {
                        base: None,
                        over: Some(cells),
                    },
                );
            }
        }
    }

    /// Visits every visible cell once, in unspecified order.
    fn for_each_cell(&self, mut f: impl FnMut(HashedIndex, HashedIndex, f64)) {
        self.for_each_row(|row, cells| cells.for_each(|col, v| f(row, col, v)));
    }

    /// Reads element `(row, col)`; absent elements read as `0.0`.
    pub fn get(&self, row: i64, col: i64) -> f64 {
        self.row_view(&HashedIndex::new(row))
            .get(&HashedIndex::new(col))
            .unwrap_or(0.0)
    }

    /// Writes element `(row, col)`.
    pub fn set(&mut self, row: i64, col: i64, value: f64) {
        self.update(HashedIndex::new(row), HashedIndex::new(col), |_| value);
    }

    /// Adds `delta` to element `(row, col)`.
    pub fn add(&mut self, row: i64, col: i64, delta: f64) {
        self.update(HashedIndex::new(row), HashedIndex::new(col), |v| v + delta);
    }

    /// Writes `f(current)` to `(row, col)`, an absent cell reading `0.0`,
    /// with one probe into the row that takes the write.
    fn update(&mut self, row: HashedIndex, col: HashedIndex, f: impl FnOnce(f64) -> f64) {
        match &mut self.dirty {
            Some(dirty) => match dirty.entry(row).or_default().entry(col) {
                Entry::Occupied(mut e) => {
                    let v = e.get_mut();
                    *v = f(*v);
                }
                Entry::Vacant(e) => {
                    let below = self.base.get(&row).and_then(|r| r.get(&col)).copied();
                    if below.is_none() {
                        self.nnz += 1;
                    }
                    self.dirty_cells += 1;
                    e.insert(f(below.unwrap_or(0.0)));
                }
            },
            None => match Arc::make_mut(&mut self.base)
                .entry(row)
                .or_default()
                .entry(col)
            {
                Entry::Occupied(mut e) => {
                    let v = e.get_mut();
                    *v = f(*v);
                }
                Entry::Vacant(e) => {
                    self.nnz += 1;
                    e.insert(f(0.0));
                }
            },
        }
    }

    /// Returns the visible contents of `row` as `(col, value)` pairs sorted
    /// by column.
    pub fn row(&self, row: i64) -> Vec<(i64, f64)> {
        let cells = self.row_view(&HashedIndex::new(row));
        let mut out = Vec::with_capacity(cells.len_bound());
        cells.for_each(|c, v| out.push((c.index, v)));
        out.sort_unstable_by_key(|&(c, _)| c);
        out
    }

    /// Returns the sorted list of row indices with stored elements.
    pub fn row_indices(&self) -> Vec<i64> {
        let mut rows = Vec::with_capacity(self.base.len());
        self.for_each_row(|row, _| rows.push(row.index));
        rows.sort_unstable();
        rows
    }

    /// Computes the matrix–vector product `M · x` for a sparse vector `x`
    /// given as `(index, value)` pairs; on a duplicate index the last pair
    /// wins.
    ///
    /// Returns the non-zero results as `(row, value)` pairs sorted by row.
    /// Each result accumulates its products in ascending column order, so
    /// it does not depend on which side of a row is walked. This is the
    /// `coOcc.multiply(userRow)` operation of Alg. 1 line 16.
    pub fn multiply(&self, x: &[(i64, f64)]) -> Vec<(i64, f64)> {
        // x's columns, each hashed once for every row's probes.
        let mut x: Vec<(HashedIndex, f64)> =
            x.iter().map(|&(c, v)| (HashedIndex::new(c), v)).collect();
        if !x.windows(2).all(|w| w[0].0.index < w[1].0.index) {
            x.sort_by_key(|&(c, _)| c.index); // Stable: duplicates keep their order.
            x.dedup_by(|later, kept| {
                let dup = later.0 == kept.0;
                if dup {
                    *kept = *later;
                }
                dup
            });
        }
        let mut out: Vec<(i64, f64)> = Vec::new();
        self.for_each_row(|row, cells| {
            let acc = if x.len() <= cells.len_bound() {
                // Probe x's columns in the row; x is already ascending.
                x.iter().fold(0.0, |acc, (c, xv)| match cells.get(c) {
                    Some(v) => acc + v * xv,
                    None => acc,
                })
            } else {
                // Walk the shorter row. Its products are staged past the
                // end of `out` and summed in ascending column order there.
                let mark = out.len();
                cells.for_each(|c, v| {
                    if let Ok(i) = x.binary_search_by_key(&c.index, |&(xc, _)| xc.index) {
                        out.push((c.index, v * x[i].1));
                    }
                });
                out[mark..].sort_unstable_by_key(|&(c, _)| c);
                let acc = out[mark..].iter().fold(0.0, |acc, &(_, p)| acc + p);
                out.truncate(mark);
                acc
            };
            if acc != 0.0 {
                out.push((row.index, acc));
            }
        });
        out.sort_unstable_by_key(|&(r, _)| r);
        out
    }

    /// Begins a checkpoint: flips into dirty mode and returns a consistent
    /// snapshot of the base rows in O(1).
    pub fn begin_checkpoint(&mut self) -> SdgResult<Arc<Rows>> {
        if self.dirty.is_some() {
            return Err(SdgError::State(
                "checkpoint already in progress on this matrix".into(),
            ));
        }
        self.dirty = Some(Rows::default());
        Ok(Arc::clone(&self.base))
    }

    /// Folds dirty writes into the base, ending dirty mode.
    pub fn consolidate(&mut self) -> SdgResult<()> {
        let dirty = self
            .dirty
            .take()
            .ok_or_else(|| SdgError::State("consolidate without begin_checkpoint".into()))?;
        self.dirty_cells = 0;
        let base = Arc::make_mut(&mut self.base);
        for (row, cells) in dirty {
            base.entry(row).or_default().extend(cells);
        }
        Ok(())
    }

    /// Exports the visible state, one entry per row.
    ///
    /// The key is the encoded row index; the value encodes the row as a list
    /// of `[col, value]` pairs. [`StateStore::import_entries`] reads them
    /// back.
    ///
    /// [`StateStore::import_entries`]: crate::store::StateStore::import_entries
    pub fn export_entries(&self) -> Vec<StateEntry> {
        let mut out = Vec::new();
        for row in self.row_indices() {
            let cells = self.row(row);
            if cells.is_empty() {
                continue;
            }
            out.push(StateEntry::new(
                encode_to_vec(&Key::Int(row)),
                encode_to_vec(&row_value(cells)),
            ));
        }
        out
    }

    /// Splits the matrix into `n` disjoint stripes along `dim`: a cell goes
    /// to stripe [`KeyLayout::stripe`] of its row's (or column's) hash.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split_by_hash(&self, dim: PartitionDim, n: usize) -> Vec<SparseMatrix> {
        assert!(n > 0, "partition count must be positive");
        let mut parts: Vec<SparseMatrix> = (0..n).map(|_| SparseMatrix::new()).collect();
        self.for_each_cell(|row, col, v| {
            parts[KeyLayout::stripe(owner_hash(dim, row.index, col.index), n)].update(
                row,
                col,
                |_| v,
            )
        });
        parts
    }

    /// Adds every element of `other` into `self` (elementwise sum).
    ///
    /// This is one natural reconciliation for partial co-occurrence
    /// matrices, exposed for ablation experiments.
    pub fn absorb_add(&mut self, other: &SparseMatrix) {
        other.for_each_cell(|row, col, v| self.update(row, col, |x| x + v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StateStore, StateType};

    #[test]
    fn get_defaults_to_zero() {
        let m = SparseMatrix::new();
        assert_eq!(m.get(5, 9), 0.0);
        assert!(m.is_empty());
    }

    #[test]
    fn set_get_add() {
        let mut m = SparseMatrix::new();
        m.set(1, 2, 3.0);
        assert_eq!(m.get(1, 2), 3.0);
        m.add(1, 2, 1.5);
        assert_eq!(m.get(1, 2), 4.5);
        m.add(0, 0, 2.0);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn nnz_counts_distinct_cells_once() {
        let mut m = SparseMatrix::new();
        m.set(1, 1, 1.0);
        m.set(1, 1, 2.0);
        assert_eq!(m.nnz(), 1);
        m.set(1, 2, 1.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn row_is_sorted_by_column() {
        let mut m = SparseMatrix::new();
        m.set(3, 9, 1.0);
        m.set(3, 1, 2.0);
        m.set(3, 5, 3.0);
        assert_eq!(m.row(3), vec![(1, 2.0), (5, 3.0), (9, 1.0)]);
        assert!(m.row(99).is_empty());
    }

    #[test]
    fn multiply_matches_dense_computation() {
        // M = [[1,2],[0,3]] (rows 0,1; cols 0,1), x = [4, 5].
        let mut m = SparseMatrix::new();
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 1, 3.0);
        let result = m.multiply(&[(0, 4.0), (1, 5.0)]);
        assert_eq!(result, vec![(0, 14.0), (1, 15.0)]);
    }

    #[test]
    fn multiply_with_disjoint_support_is_empty() {
        let mut m = SparseMatrix::new();
        m.set(0, 0, 1.0);
        assert!(m.multiply(&[(5, 1.0)]).is_empty());
    }

    #[test]
    fn multiply_takes_the_last_duplicate_and_ignores_order() {
        let mut m = SparseMatrix::new();
        m.set(0, 1, 2.0);
        m.set(0, 3, 1.0);
        // Probe side (x no longer than the row) and walk side (x longer).
        assert_eq!(m.multiply(&[(3, 5.0), (1, 1.0), (1, 4.0)]), vec![(0, 13.0)]);
        assert_eq!(
            m.multiply(&[(7, 1.0), (3, 5.0), (1, 1.0), (1, 4.0), (0, 9.0)]),
            vec![(0, 13.0)]
        );
    }

    #[test]
    fn dirty_mode_merges_reads() {
        let mut m = SparseMatrix::new();
        m.set(1, 1, 1.0);
        m.set(1, 2, 2.0);
        let snap = m.begin_checkpoint().unwrap();
        m.set(1, 1, 10.0);
        m.set(2, 1, 5.0);

        assert_eq!(m.get(1, 1), 10.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.row(1), vec![(1, 10.0), (2, 2.0)]);
        assert_eq!(m.row_indices(), vec![1, 2]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.dirty_bytes(), 2 * 32);

        // The snapshot still holds the pre-checkpoint values.
        let (one, two) = (HashedIndex::new(1), HashedIndex::new(2));
        assert_eq!(snap.get(&one).unwrap().get(&one), Some(&1.0));
        assert!(!snap.contains_key(&two));

        m.consolidate().unwrap();
        assert_eq!(m.get(1, 1), 10.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.dirty_bytes(), 0);
    }

    #[test]
    fn checkpoint_protocol_is_enforced() {
        let mut m = SparseMatrix::new();
        assert!(m.consolidate().is_err());
        let _s = m.begin_checkpoint().unwrap();
        assert!(m.begin_checkpoint().is_err());
    }

    #[test]
    fn export_import_roundtrips() {
        let mut m = SparseMatrix::new();
        for r in 0..10 {
            for c in 0..5 {
                m.set(r, c, (r * 10 + c) as f64);
            }
        }
        let entries = m.export_entries();
        assert_eq!(entries.len(), 10); // One per row.
        let mut store = StateStore::new(StateType::Matrix);
        store.import_entries(&entries).unwrap();
        let m2 = store.as_matrix().unwrap();
        assert_eq!(m2.nnz(), m.nnz());
        for r in 0..10 {
            assert_eq!(m2.row(r), m.row(r));
        }
    }

    #[test]
    fn split_by_row_and_merge_preserves_elements() {
        let mut m = SparseMatrix::new();
        for r in 0..30 {
            m.set(r, r % 7, 1.0 + r as f64);
        }
        let parts = m.split_by_hash(PartitionDim::Row, 3);
        assert_eq!(parts.iter().map(SparseMatrix::nnz).sum::<usize>(), 30);
        let mut merged = SparseMatrix::new();
        for p in &parts {
            merged.absorb_add(p);
        }
        for r in 0..30 {
            assert_eq!(merged.get(r, r % 7), 1.0 + r as f64);
        }
    }

    #[test]
    fn split_by_col_partitions_on_column_hash() {
        let mut m = SparseMatrix::new();
        for c in 0..20 {
            m.set(0, c, c as f64 + 1.0);
        }
        let parts = m.split_by_hash(PartitionDim::Col, 4);
        for (idx, p) in parts.iter().enumerate() {
            for (col, _) in p.row(0) {
                assert_eq!((Key::Int(col).stable_hash() % 4) as usize, idx);
            }
        }
    }

    #[test]
    fn absorb_add_sums_overlapping_cells() {
        let mut a = SparseMatrix::new();
        a.set(1, 1, 2.0);
        let mut b = SparseMatrix::new();
        b.set(1, 1, 3.0);
        b.set(2, 2, 4.0);
        a.absorb_add(&b);
        assert_eq!(a.get(1, 1), 5.0);
        assert_eq!(a.get(2, 2), 4.0);
    }
}
