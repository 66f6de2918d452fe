//! A dense `f64` vector with dirty-state checkpointing.
//!
//! Backs the weight vector of logistic regression (§6.2) and the merged
//! recommendation vectors of collaborative filtering. Partial instances of a
//! `DenseVector` are reconciled by elementwise sum ([`DenseVector::merge_sum`]),
//! the `merge` function of Alg. 1 lines 20–25.

use std::collections::HashMap;
use std::sync::Arc;

use sdg_common::codec::{decode_from_slice, encode_to_vec};
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::value::{Key, Value};

use crate::entry::StateEntry;

/// Number of elements exported per checkpoint entry.
pub(crate) const EXPORT_BLOCK: usize = 256;

/// The checkpoint entry of one block of elements starting at index
/// `start`: the key is the encoded start index, the value the list of
/// elements.
pub(crate) fn block_entry(start: usize, block: impl Iterator<Item = f64>) -> StateEntry {
    StateEntry::new(
        encode_to_vec(&Key::Int(start as i64)),
        encode_to_vec(&Value::List(block.map(Value::Float).collect())),
    )
}

/// A mutable dense vector supporting dirty-state checkpoints.
#[derive(Debug, Clone, Default)]
pub struct DenseVector {
    base: Arc<Vec<f64>>,
    /// Writes performed while a checkpoint snapshot is outstanding.
    dirty: Option<HashMap<usize, f64>>,
    /// Logical length, which may exceed `base.len()` while dirty writes
    /// extend the vector.
    len: usize,
}

impl DenseVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a zero-filled vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        DenseVector {
            base: Arc::new(vec![0.0; len]),
            dirty: None,
            len,
        }
    }

    /// Creates a vector from existing values.
    pub fn from_vec(values: Vec<f64>) -> Self {
        let len = values.len();
        DenseVector {
            base: Arc::new(values),
            dirty: None,
            len,
        }
    }

    /// Returns the logical length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximates the in-memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.len * 8
    }

    /// Returns `true` while a checkpoint snapshot is outstanding.
    pub fn is_checkpointing(&self) -> bool {
        self.dirty.is_some()
    }

    /// Approximate bytes held by the dirty overlay (0 outside a
    /// checkpoint): index + value per overlaid slot.
    pub fn dirty_bytes(&self) -> usize {
        self.dirty.as_ref().map_or(0, |d| d.len() * 16)
    }

    /// Reads element `i`; indices at or beyond the length read as `0.0`.
    pub fn get(&self, i: usize) -> f64 {
        if let Some(dirty) = &self.dirty {
            if let Some(v) = dirty.get(&i) {
                return *v;
            }
        }
        self.base.get(i).copied().unwrap_or(0.0)
    }

    /// Writes element `i`, growing the vector if needed.
    pub fn set(&mut self, i: usize, value: f64) {
        if i >= self.len {
            self.len = i + 1;
        }
        match &mut self.dirty {
            Some(dirty) => {
                dirty.insert(i, value);
            }
            None => {
                let base = Arc::make_mut(&mut self.base);
                if i >= base.len() {
                    base.resize(i + 1, 0.0);
                }
                base[i] = value;
            }
        }
    }

    /// Adds `delta` to element `i`.
    pub fn add(&mut self, i: usize, delta: f64) {
        let v = self.get(i);
        self.set(i, v + delta);
    }

    /// Copies the visible contents into a plain `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Computes the dot product with a plain slice.
    ///
    /// Elements beyond either length contribute zero.
    pub fn dot(&self, other: &[f64]) -> f64 {
        let n = self.len.min(other.len());
        (0..n).map(|i| self.get(i) * other[i]).sum()
    }

    /// Performs `self += alpha * other` elementwise, growing as needed.
    pub fn axpy(&mut self, alpha: f64, other: &[f64]) {
        for (i, &x) in other.iter().enumerate() {
            if x != 0.0 {
                self.add(i, alpha * x);
            }
        }
    }

    /// Sums a set of partial vectors into one (the `merge` of Alg. 1).
    ///
    /// The result has the length of the longest input.
    pub fn merge_sum<'a>(parts: impl IntoIterator<Item = &'a DenseVector>) -> DenseVector {
        let mut out = DenseVector::new();
        for p in parts {
            out.axpy(1.0, &p.to_vec());
            if p.len() > out.len() {
                out.set(p.len() - 1, out.get(p.len() - 1));
            }
        }
        out
    }

    /// Begins a checkpoint: flips into dirty mode and returns a consistent
    /// snapshot of the base storage in O(1).
    pub fn begin_checkpoint(&mut self) -> SdgResult<Arc<Vec<f64>>> {
        if self.dirty.is_some() {
            return Err(SdgError::State(
                "checkpoint already in progress on this vector".into(),
            ));
        }
        self.dirty = Some(HashMap::new());
        Ok(Arc::clone(&self.base))
    }

    /// Folds dirty writes into the base, ending dirty mode.
    pub fn consolidate(&mut self) -> SdgResult<()> {
        let dirty = self
            .dirty
            .take()
            .ok_or_else(|| SdgError::State("consolidate without begin_checkpoint".into()))?;
        let base = Arc::make_mut(&mut self.base);
        if base.len() < self.len {
            base.resize(self.len, 0.0);
        }
        for (i, v) in dirty {
            base[i] = v;
        }
        Ok(())
    }

    /// Exports the visible state in fixed-size index blocks.
    ///
    /// The key of each entry is the encoded block start index; the value is
    /// the list of elements in that block.
    pub fn export_entries(&self) -> Vec<StateEntry> {
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < self.len {
            let end = (start + EXPORT_BLOCK).min(self.len);
            out.push(block_entry(start, (start..end).map(|i| self.get(i))));
            start = end;
        }
        out
    }

    /// Imports entries produced by [`DenseVector::export_entries`].
    pub fn import_entries(&mut self, entries: &[StateEntry]) -> SdgResult<()> {
        for e in entries {
            let key: Key = decode_from_slice(&e.key)?;
            let Key::Int(start) = key else {
                return Err(SdgError::State("vector entry key must be Int".into()));
            };
            let start = usize::try_from(start)
                .map_err(|_| SdgError::State("vector entry key must be non-negative".into()))?;
            let value: Value = decode_from_slice(&e.value)?;
            for (offset, cell) in value.as_list()?.iter().enumerate() {
                self.set(start + offset, cell.as_float()?);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_get_set() {
        let mut v = DenseVector::zeros(4);
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(2), 0.0);
        v.set(2, 5.0);
        assert_eq!(v.get(2), 5.0);
        assert_eq!(v.get(100), 0.0);
    }

    #[test]
    fn set_grows_the_vector() {
        let mut v = DenseVector::new();
        v.set(9, 1.0);
        assert_eq!(v.len(), 10);
        assert_eq!(v.get(9), 1.0);
        assert_eq!(v.get(5), 0.0);
    }

    #[test]
    fn add_and_axpy() {
        let mut v = DenseVector::zeros(3);
        v.add(1, 2.0);
        v.axpy(0.5, &[2.0, 4.0, 6.0]);
        assert_eq!(v.to_vec(), vec![1.0, 4.0, 3.0]);
    }

    #[test]
    fn dot_truncates_to_shorter_length() {
        let v = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.dot(&[4.0, 5.0]), 14.0);
        assert_eq!(v.dot(&[]), 0.0);
    }

    #[test]
    fn merge_sum_adds_partials() {
        let a = DenseVector::from_vec(vec![1.0, 2.0]);
        let b = DenseVector::from_vec(vec![10.0, 20.0, 30.0]);
        let merged = DenseVector::merge_sum([&a, &b]);
        assert_eq!(merged.to_vec(), vec![11.0, 22.0, 30.0]);
        let empty = DenseVector::merge_sum(std::iter::empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn dirty_mode_overlays_reads_and_preserves_snapshot() {
        let mut v = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        let snap = v.begin_checkpoint().unwrap();
        v.set(0, 100.0);
        v.set(5, 6.0); // Grows while dirty.
        assert_eq!(v.get(0), 100.0);
        assert_eq!(v.get(5), 6.0);
        assert_eq!(v.len(), 6);
        assert_eq!(&*snap, &vec![1.0, 2.0, 3.0]);
        v.consolidate().unwrap();
        assert_eq!(v.to_vec(), vec![100.0, 2.0, 3.0, 0.0, 0.0, 6.0]);
    }

    #[test]
    fn checkpoint_protocol_is_enforced() {
        let mut v = DenseVector::new();
        assert!(v.consolidate().is_err());
        let _s = v.begin_checkpoint().unwrap();
        assert!(v.begin_checkpoint().is_err());
    }

    #[test]
    fn export_import_roundtrips_across_blocks() {
        let data: Vec<f64> = (0..600).map(|i| i as f64 * 0.5).collect();
        let v = DenseVector::from_vec(data.clone());
        let entries = v.export_entries();
        assert!(entries.len() >= 2, "600 elements must span blocks");
        let mut v2 = DenseVector::new();
        v2.import_entries(&entries).unwrap();
        assert_eq!(v2.to_vec(), data);
    }

    #[test]
    fn export_of_empty_vector_is_empty() {
        assert!(DenseVector::new().export_entries().is_empty());
    }
}
