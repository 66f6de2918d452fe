//! Scalar and vector timestamps for failure recovery.
//!
//! Per §5 of the paper, every dataflow carries increasing TE-generated scalar
//! timestamps, and a checkpoint embeds a vector timestamp — the last
//! timestamp from each input dataflow whose item modified the checkpointed
//! state. Upstream nodes trim output buffers below all downstream
//! checkpoints' vector entries, and downstream nodes discard replayed
//! duplicates at or below their restored watermark.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::EdgeId;

/// A scalar timestamp on one dataflow: strictly increasing per producer.
pub type ScalarTs = u64;

/// A vector timestamp: per input dataflow, the highest scalar timestamp whose
/// item has been applied to local state.
///
/// Entries default to 0, meaning "nothing applied from that edge yet".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorTs {
    entries: BTreeMap<EdgeId, ScalarTs>,
}

impl VectorTs {
    /// Creates an empty vector timestamp.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the watermark for `edge` (0 when absent).
    pub fn get(&self, edge: EdgeId) -> ScalarTs {
        self.entries.get(&edge).copied().unwrap_or(0)
    }

    /// Records that the item with timestamp `ts` from `edge` was applied.
    ///
    /// Watermarks only move forward; regressions are ignored so replays
    /// cannot corrupt the vector.
    pub fn observe(&mut self, edge: EdgeId, ts: ScalarTs) {
        let slot = self.entries.entry(edge).or_insert(0);
        if ts > *slot {
            *slot = ts;
        }
    }

    /// Returns `true` if an item with timestamp `ts` on `edge` is a
    /// duplicate of already-applied input.
    pub fn is_duplicate(&self, edge: EdgeId, ts: ScalarTs) -> bool {
        ts <= self.get(edge)
    }

    /// Merges `other` into `self`, taking the per-edge maximum.
    ///
    /// Used when `n` recovered instances reconstitute the vector of a failed
    /// instance from checkpoint chunks.
    pub fn merge_max(&mut self, other: &VectorTs) {
        for (&edge, &ts) in &other.entries {
            self.observe(edge, ts);
        }
    }

    /// Returns the per-edge minimum across `vectors`.
    ///
    /// An upstream buffer for an edge can be trimmed below the minimum
    /// checkpointed watermark across **all** downstream consumers.
    pub fn pointwise_min<'a>(vectors: impl IntoIterator<Item = &'a VectorTs>) -> VectorTs {
        let mut iter = vectors.into_iter();
        let Some(first) = iter.next() else {
            return VectorTs::new();
        };
        let mut out = first.clone();
        for v in iter {
            // Edges missing from `v` have watermark 0, so they clamp to 0.
            out.entries.retain(|edge, ts| {
                let other = v.get(*edge);
                *ts = (*ts).min(other);
                *ts > 0
            });
        }
        out
    }

    /// Returns `true` if every entry of `self` is ≥ the matching entry of
    /// `other`.
    pub fn dominates(&self, other: &VectorTs) -> bool {
        other.entries.iter().all(|(&e, &ts)| self.get(e) >= ts)
    }

    /// Iterates over `(edge, watermark)` pairs in edge order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, ScalarTs)> + '_ {
        self.entries.iter().map(|(&e, &ts)| (e, ts))
    }

    /// Returns the number of edges with a non-zero watermark.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no edge has been observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for VectorTs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (edge, ts)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{edge}:{ts}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_never_regresses() {
        let mut v = VectorTs::new();
        v.observe(EdgeId(1), 10);
        v.observe(EdgeId(1), 5);
        assert_eq!(v.get(EdgeId(1)), 10);
        assert_eq!(v.get(EdgeId(2)), 0);
    }

    #[test]
    fn duplicate_detection_uses_watermark() {
        let mut v = VectorTs::new();
        v.observe(EdgeId(3), 7);
        assert!(v.is_duplicate(EdgeId(3), 7));
        assert!(v.is_duplicate(EdgeId(3), 3));
        assert!(!v.is_duplicate(EdgeId(3), 8));
        assert!(!v.is_duplicate(EdgeId(4), 1));
    }

    #[test]
    fn merge_max_takes_pointwise_maximum() {
        let mut a = VectorTs::new();
        a.observe(EdgeId(1), 5);
        a.observe(EdgeId(2), 1);
        let mut b = VectorTs::new();
        b.observe(EdgeId(1), 3);
        b.observe(EdgeId(3), 9);
        a.merge_max(&b);
        assert_eq!(a.get(EdgeId(1)), 5);
        assert_eq!(a.get(EdgeId(2)), 1);
        assert_eq!(a.get(EdgeId(3)), 9);
    }

    #[test]
    fn pointwise_min_drives_buffer_trimming() {
        let mut a = VectorTs::new();
        a.observe(EdgeId(1), 5);
        a.observe(EdgeId(2), 8);
        let mut b = VectorTs::new();
        b.observe(EdgeId(1), 3);
        // Edge 2 missing from `b` means b has applied nothing from it.
        let min = VectorTs::pointwise_min([&a, &b]);
        assert_eq!(min.get(EdgeId(1)), 3);
        assert_eq!(min.get(EdgeId(2)), 0);
        let empty: [&VectorTs; 0] = [];
        assert_eq!(VectorTs::pointwise_min(empty), VectorTs::new());
    }

    #[test]
    fn dominates_is_pointwise() {
        let mut a = VectorTs::new();
        a.observe(EdgeId(1), 5);
        a.observe(EdgeId(2), 2);
        let mut b = VectorTs::new();
        b.observe(EdgeId(1), 5);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        b.observe(EdgeId(3), 1);
        assert!(!a.dominates(&b));
    }

    #[test]
    fn display_lists_entries() {
        let mut v = VectorTs::new();
        v.observe(EdgeId(2), 4);
        v.observe(EdgeId(1), 9);
        assert_eq!(v.to_string(), "{d1:9, d2:4}");
    }
}
