//! The partition axis of a distributed state element, and the one rule
//! that places its keys.
//!
//! §3.2: "Different data structures support different partitioning
//! strategies: e.g. a map can be hash- or range-partitioned; a matrix can be
//! partitioned by row or column." This runtime hash-partitions: a key, or a
//! matrix cell's row or column index, is placed by its stable hash, and
//! [`KeyLayout`] turns that hash into an instance, a lock stripe, a
//! checkpoint chunk and a restore shard. The dispatcher, the stripes, the
//! dirty-chunk tracker, the checkpoint writer, restore and a scale all ask
//! it, so they agree by construction. [`PartitionDim`] picks the matrix
//! axis the hash is taken along.

/// Which axis of a matrix a partitioning applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionDim {
    /// Partition rows across instances.
    Row,
    /// Partition columns across instances.
    Col,
}

impl std::fmt::Display for PartitionDim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionDim::Row => write!(f, "row"),
            PartitionDim::Col => write!(f, "col"),
        }
    }
}

/// Where a key lives, from its stable hash `h` (`Key::stable_hash`; a
/// matrix cell's row or column index hashed as a `Key::Int`).
///
/// Every rule is `h` modulo a count. The instance and the stripe both
/// reduce the same `h`, so an instance's keys reach only the stripes
/// congruent to its index modulo `gcd(instances, stripes)`; decorrelating
/// the stripe is a change to [`KeyLayout::stripe`] alone. Chunk ids are
/// persisted in checkpoints, so a change to [`KeyLayout::chunk`] is a
/// format change.
///
/// Every count must be positive: a zero count panics.
#[derive(Debug, Clone, Copy)]
pub struct KeyLayout;

impl KeyLayout {
    /// The instance, of `instances`, that owns `h`: `h % instances`.
    /// Partitioned dispatch routes an item there.
    #[inline]
    pub fn instance(h: u64, instances: usize) -> usize {
        (h % instances as u64) as usize
    }

    /// The lock stripe, of an instance's `stripes`, that owns `h`:
    /// `h % stripes`.
    #[inline]
    pub fn stripe(h: u64, stripes: usize) -> usize {
        (h % stripes as u64) as usize
    }

    /// The checkpoint chunk, of `chunks`, that holds `h`: `h % chunks`.
    /// It is both the dirty-chunk id a write marks and the backup chunk
    /// the entry is written into.
    #[inline]
    pub fn chunk(h: u64, chunks: usize) -> usize {
        (h % chunks as u64) as usize
    }

    /// The shard, of `instances` × `stripes` numbered instance-major, that
    /// owns `h`: its stripe of its instance. Restore and a scale decode
    /// every entry straight into it.
    #[inline]
    pub fn shard(h: u64, instances: usize, stripes: usize) -> usize {
        Self::instance(h, instances) * stripes + Self::stripe(h, stripes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_displays() {
        assert_eq!(PartitionDim::Row.to_string(), "row");
        assert_eq!(PartitionDim::Col.to_string(), "col");
    }

    #[test]
    fn key_layout_pins_todays_rules() {
        // (hash, instance of 3, stripe of 16, chunk of 8, shard of 3 × 16).
        // Changing a rule moves keys, chunk ids and restore shards: it must
        // show up here as a deliberate edit.
        let pinned: [(u64, usize, usize, usize, usize); 5] = [
            (0, 0, 0, 0, 0),
            (7, 1, 7, 7, 23),
            (1_000_003, 1, 3, 3, 19),
            (12_345_678_901_234_567_890, 0, 2, 2, 2),
            (u64::MAX, 0, 15, 7, 15),
        ];
        for (h, instance, stripe, chunk, shard) in pinned {
            assert_eq!(KeyLayout::instance(h, 3), instance, "instance of {h}");
            assert_eq!(KeyLayout::stripe(h, 16), stripe, "stripe of {h}");
            assert_eq!(KeyLayout::chunk(h, 8), chunk, "chunk of {h}");
            assert_eq!(KeyLayout::shard(h, 3, 16), shard, "shard of {h}");
        }
    }
}
