//! The partition axis of a distributed state element.
//!
//! §3.2: "Different data structures support different partitioning
//! strategies: e.g. a map can be hash- or range-partitioned; a matrix can be
//! partitioned by row or column." This runtime hash-partitions: a key, or a
//! matrix cell's row or column index, lives on instance
//! `stable_hash % n`. The dispatcher routes by that rule, and
//! `store::place_entry` places restored and migrated state by it.
//! [`PartitionDim`] picks the matrix axis the hash is taken along.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_displays() {
        assert_eq!(PartitionDim::Row.to_string(), "row");
        assert_eq!(PartitionDim::Col.to_string(), "col");
    }
}
