//! Entry-level representation of state for chunked checkpoints.
//!
//! Every SE structure can export itself as a flat list of
//! ([`StateEntry`]) key/value byte pairs and re-import such a list. Every
//! built-in structure keys its entries by an encoded
//! [`sdg_common::value::Key`], so the checkpoint subsystem places an entry
//! by the stable hash of its decoded key through
//! [`KeyLayout`](crate::partition::KeyLayout), the rule the partitioner,
//! the stripes and the dirty-chunk tracker use (§5).

/// One key/value pair of serialised state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateEntry {
    /// Canonical encoding of the entry's key.
    pub key: Vec<u8>,
    /// Canonical encoding of the entry's value.
    pub value: Vec<u8>,
}

impl StateEntry {
    /// Creates an entry from encoded key and value bytes.
    pub fn new(key: Vec<u8>, value: Vec<u8>) -> Self {
        StateEntry { key, value }
    }

    /// Total encoded size in bytes.
    pub fn size(&self) -> usize {
        self.key.len() + self.value.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sums_key_and_value() {
        assert_eq!(StateEntry::new(vec![1], vec![2; 4]).size(), 5);
    }
}
