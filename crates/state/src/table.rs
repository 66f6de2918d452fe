//! A hash-indexed key/value table with dirty-state checkpointing.
//!
//! `KeyedTable` backs the paper's key/value store application (§6.1) and the
//! wordcount window state. It is the reference implementation of the
//! dirty-state protocol of §5:
//!
//! 1. `begin_checkpoint` flips the table into *dirty mode* and returns an
//!    `Arc` snapshot of the base map — an O(1) operation;
//! 2. while dirty, writes go to an overlay map and reads consult the overlay
//!    first, falling back to the (now immutable) base on a miss;
//! 3. once the checkpoint is durable, `consolidate` folds the overlay into
//!    the base under a short exclusive section.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use sdg_common::codec::encode_to_vec;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::value::{Key, Value};

use crate::entry::StateEntry;
use crate::partition::KeyLayout;

/// Tracks which hash chunks changed since the last completed checkpoint
/// generation, enabling delta checkpoints: a delta generation only
/// re-serialises chunks whose keys were written.
///
/// Chunk identity is [`KeyLayout::chunk`] of the key's stable hash — the
/// backup chunk the checkpoint writes the key into, so a chunk's key
/// population is stable across generations, processes and restores.
#[derive(Debug, Clone)]
struct ChunkTracker {
    dirty: Vec<bool>,
    dirty_count: usize,
}

impl ChunkTracker {
    fn all_dirty(chunks: usize) -> Self {
        ChunkTracker {
            dirty: vec![true; chunks],
            dirty_count: chunks,
        }
    }

    fn mark(&mut self, chunk: usize) {
        if !self.dirty[chunk] {
            self.dirty[chunk] = true;
            self.dirty_count += 1;
        }
    }
}

/// A mutable key/value table supporting dirty-state checkpoints.
#[derive(Debug, Clone, Default)]
pub struct KeyedTable {
    base: Arc<HashMap<Key, Value>>,
    /// Overlay of writes performed while a checkpoint is in progress.
    /// `None` values are tombstones for removals.
    dirty: Option<HashMap<Key, Option<Value>>>,
    visible_len: usize,
    visible_bytes: usize,
    /// Approximate bytes held by the overlay, maintained incrementally on
    /// every overlay write so the obs gauge never walks the overlay under
    /// the cell lock.
    overlay_bytes: usize,
    /// Chunk-level dirtiness since the last completed checkpoint
    /// generation; `None` means every checkpoint of the table is a base.
    tracker: Option<ChunkTracker>,
}

impl KeyedTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the number of visible entries (base plus overlay effects).
    pub fn len(&self) -> usize {
        self.visible_len
    }

    /// Returns `true` if the table has no visible entries.
    pub fn is_empty(&self) -> bool {
        self.visible_len == 0
    }

    /// Returns an approximation of the visible state size in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.visible_bytes
    }

    /// Returns `true` while a checkpoint snapshot is outstanding.
    pub fn is_checkpointing(&self) -> bool {
        self.dirty.is_some()
    }

    /// Approximate bytes held by the dirty overlay (0 outside a
    /// checkpoint). Tombstones count their key only.
    ///
    /// The count is maintained incrementally on overlay writes, so this is
    /// O(1) — it is polled by the observability gauge under the cell lock.
    pub fn dirty_bytes(&self) -> usize {
        if self.dirty.is_some() {
            self.overlay_bytes
        } else {
            0
        }
    }

    /// Turns on chunk-level dirtiness tracking over `chunks` hash chunks.
    ///
    /// All chunks start dirty, so the first checkpoint generation after
    /// enabling is a base.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero.
    pub fn enable_chunk_tracking(&mut self, chunks: usize) {
        assert!(chunks > 0, "chunk count must be positive");
        self.tracker = Some(ChunkTracker::all_dirty(chunks));
    }

    /// The tracked chunk-space size, when tracking is enabled.
    pub fn tracked_chunks(&self) -> Option<usize> {
        self.tracker.as_ref().map(|t| t.dirty.len())
    }

    /// Number of chunks currently marked dirty (0 when tracking is off).
    pub fn dirty_chunk_count(&self) -> usize {
        self.tracker.as_ref().map_or(0, |t| t.dirty_count)
    }

    /// Returns the dirty chunk ids (sorted) and clears them, or `None` when
    /// tracking is off. Called under the checkpoint-initiation lock; writes
    /// performed afterwards re-mark their chunks and belong to the next
    /// generation.
    pub fn take_dirty_chunks(&mut self) -> Option<Vec<u32>> {
        let t = self.tracker.as_mut()?;
        let mut out = Vec::with_capacity(t.dirty_count);
        for (i, d) in t.dirty.iter_mut().enumerate() {
            if *d {
                out.push(i as u32);
                *d = false;
            }
        }
        t.dirty_count = 0;
        Some(out)
    }

    /// Marks every chunk dirty (used after a failed or compacting
    /// checkpoint, and after out-of-band bulk mutation).
    pub fn mark_all_dirty(&mut self) {
        if let Some(t) = &mut self.tracker {
            *t = ChunkTracker::all_dirty(t.dirty.len());
        }
    }

    /// Marks the chunks `ids` dirty (a no-op when tracking is off).
    ///
    /// # Panics
    ///
    /// Panics if an id is outside the tracked chunk space.
    pub fn mark_chunks_dirty(&mut self, ids: &[u32]) {
        if let Some(t) = &mut self.tracker {
            for &id in ids {
                t.mark(id as usize);
            }
        }
    }

    fn mark_chunk(&mut self, key: &Key) {
        if let Some(t) = &mut self.tracker {
            t.mark(KeyLayout::chunk(key.stable_hash(), t.dirty.len()));
        }
    }

    /// Looks up `key`, consulting the dirty overlay first.
    pub fn get(&self, key: &Key) -> Option<Value> {
        if let Some(dirty) = &self.dirty {
            if let Some(slot) = dirty.get(key) {
                return slot.clone();
            }
        }
        self.base.get(key).cloned()
    }

    /// Returns `true` if `key` is visibly present.
    pub fn contains(&self, key: &Key) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or replaces `key`, returning the previously visible value.
    ///
    /// One probe of the map that takes the write (plus one of the base on
    /// an overlay miss while a checkpoint is outstanding).
    pub fn put(&mut self, key: Key, value: Value) -> Option<Value> {
        let key_size = key.approx_size();
        let entry_size = key_size + value.approx_size();
        self.mark_chunk(&key);
        let prev = match &mut self.dirty {
            Some(dirty) => {
                self.overlay_bytes += entry_size;
                match dirty.entry(key) {
                    Entry::Occupied(mut e) => {
                        let slot = e.insert(Some(value));
                        self.overlay_bytes -=
                            key_size + slot.as_ref().map_or(0, Value::approx_size);
                        slot
                    }
                    Entry::Vacant(e) => {
                        let below = self.base.get(e.key()).cloned();
                        e.insert(Some(value));
                        below
                    }
                }
            }
            None => Arc::make_mut(&mut self.base).insert(key, value),
        };
        match prev.as_ref() {
            Some(old) => {
                self.visible_bytes += entry_size;
                self.visible_bytes -= key_size + old.approx_size();
            }
            None => {
                self.visible_len += 1;
                self.visible_bytes += entry_size;
            }
        }
        prev
    }

    /// Removes `key`, returning the previously visible value.
    pub fn remove(&mut self, key: &Key) -> Option<Value> {
        let prev = self.get(key)?;
        let key_size = key.approx_size();
        self.visible_len -= 1;
        self.visible_bytes -= key_size + prev.approx_size();
        self.mark_chunk(key);
        match &mut self.dirty {
            Some(dirty) => {
                let old_slot = dirty.insert(key.clone(), None);
                self.overlay_bytes += key_size;
                if let Some(slot) = old_slot {
                    self.overlay_bytes -= key_size + slot.as_ref().map_or(0, Value::approx_size);
                }
            }
            None => {
                Arc::make_mut(&mut self.base).remove(key);
            }
        }
        Some(prev)
    }

    /// Reads, transforms and writes back the value at `key` in one step.
    ///
    /// Useful for counters: `table.update(key, |v| match v { ... })`.
    pub fn update(&mut self, key: Key, f: impl FnOnce(Option<Value>) -> Value) {
        let next = f(self.get(&key));
        self.put(key, next);
    }

    /// Calls `f` for every visible entry.
    ///
    /// Iteration order is unspecified.
    pub fn for_each(&self, mut f: impl FnMut(&Key, &Value)) {
        match &self.dirty {
            None => {
                for (k, v) in self.base.iter() {
                    f(k, v);
                }
            }
            Some(dirty) => {
                for (k, v) in self.base.iter() {
                    match dirty.get(k) {
                        None => f(k, v),
                        Some(Some(over)) => f(k, over),
                        Some(None) => {} // tombstone
                    }
                }
                for (k, slot) in dirty.iter() {
                    if let Some(v) = slot {
                        if !self.base.contains_key(k) {
                            f(k, v);
                        }
                    }
                }
            }
        }
    }

    /// Begins a checkpoint: flips into dirty mode and returns a consistent,
    /// immutable snapshot of the base map.
    ///
    /// The snapshot is an `Arc` clone, so this is O(1) and the caller can
    /// serialise it from another thread without blocking table writes.
    pub fn begin_checkpoint(&mut self) -> SdgResult<Arc<HashMap<Key, Value>>> {
        if self.dirty.is_some() {
            return Err(SdgError::State(
                "checkpoint already in progress on this table".into(),
            ));
        }
        self.dirty = Some(HashMap::new());
        self.overlay_bytes = 0;
        Ok(Arc::clone(&self.base))
    }

    /// Consolidates the dirty overlay into the base map, ending dirty mode.
    ///
    /// This is the short exclusive section of §5 step (5); its cost is
    /// proportional to the number of writes performed during the checkpoint,
    /// not to the state size.
    pub fn consolidate(&mut self) -> SdgResult<()> {
        let dirty = self
            .dirty
            .take()
            .ok_or_else(|| SdgError::State("consolidate without begin_checkpoint".into()))?;
        self.overlay_bytes = 0;
        let base = Arc::make_mut(&mut self.base);
        for (k, slot) in dirty {
            match slot {
                Some(v) => {
                    base.insert(k, v);
                }
                None => {
                    base.remove(&k);
                }
            }
        }
        Ok(())
    }

    /// Exports every visible entry in canonical encoding;
    /// [`StateStore::import_entries`] reads them back.
    ///
    /// [`StateStore::import_entries`]: crate::store::StateStore::import_entries
    pub fn export_entries(&self) -> Vec<StateEntry> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, v| {
            out.push(StateEntry::new(encode_to_vec(k), encode_to_vec(v)));
        });
        out
    }

    /// Reserves room for at least `additional` more entries in the base
    /// map (restore pre-sizes its shards from a chunk's entry count).
    pub fn reserve(&mut self, additional: usize) {
        Arc::make_mut(&mut self.base).reserve(additional);
    }

    /// Splits the table into `n` disjoint stripes by stable key hash.
    ///
    /// Entry `k` goes to stripe [`KeyLayout::stripe`] of its hash, the
    /// stripe a routed item with that key lands on.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split_by_hash(&self, n: usize) -> Vec<KeyedTable> {
        assert!(n > 0, "partition count must be positive");
        let mut parts: Vec<KeyedTable> = (0..n).map(|_| KeyedTable::new()).collect();
        self.for_each(|k, v| {
            parts[KeyLayout::stripe(k.stable_hash(), n)].put(k.clone(), v.clone());
        });
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StateStore, StateType};

    fn k(i: i64) -> Key {
        Key::Int(i)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut t = KeyedTable::new();
        assert_eq!(t.put(k(1), Value::Int(10)), None);
        assert_eq!(t.get(&k(1)), Some(Value::Int(10)));
        assert_eq!(t.put(k(1), Value::Int(20)), Some(Value::Int(10)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&k(1)), Some(Value::Int(20)));
        assert_eq!(t.remove(&k(1)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn update_builds_counters() {
        let mut t = KeyedTable::new();
        for _ in 0..3 {
            t.update(k(7), |v| {
                Value::Int(v.map(|x| x.as_int().unwrap()).unwrap_or(0) + 1)
            });
        }
        assert_eq!(t.get(&k(7)), Some(Value::Int(3)));
    }

    #[test]
    fn dirty_mode_reads_see_overlay_writes() {
        let mut t = KeyedTable::new();
        t.put(k(1), Value::Int(1));
        t.put(k(2), Value::Int(2));
        let snap = t.begin_checkpoint().unwrap();

        t.put(k(1), Value::Int(100)); // overwrite
        t.put(k(3), Value::Int(3)); // insert
        t.remove(&k(2)); // delete

        // Live view reflects all writes.
        assert_eq!(t.get(&k(1)), Some(Value::Int(100)));
        assert_eq!(t.get(&k(2)), None);
        assert_eq!(t.get(&k(3)), Some(Value::Int(3)));
        assert_eq!(t.len(), 2);

        // Snapshot is unaffected — it is the pre-checkpoint state.
        assert_eq!(snap.get(&k(1)), Some(&Value::Int(1)));
        assert_eq!(snap.get(&k(2)), Some(&Value::Int(2)));
        assert_eq!(snap.get(&k(3)), None);

        t.consolidate().unwrap();
        assert!(!t.is_checkpointing());
        assert_eq!(t.get(&k(1)), Some(Value::Int(100)));
        assert_eq!(t.get(&k(2)), None);
        assert_eq!(t.get(&k(3)), Some(Value::Int(3)));
    }

    #[test]
    fn double_checkpoint_is_rejected() {
        let mut t = KeyedTable::new();
        let _snap = t.begin_checkpoint().unwrap();
        assert!(t.begin_checkpoint().is_err());
    }

    #[test]
    fn consolidate_without_checkpoint_is_rejected() {
        let mut t = KeyedTable::new();
        assert!(t.consolidate().is_err());
    }

    #[test]
    fn for_each_sees_merged_view_in_dirty_mode() {
        let mut t = KeyedTable::new();
        t.put(k(1), Value::Int(1));
        t.put(k(2), Value::Int(2));
        let _snap = t.begin_checkpoint().unwrap();
        t.put(k(2), Value::Int(22));
        t.put(k(3), Value::Int(3));
        t.remove(&k(1));

        let mut seen: Vec<(Key, Value)> = Vec::new();
        t.for_each(|k, v| seen.push((k.clone(), v.clone())));
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(seen, vec![(k(2), Value::Int(22)), (k(3), Value::Int(3)),]);
    }

    #[test]
    fn export_import_roundtrips() {
        let mut t = KeyedTable::new();
        for i in 0..20 {
            t.put(k(i), Value::str(format!("v{i}")));
        }
        let entries = t.export_entries();
        let mut store = StateStore::new(StateType::Table);
        store.import_entries(&entries).unwrap();
        let t2 = store.as_table().unwrap();
        assert_eq!(t2.len(), 20);
        for i in 0..20 {
            assert_eq!(t2.get(&k(i)), t.get(&k(i)));
        }
    }

    #[test]
    fn split_and_merge_preserve_contents() {
        let mut t = KeyedTable::new();
        for i in 0..100 {
            t.put(k(i), Value::Int(i * 10));
        }
        let parts = t.split_by_hash(4);
        assert_eq!(parts.iter().map(KeyedTable::len).sum::<usize>(), 100);
        // Each part holds only keys hashing to its index.
        for (idx, part) in parts.iter().enumerate() {
            part.for_each(|key, _| {
                assert_eq!((key.stable_hash() % 4) as usize, idx);
            });
        }
        let mut merged = KeyedTable::new();
        for p in &parts {
            p.for_each(|key, v| {
                merged.put(key.clone(), v.clone());
            });
        }
        assert_eq!(merged.len(), 100);
        for i in 0..100 {
            assert_eq!(merged.get(&k(i)), Some(Value::Int(i * 10)));
        }
    }

    #[test]
    fn approx_bytes_tracks_mutations() {
        let mut t = KeyedTable::new();
        assert_eq!(t.approx_bytes(), 0);
        t.put(k(1), Value::str("hello"));
        let after_put = t.approx_bytes();
        assert!(after_put > 0);
        t.put(k(1), Value::str("hi"));
        assert!(t.approx_bytes() < after_put);
        t.remove(&k(1));
        assert_eq!(t.approx_bytes(), 0);
    }

    #[test]
    fn approx_bytes_consistent_across_checkpoint() {
        let mut t = KeyedTable::new();
        t.put(k(1), Value::Int(1));
        let before = t.approx_bytes();
        let _snap = t.begin_checkpoint().unwrap();
        t.put(k(2), Value::Int(2));
        t.remove(&k(1));
        t.consolidate().unwrap();
        assert_eq!(t.approx_bytes(), before);
        assert_eq!(t.len(), 1);
    }

    /// The O(n) recomputation `dirty_bytes` used to do, kept as the test
    /// oracle for the incremental counter.
    fn recomputed_dirty_bytes(t: &KeyedTable) -> usize {
        t.dirty.as_ref().map_or(0, |d| {
            d.iter()
                .map(|(k, v)| k.approx_size() + v.as_ref().map_or(0, Value::approx_size))
                .sum()
        })
    }

    #[test]
    fn dirty_bytes_matches_recomputation() {
        let mut t = KeyedTable::new();
        for i in 0..10 {
            t.put(k(i), Value::str(format!("value-{i}")));
        }
        assert_eq!(t.dirty_bytes(), 0);
        let _snap = t.begin_checkpoint().unwrap();
        assert_eq!(t.dirty_bytes(), 0);
        // Inserts, overwrites (shrinking and growing), tombstones, and
        // tombstone-overwrites all keep the incremental count exact.
        t.put(k(1), Value::str("x"));
        assert_eq!(t.dirty_bytes(), recomputed_dirty_bytes(&t));
        t.put(k(1), Value::str("a much longer replacement value"));
        assert_eq!(t.dirty_bytes(), recomputed_dirty_bytes(&t));
        t.remove(&k(2));
        assert_eq!(t.dirty_bytes(), recomputed_dirty_bytes(&t));
        t.put(k(2), Value::Int(5));
        assert_eq!(t.dirty_bytes(), recomputed_dirty_bytes(&t));
        t.put(k(100), Value::str("fresh"));
        t.remove(&k(100));
        assert_eq!(t.dirty_bytes(), recomputed_dirty_bytes(&t));
        t.consolidate().unwrap();
        assert_eq!(t.dirty_bytes(), 0);
    }

    #[test]
    fn chunk_tracking_starts_all_dirty_and_clears() {
        let mut t = KeyedTable::new();
        assert_eq!(t.take_dirty_chunks(), None);
        t.enable_chunk_tracking(8);
        assert_eq!(t.tracked_chunks(), Some(8));
        assert_eq!(t.dirty_chunk_count(), 8);
        let all = t.take_dirty_chunks().unwrap();
        assert_eq!(all, (0..8).collect::<Vec<u32>>());
        assert_eq!(t.dirty_chunk_count(), 0);
        assert_eq!(t.take_dirty_chunks().unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn writes_mark_exactly_their_chunks() {
        let mut t = KeyedTable::new();
        t.enable_chunk_tracking(16);
        t.take_dirty_chunks().unwrap();
        t.put(k(3), Value::Int(1));
        t.remove(&k(3));
        t.put(k(7), Value::Int(2));
        let mut expected: Vec<u32> = vec![
            (k(3).stable_hash() % 16) as u32,
            (k(7).stable_hash() % 16) as u32,
        ];
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(t.take_dirty_chunks().unwrap(), expected);
        // Overlay writes mark chunks too (they belong to the next
        // generation).
        let _snap = t.begin_checkpoint().unwrap();
        t.put(k(9), Value::Int(3));
        assert_eq!(
            t.take_dirty_chunks().unwrap(),
            vec![(k(9).stable_hash() % 16) as u32]
        );
        t.consolidate().unwrap();
        t.mark_all_dirty();
        assert_eq!(t.dirty_chunk_count(), 16);
    }

    #[test]
    fn snapshot_survives_consolidate() {
        // Even if the serialiser is slow, the snapshot stays intact after
        // consolidation (copy-on-write kicks in).
        let mut t = KeyedTable::new();
        t.put(k(1), Value::Int(1));
        let snap = t.begin_checkpoint().unwrap();
        t.put(k(1), Value::Int(2));
        t.consolidate().unwrap();
        assert_eq!(snap.get(&k(1)), Some(&Value::Int(1)));
        assert_eq!(t.get(&k(1)), Some(Value::Int(2)));
    }
}
