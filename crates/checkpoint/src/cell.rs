//! The shared cell wrapping one SE instance.
//!
//! Worker threads and the checkpoint coordinator share SE instances through
//! a [`StateCell`]. Since PR 4 the cell is **lock-striped**: a partitioned
//! SE instance holds a fixed set of stripes, each a mutex around a disjoint
//! shard of the [`StateStore`] plus the vector timestamp of input applied
//! *to that stripe*. Concurrent accessing tasks hitting different keys of
//! one instance no longer contend; the asynchronous checkpoint protocol
//! locks all stripes only for snapshot initiation and consolidation.
//!
//! ## Stripe identity and watermark semantics
//!
//! Items are routed to stripes by the hash the dispatcher partitioned them
//! by, which the item carries, through [`KeyLayout::stripe`]; re-splits,
//! restore and a scale place state by the same rule, so a given key always
//! lands on the same stripe — across processing, scaling and restore.
//! Per-(edge, src) dedupe watermarks live in the stripe owning the item's
//! key. Items of one lane arrive in timestamp order, so each stripe
//! observes an increasing subsequence and `is_duplicate` stays exact.
//!
//! A cell has two cell-level watermarks per lane:
//!
//! * [`StateCell::vector`], the **pointwise minimum** across stripes, is
//!   the one checkpoint metadata and buffer trimming use. Trimming frees
//!   upstream records for good, so it waits until every stripe that could
//!   own one of the lane's keys has progressed past a timestamp.
//! * [`StateCell::frontier`], the **pointwise maximum** across stripes, is
//!   where recovery resumes replay. Every item of a lane at or below the
//!   highest timestamp any stripe of a restored cut recorded is already in
//!   that cut, because
//!   1. the cut ([`StateCell::with_all`]) locks every stripe at once;
//!   2. a lane's items arrive in timestamp order;
//!   3. one TE instance applies a lane's items one at a time.
//!
//!   So when the cut was taken, the instance had applied exactly the
//!   lane's prefix up to the timestamp it recorded last, and that
//!   timestamp is the maximum. Replaying from the minimum would re-send
//!   everything a sparse stripe never saw — with a stripe hash correlated
//!   with the partition hash, everything since deploy — only for the
//!   stripes' dedupe to drop it.
//!
//! The exception is a gather (`AllToOne`) edge: the barrier applies an
//! assembled item when its last fragment arrives, in completion order
//! rather than timestamp order, so premise 2 fails and replay into a
//! gather edge keeps the minimum.

use parking_lot::Mutex;
use sdg_common::error::SdgResult;
use sdg_common::ids::EdgeId;
use sdg_common::time::{ScalarTs, VectorTs};
use sdg_state::entry::StateEntry;
use sdg_state::partition::{KeyLayout, PartitionDim};
use sdg_state::store::{StateStore, StateType};

/// The lock-protected contents of one stripe.
#[derive(Debug)]
pub struct CellInner {
    /// The stripe's shard of the SE data structure.
    pub store: StateStore,
    /// Last applied timestamp per input lane, for keys owned by this stripe.
    pub vector: VectorTs,
}

/// One SE instance shared between processing and checkpointing.
#[derive(Debug)]
pub struct StateCell {
    stripes: Vec<Mutex<CellInner>>,
    /// Dirty-chunk space each stripe tracks (`None`: every checkpoint of
    /// the cell is a base).
    tracked_chunks: Option<usize>,
    /// Partition axis used when re-splitting a merged store into stripes.
    dim: PartitionDim,
}

impl StateCell {
    /// Creates an unstriped cell holding an empty store of type `ty`.
    pub fn new(ty: StateType) -> Self {
        Self::from_store(StateStore::new(ty), VectorTs::new())
    }

    /// Creates an unstriped cell from an existing store and vector.
    pub fn from_store(store: StateStore, vector: VectorTs) -> Self {
        StateCell {
            stripes: vec![Mutex::new(CellInner { store, vector })],
            tracked_chunks: None,
            dim: PartitionDim::Row,
        }
    }

    /// Creates a striped cell of `stripes` empty shards.
    ///
    /// When `tracked_chunks` is `Some(n)` each shard tracks dirty chunks in
    /// an `n`-chunk space so checkpoints in that space can write deltas
    /// (tables only; other structures, and `None`, write a base on every
    /// take).
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero.
    pub fn new_striped(
        ty: StateType,
        stripes: usize,
        dim: PartitionDim,
        tracked_chunks: Option<usize>,
    ) -> Self {
        assert!(stripes > 0, "stripe count must be positive");
        let empty = (0..stripes).map(|_| (StateStore::new(ty), VectorTs::new()));
        Self::from_parts(empty.collect(), dim, tracked_chunks)
    }

    /// Creates a striped cell by hash-splitting `store` into `stripes`
    /// shards, assigning `vector` to every stripe.
    ///
    /// Assigning the merged vector to all stripes is only exact when the
    /// caller knows no finer-grained watermarks exist (fresh deployments,
    /// where new items always carry higher timestamps). For restore,
    /// prefer [`StateCell::from_parts`] with the per-stripe vectors
    /// recorded in the backup.
    pub fn from_store_striped(
        store: StateStore,
        vector: VectorTs,
        stripes: usize,
        dim: PartitionDim,
        tracked_chunks: Option<usize>,
    ) -> SdgResult<Self> {
        assert!(stripes > 0, "stripe count must be positive");
        if stripes == 1 {
            let mut cell = StateCell::from_store(store, vector);
            cell.tracked_chunks = tracked_chunks;
            cell.dim = dim;
            if let Some(chunks) = tracked_chunks {
                cell.stripes[0].lock().store.enable_chunk_tracking(chunks);
            }
            return Ok(cell);
        }
        let parts = store.split_by_hash(stripes, dim)?;
        Ok(Self::from_parts(
            parts.into_iter().map(|p| (p, vector.clone())).collect(),
            dim,
            tracked_chunks,
        ))
    }

    /// Creates a striped cell from exact per-stripe (store, vector) pairs,
    /// as recorded by a checkpoint (used on restore).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn from_parts(
        parts: Vec<(StateStore, VectorTs)>,
        dim: PartitionDim,
        tracked_chunks: Option<usize>,
    ) -> Self {
        assert!(!parts.is_empty(), "cell needs at least one stripe");
        let stripes = parts
            .into_iter()
            .map(|(mut store, vector)| {
                if let Some(chunks) = tracked_chunks {
                    store.enable_chunk_tracking(chunks);
                }
                Mutex::new(CellInner { store, vector })
            })
            .collect();
        StateCell {
            stripes,
            tracked_chunks,
            dim,
        }
    }

    /// Number of stripes in this cell.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Maps a route hash to its stripe index.
    fn stripe_of(&self, route: Option<u64>) -> usize {
        match route {
            Some(h) if self.stripes.len() > 1 => KeyLayout::stripe(h, self.stripes.len()),
            _ => 0,
        }
    }

    /// Runs `f` with the cell locked.
    ///
    /// Only valid on unstriped cells (the historical single-mutex API);
    /// striped cells must use [`StateCell::apply_routed`],
    /// [`StateCell::with_all`] or [`StateCell::with_merged`].
    pub fn with<R>(&self, f: impl FnOnce(&mut CellInner) -> R) -> R {
        debug_assert!(
            self.stripes.len() == 1,
            "StateCell::with on a striped cell; use with_all/with_merged"
        );
        f(&mut self.stripes[0].lock())
    }

    /// Runs `f` with the stripe owning `route` locked.
    pub fn with_routed<R>(&self, route: Option<u64>, f: impl FnOnce(&mut CellInner) -> R) -> R {
        f(&mut self.stripes[self.stripe_of(route)].lock())
    }

    /// Runs `f` with **all** stripes locked, in index order.
    ///
    /// This is the checkpoint cut: while `f` runs no item can mutate any
    /// stripe, so the per-stripe (snapshot, vector) pairs form one
    /// consistent cell-level state.
    pub fn with_all<R>(&self, f: impl FnOnce(&mut [&mut CellInner]) -> R) -> R {
        let mut guards: Vec<_> = self.stripes.iter().map(|m| m.lock()).collect();
        let mut inners: Vec<&mut CellInner> = guards.iter_mut().map(|g| &mut **g).collect();
        f(&mut inners)
    }

    /// Applies one input item: returns `None` without calling `f` if the
    /// item is a duplicate (already covered by the owning stripe's vector),
    /// otherwise runs `f` on the stripe's shard and advances its watermark.
    pub fn apply<R>(
        &self,
        edge: EdgeId,
        ts: ScalarTs,
        f: impl FnOnce(&mut StateStore) -> R,
    ) -> Option<R> {
        self.apply_routed(edge, ts, None, f)
    }

    /// [`StateCell::apply`] with an explicit route hash selecting the
    /// stripe. `route` must be the stable hash of the item's partition key
    /// (the same hash the dispatcher used), so the item lands on the stripe
    /// owning its key. A striped cell needs it.
    pub fn apply_routed<R>(
        &self,
        edge: EdgeId,
        ts: ScalarTs,
        route: Option<u64>,
        f: impl FnOnce(&mut StateStore) -> R,
    ) -> Option<R> {
        debug_assert!(
            route.is_some() || self.stripes.len() == 1,
            "an item applied to a striped cell carries no route hash"
        );
        let mut inner = self.stripes[self.stripe_of(route)].lock();
        if inner.vector.is_duplicate(edge, ts) {
            return None;
        }
        let r = f(&mut inner.store);
        inner.vector.observe(edge, ts);
        Some(r)
    }

    /// Returns the cell-level vector timestamp: the pointwise minimum
    /// across stripes (checkpoint metadata and buffer trimming; see the
    /// module docs for why replay uses [`StateCell::frontier`] instead).
    pub fn vector(&self) -> VectorTs {
        if self.stripes.len() == 1 {
            return self.stripes[0].lock().vector.clone();
        }
        let vectors: Vec<VectorTs> = self
            .stripes
            .iter()
            .map(|s| s.lock().vector.clone())
            .collect();
        VectorTs::pointwise_min(&vectors)
    }

    /// Returns the cell's replay frontier: the pointwise maximum across
    /// stripes. On a lane whose items one TE instance applies in timestamp
    /// order, every item at or below it is already in the cell, so
    /// recovery replays only the items past it (see the module docs).
    pub fn frontier(&self) -> VectorTs {
        let mut frontier = VectorTs::new();
        for s in &self.stripes {
            frontier.merge_max(&s.lock().vector);
        }
        frontier
    }

    /// Returns every stripe's vector (checkpoint metadata).
    pub fn stripe_vectors(&self) -> Vec<VectorTs> {
        self.stripes
            .iter()
            .map(|s| s.lock().vector.clone())
            .collect()
    }

    /// Returns the approximate state size in bytes (sum over stripes).
    pub fn approx_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().store.approx_bytes())
            .sum()
    }

    /// Returns the approximate bytes held by dirty overlays (0 when no
    /// checkpoint is in flight).
    pub fn dirty_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().store.dirty_bytes())
            .sum()
    }

    /// Number of chunks currently marked dirty across all stripes (0 when
    /// dirty tracking is off).
    pub fn pending_dirty_chunks(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().store.dirty_chunk_count())
            .sum()
    }

    /// Marks every tracked chunk dirty in every stripe (forces the next
    /// checkpoint to serialise everything).
    pub fn mark_all_dirty(&self) {
        for s in &self.stripes {
            s.lock().store.mark_all_dirty();
        }
    }

    /// Exports the merged visible state and the merge-max vector across
    /// stripes, locking all stripes for a consistent cut.
    ///
    /// The merge-max vector is the right watermark for scale-out: the
    /// receiving instances must reject anything *any* stripe already
    /// applied, and redistributed keys carry fresh (higher) timestamps.
    pub fn export_merged(&self) -> (Vec<StateEntry>, VectorTs) {
        self.with_all(|inners| {
            let mut entries = Vec::new();
            let mut vector = VectorTs::new();
            for inner in inners.iter_mut() {
                entries.extend(inner.store.export_entries());
                vector.merge_max(&inner.vector);
            }
            (entries, vector)
        })
    }

    /// Runs `f` on a merged view of the whole cell, then re-splits the
    /// result back into the stripes.
    ///
    /// Used for bulk access (state preloading, `with_state`). On a striped
    /// cell this costs a copy of every entry into one store and another
    /// back into the stripes, under every stripe lock, whatever `f` does.
    /// The re-split shards keep the chunks the stripes had dirty plus the
    /// ones `f` dirtied, so a read-only `f` leaves the next checkpoint's
    /// delta as it was. Stripe vectors are unchanged (bulk access is not
    /// dataflow input).
    pub fn with_merged<R>(&self, f: impl FnOnce(&mut StateStore) -> R) -> SdgResult<R> {
        self.with_all(|inners| self.merged(inners, f))
    }

    /// Additively merges `entries` (another replica's exported partial
    /// aggregate) into this cell and folds `vector` into every stripe's
    /// watermark by pointwise max.
    ///
    /// This is the scale-in path for `@Partial` SEs: the victim replica's
    /// contribution is summed into a survivor so the group-wide aggregate
    /// (the element-wise sum over replicas) is preserved. Merge-max is the
    /// right watermark because the group is drained first — anything either
    /// side already applied must be rejected on replay, and fresh items
    /// carry higher timestamps. The merged shards are marked all-dirty so
    /// the next checkpoint serialises the new contents.
    pub fn merge_additive(&self, entries: &[StateEntry], vector: &VectorTs) -> SdgResult<()> {
        self.with_all(|inners| {
            self.merged(inners, |store| {
                store.merge_additive(entries)?;
                store.mark_all_dirty();
                SdgResult::Ok(())
            })??;
            for inner in inners.iter_mut() {
                inner.vector.merge_max(vector);
            }
            Ok(())
        })
    }

    /// Runs `f` on one store holding every entry of the locked `inners`,
    /// then re-splits it by key hash back into the stripes. A single
    /// stripe's own store is used in place.
    ///
    /// Each re-split stripe tracks the union of the stripes' dirty chunks
    /// and the chunks `f` dirtied on the merged store. The checkpoint
    /// writes the union of its stripes' sets, so that is exactly what the
    /// next take would have written plus `f`'s writes. Untracked
    /// structures stay untracked.
    fn merged<R>(
        &self,
        inners: &mut [&mut CellInner],
        f: impl FnOnce(&mut StateStore) -> R,
    ) -> SdgResult<R> {
        if let [only] = inners {
            return Ok(f(&mut only.store));
        }
        let mut merged = StateStore::new(inners[0].store.state_type());
        let mut dirty = Vec::new();
        for inner in inners.iter_mut() {
            merged.import_entries(&inner.store.export_entries())?;
            dirty.extend(inner.store.take_dirty_chunks().unwrap_or_default());
        }
        let tracked = self
            .tracked_chunks
            .filter(|&chunks| merged.enable_chunk_tracking(chunks));
        // Tracking starts all dirty: clear it, so only `f`'s writes mark.
        merged.take_dirty_chunks();
        let r = f(&mut merged);
        dirty.extend(merged.take_dirty_chunks().unwrap_or_default());
        let parts = merged.split_by_hash(inners.len(), self.dim)?;
        for (inner, mut part) in inners.iter_mut().zip(parts) {
            if let Some(chunks) = tracked {
                part.enable_chunk_tracking(chunks);
                part.take_dirty_chunks();
                part.mark_chunks_dirty(&dirty);
            }
            inner.store = part;
        }
        Ok(r)
    }

    /// Installs `stores`, one per stripe as [`crate::backup::ChunkReader`]
    /// placed them, and `vector` on every stripe.
    ///
    /// A scale repartitions into the cells the workers already hold this
    /// way. Assigning one vector to every stripe is exact there: the group
    /// was drained, so fresh items carry higher timestamps than anything
    /// installed. Tracked chunks start all dirty, so the next take is a
    /// base.
    ///
    /// # Panics
    ///
    /// Panics if `stores` does not hold one store per stripe.
    pub fn install(&self, stores: Vec<StateStore>, vector: &VectorTs) {
        self.with_all(|inners| {
            assert_eq!(inners.len(), stores.len(), "one store per stripe");
            for (inner, mut store) in inners.iter_mut().zip(stores) {
                if let Some(chunks) = self.tracked_chunks {
                    store.enable_chunk_tracking(chunks);
                }
                inner.store = store;
                inner.vector = vector.clone();
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backup::ChunkReader;
    use sdg_common::value::{Key, Value};

    #[test]
    fn apply_rejects_duplicates() {
        let cell = StateCell::new(StateType::Table);
        let edge = EdgeId(0);
        let applied = cell.apply(edge, 1, |s| {
            s.as_table().unwrap().put(Key::Int(1), Value::Int(1));
        });
        assert!(applied.is_some());
        // Replaying the same timestamp is a no-op.
        let replayed = cell.apply(edge, 1, |s| {
            s.as_table().unwrap().put(Key::Int(1), Value::Int(999));
        });
        assert!(replayed.is_none());
        cell.with(|inner| {
            assert_eq!(
                inner.store.as_table().unwrap().get(&Key::Int(1)),
                Some(Value::Int(1))
            );
        });
    }

    #[test]
    fn apply_tracks_per_edge_watermarks() {
        let cell = StateCell::new(StateType::Table);
        assert!(cell.apply(EdgeId(0), 5, |_| ()).is_some());
        // A different edge has its own watermark.
        assert!(cell.apply(EdgeId(1), 3, |_| ()).is_some());
        assert!(cell.apply(EdgeId(0), 3, |_| ()).is_none());
        assert_eq!(cell.vector().get(EdgeId(0)), 5);
        assert_eq!(cell.vector().get(EdgeId(1)), 3);
    }

    #[test]
    fn with_gives_exclusive_access() {
        let cell = StateCell::new(StateType::Vector);
        cell.with(|inner| inner.store.as_vector().unwrap().set(9, 1.0));
        assert_eq!(cell.approx_bytes(), 80);
    }

    #[test]
    fn routed_items_land_on_their_keys_stripe() {
        let cell = StateCell::new_striped(StateType::Table, 4, PartitionDim::Row, None);
        for i in 0..40i64 {
            let key = Key::Int(i);
            let route = key.stable_hash();
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(route), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i));
            });
        }
        // Every key is visible via the stripe its hash selects, and only
        // that stripe.
        for i in 0..40i64 {
            let key = Key::Int(i);
            let found = cell.with_routed(Some(key.stable_hash()), |inner| {
                inner.store.as_table().unwrap().get(&key)
            });
            assert_eq!(found, Some(Value::Int(i)));
        }
        let total: usize = cell.with_all(|inners| {
            inners
                .iter_mut()
                .map(|i| i.store.as_table().unwrap().len())
                .sum()
        });
        assert_eq!(total, 40);
    }

    #[test]
    fn cell_vector_is_the_stripes_minimum_and_frontier_their_maximum() {
        let cell = StateCell::new_striped(StateType::Table, 2, PartitionDim::Row, None);
        // Find keys for each stripe.
        let mut key_for = [None, None];
        for i in 0..100i64 {
            let stripe = (Key::Int(i).stable_hash() % 2) as usize;
            if key_for[stripe].is_none() {
                key_for[stripe] = Some(i);
            }
        }
        let (k0, k1) = (key_for[0].unwrap(), key_for[1].unwrap());
        // Stripe 0 saw ts 10, stripe 1 only ts 4: trimming may free only
        // what both stripes passed (4), while the lane's prefix up to 10 is
        // in the cell, so replay resumes past the frontier (10). A lane no
        // stripe saw reads 0 on both.
        cell.apply_routed(EdgeId(7), 4, Some(Key::Int(k1).stable_hash()), |_| ());
        cell.apply_routed(EdgeId(7), 10, Some(Key::Int(k0).stable_hash()), |_| ());
        assert_eq!(cell.vector().get(EdgeId(7)), 4);
        assert_eq!(cell.frontier().get(EdgeId(7)), 10);
        assert_eq!(cell.frontier().get(EdgeId(8)), 0);
        let vs = cell.stripe_vectors();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].get(EdgeId(7)).max(vs[1].get(EdgeId(7))), 10);
    }

    #[test]
    fn with_merged_roundtrips_striped_contents() {
        let cell = StateCell::new_striped(StateType::Table, 4, PartitionDim::Row, Some(8));
        for i in 0..30i64 {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i * 2));
            });
        }
        let len = cell
            .with_merged(|store| {
                let t = store.as_table().unwrap();
                t.put(Key::Int(999), Value::Int(999));
                t.len()
            })
            .unwrap();
        assert_eq!(len, 31);
        // The bulk write is visible through the routed path afterwards.
        let key = Key::Int(999);
        let found = cell.with_routed(Some(key.stable_hash()), |inner| {
            inner.store.as_table().unwrap().get(&key)
        });
        assert_eq!(found, Some(Value::Int(999)));
        // Tracking was re-enabled all-dirty by the re-split.
        assert_eq!(cell.pending_dirty_chunks(), 4 * 8);
    }

    #[test]
    fn merge_additive_folds_partial_replica_in() {
        // Survivor and victim hold independent partial counts; after the
        // merge the survivor holds the element-wise sum, and its watermark
        // covers both replicas' applied input.
        let survivor = StateCell::new(StateType::Table);
        survivor.apply(EdgeId(1), 3, |s| {
            s.as_table().unwrap().put(Key::Int(1), Value::Int(5));
            s.as_table().unwrap().put(Key::Int(2), Value::Int(1));
        });
        let victim = StateCell::new(StateType::Table);
        victim.apply(EdgeId(1), 7, |s| {
            s.as_table().unwrap().put(Key::Int(1), Value::Int(2));
            s.as_table().unwrap().put(Key::Int(9), Value::Int(4));
        });
        let (entries, vector) = victim.export_merged();
        survivor.merge_additive(&entries, &vector).unwrap();
        survivor.with(|inner| {
            let t = inner.store.as_table().unwrap();
            assert_eq!(t.get(&Key::Int(1)), Some(Value::Int(7)));
            assert_eq!(t.get(&Key::Int(2)), Some(Value::Int(1)));
            assert_eq!(t.get(&Key::Int(9)), Some(Value::Int(4)));
        });
        assert_eq!(survivor.vector().get(EdgeId(1)), 7);
    }

    #[test]
    fn merge_additive_respects_stripe_routing() {
        let cell = StateCell::new_striped(StateType::Table, 4, PartitionDim::Row, Some(8));
        for i in 0..20i64 {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(0), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(1));
            });
        }
        let mut incoming = StateStore::new(StateType::Table);
        for i in 0..20i64 {
            incoming
                .as_table()
                .unwrap()
                .put(Key::Int(i), Value::Int(10));
        }
        cell.merge_additive(&incoming.export_entries(), &VectorTs::new())
            .unwrap();
        for i in 0..20i64 {
            let key = Key::Int(i);
            let found = cell.with_routed(Some(key.stable_hash()), |inner| {
                inner.store.as_table().unwrap().get(&key)
            });
            assert_eq!(found, Some(Value::Int(11)));
        }
        // The re-split re-enabled tracking all-dirty.
        assert_eq!(cell.pending_dirty_chunks(), 4 * 8);
    }

    #[test]
    fn export_merged_and_install_roundtrip() {
        let cell = StateCell::new_striped(StateType::Table, 3, PartitionDim::Row, None);
        for i in 0..20i64 {
            let key = Key::Int(i);
            cell.apply_routed(EdgeId(2), (i + 1) as u64, Some(key.stable_hash()), |s| {
                s.as_table().unwrap().put(key.clone(), Value::Int(i));
            });
        }
        let (entries, vector) = cell.export_merged();
        assert_eq!(entries.len(), 20);
        assert_eq!(vector.get(EdgeId(2)), 20);
        let mut reader = ChunkReader::new(StateType::Table, 1, 5, PartitionDim::Row);
        assert_eq!(
            reader.place(0, &entries).unwrap(),
            0,
            "one instance: nothing moves"
        );
        let other = StateCell::new_striped(StateType::Table, 5, PartitionDim::Row, Some(8));
        other.install(reader.finish().remove(0), &vector);
        assert_eq!(other.vector().get(EdgeId(2)), 20);
        assert_eq!(other.pending_dirty_chunks(), 5 * 8, "installed all dirty");
        for i in 0..20i64 {
            let key = Key::Int(i);
            let found = other.with_routed(Some(key.stable_hash()), |inner| {
                inner.store.as_table().unwrap().get(&key)
            });
            assert_eq!(found, Some(Value::Int(i)));
        }
    }
}
