//! Upstream output buffers for message replay (§5).
//!
//! Every TE instance keeps, per outgoing dataflow edge, the items it has
//! sent since the oldest downstream checkpoint. After a downstream failure
//! the buffer is replayed; once all downstream checkpoints cover a
//! timestamp, the prefix up to it is trimmed.
//!
//! An entry is the item's header plus a refcounted handle on the very
//! record the consumer received, so logging costs an `Arc` clone and
//! replay re-sends the handle with zero decode. The runtime's buffers live
//! in a registry that outlives any instance kill, so no checkpoint copies
//! or encodes them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sdg_common::time::ScalarTs;
use sdg_common::value::Record;

/// One buffered output item.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedItem {
    /// Timestamp assigned by the producer on this edge.
    pub ts: ScalarTs,
    /// Correlation id of the originating external input.
    pub corr: u64,
    /// Expected downstream instance count (gather bookkeeping).
    pub expect: u32,
    /// The dispatched record, shared with the in-flight item.
    pub payload: Arc<Record>,
}

impl BufferedItem {
    /// Bytes this item accounts for in the buffer: the record's approximate
    /// in-memory footprint plus a fixed header allowance, with no encode on
    /// the dispatch path.
    pub fn cost(&self) -> usize {
        self.payload.approx_size() + 16
    }
}

/// An output buffer for one dataflow edge of one producer instance.
#[derive(Debug, Default)]
pub struct OutputBuffer {
    items: VecDeque<BufferedItem>,
    bytes: usize,
    /// Aggregate byte counter shared with the owning registry, kept in
    /// lock-step with `bytes` so a deployment-wide total is one atomic
    /// load instead of a walk over every buffer's lock.
    shared: Option<Arc<AtomicUsize>>,
}

impl OutputBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer that mirrors every byte-count change into
    /// `counter` (the registry's aggregate).
    pub fn with_shared(counter: Arc<AtomicUsize>) -> Self {
        OutputBuffer {
            shared: Some(counter),
            ..Self::default()
        }
    }

    fn account_add(&mut self, n: usize) {
        self.bytes += n;
        if let Some(c) = &self.shared {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn account_sub(&mut self, n: usize) {
        self.bytes -= n;
        if let Some(c) = &self.shared {
            c.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Appends an item sharing `payload` by refcount: no serialisation.
    ///
    /// Timestamps must arrive in increasing order (each producer lane owns
    /// its edge's timestamp generator).
    ///
    /// # Panics
    ///
    /// Panics if `ts` is not greater than the last buffered timestamp —
    /// that would indicate a broken timestamp generator upstream, which
    /// would corrupt replay.
    pub fn push_live(&mut self, ts: ScalarTs, corr: u64, expect: u32, payload: Arc<Record>) {
        if let Some(last) = self.items.back() {
            assert!(
                ts > last.ts,
                "output buffer timestamps must increase: {ts} after {}",
                last.ts
            );
        }
        let item = BufferedItem {
            ts,
            corr,
            expect,
            payload,
        };
        self.account_add(item.cost());
        self.items.push_back(item);
    }

    /// Drops all items with `ts <= watermark` (they are covered by every
    /// downstream checkpoint).
    ///
    /// When the watermark covers the whole buffer — the common case under
    /// watermark storms right after a checkpoint — the back sentinel is
    /// checked once and the buffer is cleared wholesale instead of
    /// re-checking and re-accounting per item.
    pub fn trim(&mut self, watermark: ScalarTs) {
        if self.drain_covered(watermark) {
            return;
        }
        while let Some(front) = self.items.front() {
            if front.ts <= watermark {
                let cost = front.cost();
                self.account_sub(cost);
                self.items.pop_front();
            } else {
                break;
            }
        }
    }

    /// Fast path for [`OutputBuffer::trim`]: when `watermark` covers the
    /// newest buffered item it covers all of them (timestamps are
    /// monotone), so everything is dropped in O(1) bookkeeping. Returns
    /// `true` when it handled the trim.
    fn drain_covered(&mut self, watermark: ScalarTs) -> bool {
        match self.items.back() {
            Some(back) if back.ts <= watermark => {
                self.items.clear();
                let n = self.bytes;
                self.account_sub(n);
                true
            }
            Some(_) => false,
            None => true,
        }
    }

    /// Returns the items with `ts > after`, in timestamp order, for replay.
    ///
    /// Timestamps strictly increase along the buffer, so a binary search
    /// finds the first item to replay and only the suffix is copied.
    /// Payloads are shared by refcount — no record is deep-cloned under the
    /// caller's lock.
    pub fn replay_after(&self, after: ScalarTs) -> Vec<BufferedItem> {
        let start = self.items.partition_point(|i| i.ts <= after);
        self.items.range(start..).cloned().collect()
    }

    /// Drops the oldest items until at most `max_items` remain.
    ///
    /// Used to bound the upstream-backup horizon for consumers that never
    /// checkpoint (stateless TEs).
    pub fn cap(&mut self, max_items: usize) {
        while self.items.len() > max_items {
            if let Some(front) = self.items.pop_front() {
                self.account_sub(front.cost());
            }
        }
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total approximate payload bytes buffered (see
    /// [`BufferedItem::cost`]).
    pub fn buffered_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::record;
    use sdg_common::value::Value;

    fn rec(n: i64) -> Arc<Record> {
        Arc::new(record! { "k" => Value::Int(n), "s" => Value::Str("payload".into()) })
    }

    fn buf_with(ts: &[u64]) -> OutputBuffer {
        let mut b = OutputBuffer::new();
        for &t in ts {
            b.push_live(t, t, 1, rec(t as i64));
        }
        b
    }

    fn timestamps(items: &[BufferedItem]) -> Vec<u64> {
        items.iter().map(|i| i.ts).collect()
    }

    #[test]
    fn push_and_len() {
        let b = buf_with(&[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.buffered_bytes(), 3 * (rec(0).approx_size() + 16));
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "timestamps must increase")]
    fn non_monotone_push_panics() {
        let mut b = buf_with(&[5]);
        b.push_live(5, 0, 1, rec(5));
    }

    #[test]
    fn live_push_accounts_approx_size_without_encoding() {
        let mut b = OutputBuffer::new();
        let r = rec(7);
        b.push_live(1, 9, 2, Arc::clone(&r));
        assert_eq!(b.len(), 1);
        assert_eq!(b.buffered_bytes(), r.approx_size() + 16);
        // The buffer holds the same allocation the producer dispatched.
        let logged = &b.replay_after(0)[0];
        assert_eq!((logged.corr, logged.expect), (9, 2));
        assert!(Arc::ptr_eq(&logged.payload, &r));
    }

    #[test]
    fn trim_drops_covered_prefix() {
        let mut b = buf_with(&[1, 2, 3, 4, 5]);
        b.trim(3);
        assert_eq!(b.len(), 2);
        assert_eq!(timestamps(&b.replay_after(0)), vec![4, 5]);
        b.trim(100);
        assert!(b.is_empty());
        assert_eq!(b.buffered_bytes(), 0);
    }

    #[test]
    fn trim_covering_the_back_sentinel_clears_wholesale() {
        let mut b = buf_with(&[1, 2, 3, 4]);
        b.trim(4); // == the newest ts: the drain_covered fast path.
        assert!(b.is_empty());
        assert_eq!(b.buffered_bytes(), 0);
        b.trim(4); // Idempotent on an empty buffer.
        assert!(b.is_empty());
    }

    #[test]
    fn trim_is_idempotent() {
        let mut b = buf_with(&[1, 2, 3]);
        b.trim(2);
        b.trim(2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn replay_after_filters_by_watermark() {
        let b = buf_with(&[10, 20, 30]);
        assert_eq!(timestamps(&b.replay_after(15)), vec![20, 30]);
        assert!(b.replay_after(30).is_empty());
    }

    #[test]
    fn replay_after_equals_the_filter_after_pushes_trims_and_caps() {
        // Oracle: a plain list of the buffered timestamps, trimmed and
        // capped by the same rules, filtered linearly. Timestamps advance
        // by gaps of 1–3 so watermarks fall both on and between buffered
        // items.
        let mut b = OutputBuffer::new();
        let mut model: Vec<u64> = Vec::new();
        let mut ts = 0u64;
        for round in 0..40u64 {
            for _ in 0..(round % 7) {
                ts += 1 + (ts % 3);
                b.push_live(ts, ts, 1, rec(ts as i64));
                model.push(ts);
            }
            match round % 5 {
                1 => {
                    let wm = ts.saturating_sub(round % 9);
                    b.trim(wm);
                    model.retain(|&t| t > wm);
                }
                3 => {
                    let max = (round % 4) as usize;
                    b.cap(max);
                    model.drain(..model.len().saturating_sub(max));
                }
                _ => {}
            }
            for after in 0..=ts + 1 {
                let want: Vec<u64> = model.iter().copied().filter(|&t| t > after).collect();
                assert_eq!(
                    timestamps(&b.replay_after(after)),
                    want,
                    "round {round}, after {after}"
                );
            }
        }
    }

    #[test]
    fn replay_shares_live_payloads_by_refcount() {
        let mut b = OutputBuffer::new();
        let r = rec(1);
        b.push_live(1, 0, 1, Arc::clone(&r));
        let replay = b.replay_after(0);
        assert!(Arc::ptr_eq(&replay[0].payload, &r));
    }

    #[test]
    fn cap_bounds_the_buffer() {
        let mut b = buf_with(&[1, 2, 3, 4, 5]);
        b.cap(2);
        assert_eq!(b.len(), 2);
        assert_eq!(timestamps(&b.replay_after(0)), vec![4, 5]);
        b.cap(10); // No-op when under the cap.
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn shared_counter_matches_recomputation() {
        // Oracle: after any sequence of mutations, the aggregate counter
        // equals a from-scratch walk over the buffers (mirrors the
        // `dirty_bytes` oracle in `sdg_state::table`).
        let counter = Arc::new(AtomicUsize::new(0));
        let mut a = OutputBuffer::with_shared(Arc::clone(&counter));
        let mut b = OutputBuffer::with_shared(Arc::clone(&counter));
        for t in 1..=8u64 {
            a.push_live(t, t, 1, rec(t as i64 * 1000));
        }
        for t in 1..=3u64 {
            b.push_live(t, 0, 1, Arc::new(record! { "n" => Value::Int(t as i64) }));
        }
        let recompute = |x: &OutputBuffer, y: &OutputBuffer| {
            [x, y]
                .iter()
                .flat_map(|buf| buf.replay_after(0))
                .map(|i| i.cost())
                .sum::<usize>()
        };
        assert_eq!(counter.load(Ordering::Relaxed), recompute(&a, &b));
        a.trim(3); // Per-item prefix trim.
        assert_eq!(counter.load(Ordering::Relaxed), recompute(&a, &b));
        a.cap(2); // Horizon cap.
        assert_eq!(counter.load(Ordering::Relaxed), recompute(&a, &b));
        a.trim(u64::MAX); // Wholesale drain fast path.
        b.trim(u64::MAX);
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }
}
