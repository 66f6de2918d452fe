//! Upstream output buffers for message replay (§5).
//!
//! Every TE instance keeps, per outgoing dataflow edge, the items it has
//! sent since the oldest downstream checkpoint. After a downstream failure
//! the buffer is replayed; once all downstream checkpoints cover a
//! timestamp, the prefix up to it is trimmed.
//!
//! Payloads are **two-state**: items logged on the dispatch path stay
//! [`BufferedPayload::Live`] — a refcounted handle on the very record the
//! consumer received, so logging costs an `Arc` clone instead of an encode —
//! and are only *sealed* into [`BufferedPayload::Encoded`] wire bytes when a
//! caller hands them to a checkpoint to persist. The runtime never does: its
//! buffers outlive any instance kill, so they stay `Live` until trimmed.
//! Replay handles both: `Live` items are re-sent with zero decode, `Encoded`
//! items fall back to the wire codec.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::BytesMut;
use sdg_common::codec::{write_varint, Codec};
use sdg_common::time::ScalarTs;
use sdg_common::value::Record;

/// The payload of one buffered output item.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferedPayload {
    /// An item logged this epoch: the producer parks a refcounted handle on
    /// the record it dispatched, plus the header fields needed to rebuild
    /// the wire form. Encoding is deferred until a checkpoint seals it.
    Live {
        /// Correlation id of the originating external input.
        corr: u64,
        /// Expected downstream instance count (gather bookkeeping).
        expect: u32,
        /// The dispatched record, shared with the in-flight item.
        payload: Arc<Record>,
    },
    /// Wire bytes, sealed at checkpoint persist or restored from a
    /// checkpoint. Layout: varint `corr`, varint `expect`, then the record
    /// encoding.
    Encoded(Vec<u8>),
}

/// One buffered output item: its scalar timestamp and two-state payload.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedItem {
    /// Timestamp assigned by the producer on this edge.
    pub ts: ScalarTs,
    /// The payload, live or encoded.
    pub payload: BufferedPayload,
}

impl BufferedItem {
    /// A live (deferred-encoding) item sharing `payload` by refcount.
    pub fn live(ts: ScalarTs, corr: u64, expect: u32, payload: Arc<Record>) -> Self {
        BufferedItem {
            ts,
            payload: BufferedPayload::Live {
                corr,
                expect,
                payload,
            },
        }
    }

    /// An item already in wire form.
    pub fn encoded(ts: ScalarTs, bytes: Vec<u8>) -> Self {
        BufferedItem {
            ts,
            payload: BufferedPayload::Encoded(bytes),
        }
    }

    /// Renders the payload's wire bytes (varint `corr`, varint `expect`,
    /// record encoding).
    pub fn to_bytes(&self) -> Vec<u8> {
        match &self.payload {
            BufferedPayload::Live {
                corr,
                expect,
                payload,
            } => {
                let mut buf = BytesMut::with_capacity(payload.approx_size() + 16);
                write_varint(&mut buf, *corr);
                write_varint(&mut buf, u64::from(*expect));
                payload.encode(&mut buf);
                buf.to_vec()
            }
            BufferedPayload::Encoded(bytes) => bytes.clone(),
        }
    }

    /// Converts a `Live` payload to its `Encoded` form in place. Returns
    /// `true` when an encode actually happened (the item was live).
    pub fn seal(&mut self) -> bool {
        if matches!(self.payload, BufferedPayload::Encoded(_)) {
            return false;
        }
        self.payload = BufferedPayload::Encoded(self.to_bytes());
        true
    }

    /// Bytes this item accounts for in the buffer: the record's approximate
    /// in-memory footprint for `Live` items (no encode on the dispatch
    /// path), the exact wire length for `Encoded` ones.
    pub fn cost(&self) -> usize {
        match &self.payload {
            BufferedPayload::Live { payload, .. } => payload.approx_size() + 16,
            BufferedPayload::Encoded(bytes) => bytes.len(),
        }
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

impl Clone for OutputBuffer {
    fn clone(&self) -> Self {
        // A clone is a detached copy: it must not double-account its bytes
        // in the origin's aggregate counter.
        OutputBuffer {
            items: self.items.clone(),
            bytes: self.bytes,
            shared: None,
        }
    }
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

    /// Appends an item.
    ///
    /// Timestamps must arrive in increasing order (each producer instance
    /// owns its edge's timestamp generator).
    ///
    /// # Panics
    ///
    /// Panics if `item.ts` is not greater than the last buffered timestamp —
    /// that would indicate a broken timestamp generator upstream, which
    /// would corrupt replay.
    pub fn push(&mut self, item: BufferedItem) {
        if let Some(last) = self.items.back() {
            assert!(
                item.ts > last.ts,
                "output buffer timestamps must increase: {} after {}",
                item.ts,
                last.ts
            );
        }
        self.account_add(item.cost());
        self.items.push_back(item);
    }

    /// Appends a live (deferred-encoding) item: one refcount bump, no
    /// serialisation. See [`OutputBuffer::push`] for the monotonicity rule.
    pub fn push_live(&mut self, ts: ScalarTs, corr: u64, expect: u32, payload: Arc<Record>) {
        self.push(BufferedItem::live(ts, corr, expect, payload));
    }

    /// Appends an item already in wire form (restored from a checkpoint).
    /// See [`OutputBuffer::push`] for the monotonicity rule.
    pub fn push_encoded(&mut self, ts: ScalarTs, bytes: Vec<u8>) {
        self.push(BufferedItem::encoded(ts, bytes));
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
    /// finds the first item to replay and only the suffix is copied. Live
    /// payloads are shared by refcount — no record is deep-cloned under the
    /// caller's lock.
    pub fn replay_after(&self, after: ScalarTs) -> Vec<BufferedItem> {
        let start = self.items.partition_point(|i| i.ts <= after);
        self.items.range(start..).cloned().collect()
    }

    /// Returns all buffered items (for inclusion in the producer's own
    /// checkpoint). Live payloads are shared by refcount, so this is cheap
    /// enough to run under the checkpoint initiation lock; the persist
    /// phase seals them into wire bytes off-path.
    pub fn snapshot(&self) -> Vec<BufferedItem> {
        self.items.iter().cloned().collect()
    }

    /// Replaces the contents from a checkpoint snapshot.
    pub fn restore(&mut self, items: Vec<BufferedItem>) {
        let old = self.bytes;
        self.account_sub(old);
        let new: usize = items.iter().map(|i| i.cost()).sum();
        self.account_add(new);
        self.items = items.into();
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

    /// Total approximate payload bytes buffered (wire length for encoded
    /// items, `Record::approx_size` for live ones).
    pub fn buffered_bytes(&self) -> usize {
        self.bytes
    }

    /// Highest buffered timestamp (0 when empty).
    pub fn last_ts(&self) -> ScalarTs {
        self.items.back().map(|i| i.ts).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::codec::{encode_to_vec, Reader};
    use sdg_common::record;
    use sdg_common::value::Value;

    fn buf_with(ts: &[u64]) -> OutputBuffer {
        let mut b = OutputBuffer::new();
        for &t in ts {
            b.push_encoded(t, vec![t as u8; 4]);
        }
        b
    }

    fn rec(n: i64) -> Arc<Record> {
        Arc::new(record! { "k" => Value::Int(n), "s" => Value::Str("payload".into()) })
    }

    #[test]
    fn push_and_len() {
        let b = buf_with(&[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.buffered_bytes(), 12);
        assert_eq!(b.last_ts(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "timestamps must increase")]
    fn non_monotone_push_panics() {
        let mut b = buf_with(&[5]);
        b.push_encoded(5, vec![]);
    }

    #[test]
    #[should_panic(expected = "timestamps must increase")]
    fn non_monotone_live_push_panics() {
        let mut b = buf_with(&[5]);
        b.push_live(4, 0, 1, rec(4));
    }

    #[test]
    fn live_push_accounts_approx_size_without_encoding() {
        let mut b = OutputBuffer::new();
        let r = rec(7);
        b.push_live(1, 9, 2, Arc::clone(&r));
        assert_eq!(b.len(), 1);
        assert_eq!(b.buffered_bytes(), r.approx_size() + 16);
        // The buffer holds the same allocation the producer dispatched.
        match &b.snapshot()[0].payload {
            BufferedPayload::Live { payload, .. } => assert!(Arc::ptr_eq(payload, &r)),
            BufferedPayload::Encoded(_) => panic!("live push must stay live"),
        }
    }

    #[test]
    fn seal_produces_the_wire_bytes() {
        let r = rec(42);
        let mut item = BufferedItem::live(3, 99, 2, Arc::clone(&r));

        // Reference: the wire layout written out by hand.
        let mut expect = BytesMut::new();
        write_varint(&mut expect, 99);
        write_varint(&mut expect, 2);
        r.encode(&mut expect);
        let expect = expect.to_vec();

        assert_eq!(item.to_bytes(), expect);
        assert!(item.seal());
        assert!(!item.seal(), "sealing is idempotent");
        assert_eq!(item.payload, BufferedPayload::Encoded(expect.clone()));
        assert_eq!(item.cost(), expect.len());

        // The sealed bytes decode back to the original header + record.
        let mut rd = Reader::new(&expect);
        assert_eq!(rd.read_varint().unwrap(), 99);
        assert_eq!(rd.read_varint().unwrap(), 2);
        assert_eq!(Record::decode(&mut rd).unwrap(), *r);
    }

    #[test]
    fn sealed_encoded_item_matches_encode_to_vec_layout() {
        // The record portion of the wire form is exactly `Record::encode`.
        let r = rec(5);
        let bytes = BufferedItem::live(1, 0, 1, Arc::clone(&r)).to_bytes();
        let record_bytes = encode_to_vec(&*r);
        assert!(bytes.ends_with(&record_bytes));
    }

    #[test]
    fn trim_drops_covered_prefix() {
        let mut b = buf_with(&[1, 2, 3, 4, 5]);
        b.trim(3);
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.replay_after(0).iter().map(|i| i.ts).collect::<Vec<_>>(),
            vec![4, 5]
        );
        b.trim(100);
        assert!(b.is_empty());
        assert_eq!(b.buffered_bytes(), 0);
    }

    #[test]
    fn trim_covering_the_back_sentinel_clears_wholesale() {
        let mut b = buf_with(&[1, 2, 3]);
        b.push_live(4, 0, 1, rec(4));
        b.trim(4); // == last_ts: the drain_covered fast path.
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
        let replay = b.replay_after(15);
        assert_eq!(
            replay.iter().map(|i| i.ts).collect::<Vec<_>>(),
            vec![20, 30]
        );
        assert!(b.replay_after(30).is_empty());
    }

    #[test]
    fn replay_after_equals_the_filter_after_pushes_trims_and_caps() {
        // Oracle: the linear filter over every buffered item. Timestamps
        // advance by gaps of 1–3 so watermarks fall both on and between
        // buffered items.
        let filter = |b: &OutputBuffer, after: u64| -> Vec<u64> {
            b.snapshot()
                .iter()
                .filter(|i| i.ts > after)
                .map(|i| i.ts)
                .collect()
        };
        let mut b = OutputBuffer::new();
        let mut ts = 0u64;
        for round in 0..40u64 {
            for _ in 0..(round % 7) {
                ts += 1 + (ts % 3);
                if ts.is_multiple_of(2) {
                    b.push_live(ts, ts, 1, rec(ts as i64));
                } else {
                    b.push_encoded(ts, vec![0; 3]);
                }
            }
            match round % 5 {
                1 => b.trim(ts.saturating_sub(round % 9)),
                3 => b.cap((round % 4) as usize),
                _ => {}
            }
            for after in 0..=ts + 1 {
                let got: Vec<u64> = b.replay_after(after).iter().map(|i| i.ts).collect();
                assert_eq!(got, filter(&b, after), "round {round}, after {after}");
            }
        }
    }

    #[test]
    fn replay_shares_live_payloads_by_refcount() {
        let mut b = OutputBuffer::new();
        let r = rec(1);
        b.push_live(1, 0, 1, Arc::clone(&r));
        let replay = b.replay_after(0);
        match &replay[0].payload {
            BufferedPayload::Live { payload, .. } => assert!(Arc::ptr_eq(payload, &r)),
            BufferedPayload::Encoded(_) => panic!("replay must not encode"),
        }
    }

    #[test]
    fn cap_bounds_the_buffer() {
        let mut b = buf_with(&[1, 2, 3, 4, 5]);
        b.cap(2);
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.replay_after(0).iter().map(|i| i.ts).collect::<Vec<_>>(),
            vec![4, 5]
        );
        b.cap(10); // No-op when under the cap.
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn snapshot_restore_roundtrips() {
        let mut b = buf_with(&[1, 2]);
        b.push_live(3, 7, 1, rec(3));
        let snap = b.snapshot();
        let mut restored = OutputBuffer::new();
        restored.restore(snap);
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.buffered_bytes(), b.buffered_bytes());
        assert_eq!(restored.last_ts(), 3);
        // Restored buffers continue accepting newer items.
        restored.push_encoded(4, vec![0]);
        assert_eq!(restored.len(), 4);
    }

    #[test]
    fn shared_counter_matches_recomputation() {
        // Oracle: after any sequence of mutations, the aggregate counter
        // equals a from-scratch walk over the buffer (mirrors the
        // `dirty_bytes` oracle in `sdg_state::table`).
        let counter = Arc::new(AtomicUsize::new(0));
        let mut a = OutputBuffer::with_shared(Arc::clone(&counter));
        let mut b = OutputBuffer::with_shared(Arc::clone(&counter));
        for t in 1..=8u64 {
            a.push_encoded(t, vec![0; t as usize]);
        }
        b.push_live(1, 0, 1, rec(1));
        b.push(BufferedItem::encoded(2, vec![0; 5]));
        b.push(BufferedItem::encoded(3, vec![0; 7]));
        let recompute = |x: &OutputBuffer, y: &OutputBuffer| {
            x.snapshot().iter().map(BufferedItem::cost).sum::<usize>()
                + y.snapshot().iter().map(BufferedItem::cost).sum::<usize>()
        };
        assert_eq!(counter.load(Ordering::Relaxed), recompute(&a, &b));
        a.trim(3); // Per-item prefix trim.
        assert_eq!(counter.load(Ordering::Relaxed), recompute(&a, &b));
        a.cap(2); // Horizon cap.
        assert_eq!(counter.load(Ordering::Relaxed), recompute(&a, &b));
        b.restore(vec![BufferedItem::encoded(9, vec![0; 11])]);
        assert_eq!(counter.load(Ordering::Relaxed), recompute(&a, &b));
        // A clone is detached: mutating it must not touch the aggregate.
        let mut detached = a.clone();
        detached.push_encoded(100, vec![0; 32]);
        assert_eq!(counter.load(Ordering::Relaxed), recompute(&a, &b));
        a.trim(u64::MAX); // Wholesale drain fast path.
        b.trim(u64::MAX);
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn restore_of_sealed_items_accounts_wire_length() {
        let mut item = BufferedItem::live(1, 0, 1, rec(9));
        item.seal();
        let wire = item.cost();
        let mut b = OutputBuffer::new();
        b.restore(vec![item]);
        assert_eq!(b.buffered_bytes(), wire);
    }
}
