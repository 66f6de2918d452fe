//! Data items flowing on dataflow edges.

use std::sync::Arc;
use std::time::Instant;

use sdg_checkpoint::buffer::BufferedItem;
use sdg_common::error::SdgResult;
use sdg_common::ids::EdgeId;
use sdg_common::time::ScalarTs;
use sdg_common::value::Record;
use sdg_graph::model::Dispatch;

/// Multiplier for encoding `(edge, source replica)` into a dedupe lane.
///
/// Each producer instance owns its own strictly increasing timestamps, so
/// duplicate detection must be scoped to the `(edge, producer replica)`
/// pair. Lanes embed the replica in the low bits of a synthetic [`EdgeId`].
pub const LANE_STRIDE: u32 = 1024;

/// Computes the dedupe lane for items produced by `replica` on `edge`.
///
/// # Panics
///
/// Panics if `replica >= LANE_STRIDE` (the runtime caps instances at 1024).
pub fn lane(edge: EdgeId, replica: u32) -> EdgeId {
    assert!(replica < LANE_STRIDE, "replica {replica} out of lane range");
    EdgeId(edge.raw() * LANE_STRIDE + replica)
}

/// The hash an edge with `dispatch` routes `payload` by: the stable hash
/// of its key field on a partitioned edge, `None` on any other.
///
/// The item carries it to its consumer, whose stripe reuses it, so a key is
/// hashed once between dispatch and state. Live sends and replay both
/// derive it here.
///
/// # Errors
///
/// Fails when a partitioned edge's key field is missing or not a key.
pub fn route_hash(dispatch: &Dispatch, payload: &Record) -> SdgResult<Option<u64>> {
    match dispatch {
        Dispatch::Partitioned { key } => Ok(Some(payload.require(key)?.to_key()?.stable_hash())),
        _ => Ok(None),
    }
}

/// One data item on one dataflow edge.
#[derive(Debug, Clone)]
pub struct Item {
    /// The edge the item travels on.
    pub edge: EdgeId,
    /// Producer replica index (for the dedupe lane).
    pub src_replica: u32,
    /// Producer-assigned scalar timestamp on `(edge, src_replica)`.
    pub ts: ScalarTs,
    /// Correlation id of the originating external request.
    pub corr: u64,
    /// For gathers: number of fragments the barrier must collect
    /// (stamped by the broadcast dispatcher, 1 otherwise).
    pub expect: u32,
    /// The live variables crossing the edge. Refcounted so broadcast
    /// fan-out and output-buffer logging share one allocation; mutating
    /// paths (gather/assemble) use `Arc::make_mut` for copy-on-write.
    pub payload: Arc<Record>,
    /// The partition hash the item was routed by ([`route_hash`]), `None`
    /// off a partitioned edge. A striped cell picks the item's stripe
    /// from it.
    pub route: Option<u64>,
    /// Submission time of the originating request, for latency measurement.
    /// `None` for replayed items.
    pub submitted_at: Option<Instant>,
}

impl Item {
    /// Returns the item's dedupe lane.
    pub fn lane(&self) -> EdgeId {
        lane(self.edge, self.src_replica)
    }

    /// Rebuilds an item from a buffered entry for replay: the buffered
    /// `Arc` is the item's payload, so nothing is decoded or cloned. Its
    /// `route` is unset; a replay into a partitioned edge sets it with
    /// [`route_hash`].
    pub fn from_buffered(edge: EdgeId, src_replica: u32, buffered: BufferedItem) -> Item {
        Item {
            edge,
            src_replica,
            ts: buffered.ts,
            corr: buffered.corr,
            expect: buffered.expect,
            payload: buffered.payload,
            route: None,
            submitted_at: None,
        }
    }

    /// Approximate encoded size (used for buffer accounting), computed
    /// arithmetically from the record's footprint — no throwaway encode.
    pub fn approx_size(&self) -> usize {
        self.payload.approx_size() + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use sdg_common::codec::{encode_to_vec, write_varint};
    use sdg_common::record;
    use sdg_common::value::Value;

    #[test]
    fn lanes_are_disjoint_per_replica_and_edge() {
        assert_ne!(lane(EdgeId(1), 0), lane(EdgeId(1), 1));
        assert_ne!(lane(EdgeId(1), 0), lane(EdgeId(2), 0));
        // Adjacent edges never collide while replicas stay under the stride.
        assert_ne!(lane(EdgeId(1), LANE_STRIDE - 1), lane(EdgeId(2), 0));
    }

    #[test]
    #[should_panic(expected = "out of lane range")]
    fn oversized_replica_panics() {
        lane(EdgeId(0), LANE_STRIDE);
    }

    #[test]
    fn from_buffered_live_is_zero_decode() {
        let payload = Arc::new(record! {"k" => Value::Int(1)});
        let buffered = BufferedItem {
            ts: 9,
            corr: 42,
            expect: 3,
            payload: Arc::clone(&payload),
        };
        let item = Item::from_buffered(EdgeId(2), 1, buffered);
        assert_eq!((item.edge, item.src_replica), (EdgeId(2), 1));
        assert_eq!(item.ts, 9);
        assert_eq!(item.corr, 42);
        assert_eq!(item.expect, 3);
        assert_eq!(item.lane(), lane(EdgeId(2), 1));
        // Replayed items carry no submission time: their latency is not a
        // client-visible latency.
        assert!(item.submitted_at.is_none());
        // The replayed item shares the buffered allocation — no decode, no
        // clone.
        assert!(Arc::ptr_eq(&item.payload, &payload));
    }

    #[test]
    fn approx_size_tracks_the_encoded_size_within_tolerance() {
        // The arithmetic estimate replaced a throwaway encode; pin it to
        // the wire length (varint `corr`, varint `expect`, the record) so
        // accounting never drifts wildly.
        let payloads = [
            record! {"k" => Value::Int(7)},
            record! {"user" => Value::Int(9), "name" => Value::str("a-typical-string-value")},
            record! {"row" => Value::List(vec![Value::Float(0.5); 32])},
            record! {
                "neg" => Value::Int(-1),
                "nested" => Value::List(vec![Value::Str("abc".into()), Value::Bool(true)]),
            },
        ];
        for payload in payloads {
            let item = Item {
                edge: EdgeId(0),
                src_replica: 0,
                ts: 1,
                corr: 1,
                expect: 1,
                payload: Arc::new(payload),
                route: None,
                submitted_at: None,
            };
            let mut header = BytesMut::new();
            write_varint(&mut header, item.corr);
            write_varint(&mut header, u64::from(item.expect));
            let old = header.len() + encode_to_vec(&*item.payload).len() + 16;
            let new = item.approx_size();
            let ratio = new as f64 / old as f64;
            assert!(
                (0.25..=4.0).contains(&ratio),
                "approx_size {new} drifted from encoded size {old} (ratio {ratio:.2})"
            );
        }
    }
}
