//! Deferred-encoding equivalence properties (zero-copy dispatch).
//!
//! The runtime logs sent items in their live (`Arc`-shared) form. Its
//! checkpoints copy no buffer: the buffers outlive any instance kill and
//! replay reads them directly. Three guarantees are pinned here:
//!
//! 1. **Persisted buffers are byte-identical.** A checkpoint handed
//!    live-logged buffers must seal them to exactly the bytes
//!    `Item::encode_payload` writes, over arbitrary generated payloads.
//! 2. **Recovery is invisible.** Generated programs that go through two
//!    checkpoints (a base and a delta) → kill → replay leave the state the
//!    same program leaves when it is never killed.
//! 3. **Mixed buffers replay.** A buffer holding both `Encoded` entries
//!    (restored from a checkpoint) and `Live` entries (logged since) must
//!    replay every suffix item, the live ones with zero decode.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sdg::checkpoint::backup::BackupStore;
use sdg::checkpoint::buffer::{BufferedItem, BufferedPayload, OutputBuffer};
use sdg::checkpoint::cell::StateCell;
use sdg::checkpoint::config::CheckpointConfig;
use sdg::checkpoint::coordinator::take_checkpoint;
use sdg::common::ids::{EdgeId, InstanceId, TaskId};
use sdg::common::value::{Key, Record, Value};
use sdg::prelude::{ReconfigRequest, RuntimeConfig};
use sdg::runtime::Item;
use sdg::state::partition::PartitionDim;
use sdg::state::store::StateType;
use sdg::SdgProgram;

// ---------------------------------------------------------------------------
// Property 1: sealed checkpoints hold the wire encoding byte for byte
// ---------------------------------------------------------------------------

fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,12}".prop_map(|s| Value::Str(s.into())),
        prop::collection::vec(any::<i64>().prop_map(Value::Int), 0..6).prop_map(Value::List),
    ]
    .boxed()
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop::collection::vec(("[a-z]{1,8}", arb_value()), 1..5).prop_map(|fields| {
        let mut r = Record::new();
        for (name, value) in fields {
            r.set(&name, value);
        }
        r
    })
}

/// One logged item: correlation id, gather expectation, payload.
fn arb_sends() -> impl Strategy<Value = Vec<(u64, u32, Record)>> {
    prop::collection::vec((any::<u64>(), 1u32..5, arb_record()), 1..10)
}

/// The wire bytes of one item (the byte-identity golden).
fn wire_bytes(edge: EdgeId, ts: u64, corr: u64, expect: u32, payload: &Record) -> Vec<u8> {
    Item {
        edge,
        src_replica: 0,
        ts,
        corr,
        expect,
        payload: Arc::new(payload.clone()),
        submitted_at: None,
    }
    .encode_payload()
}

fn checkpoint_buffers(buf: &OutputBuffer) -> Vec<(EdgeId, Vec<BufferedItem>)> {
    let cell = StateCell::new_striped(StateType::Table, 1, PartitionDim::Row, None);
    let stores = vec![Arc::new(BackupStore::in_memory())];
    let outs = vec![(EdgeId(7), buf.snapshot())];
    let instance = InstanceId::new(TaskId(1), 0);
    let set = take_checkpoint(
        &cell,
        instance,
        1,
        move || outs,
        &stores,
        &CheckpointConfig::default(),
    )
    .expect("checkpoint succeeds");
    set.out_buffers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deferred_checkpoints_persist_the_wire_bytes(sends in arb_sends()) {
        let edge = EdgeId(7);
        let mut live = OutputBuffer::new();
        let mut encoded = OutputBuffer::new();
        for (ts0, &(corr, expect, ref payload)) in sends.iter().enumerate() {
            let ts = ts0 as u64 + 1;
            live.push_live(ts, corr, expect, Arc::new(payload.clone()));
            encoded.push_encoded(ts, wire_bytes(edge, ts, corr, expect, payload));
        }

        let sealed = checkpoint_buffers(&live);
        let baseline = checkpoint_buffers(&encoded);
        prop_assert_eq!(&sealed, &baseline, "persisted out_buffers diverged");
        // Every sealed entry really is the wire form (not a live residue).
        for item in &sealed[0].1 {
            prop_assert!(matches!(item.payload, BufferedPayload::Encoded(_)));
        }
    }
}

// ---------------------------------------------------------------------------
// Property 2: a recovered deployment agrees with one that never failed
// ---------------------------------------------------------------------------

fn op_stmt() -> BoxedStrategy<String> {
    prop_oneof![
        3 => (-20i64..20).prop_map(|c| format!("t.put(k, v + {c});")),
        3 => (1i64..5).prop_map(|c| format!("t.inc(k, {c});")),
        2 => ((-10i64..10), (1i64..5)).prop_map(|(c, by)| {
            format!("if (v > {c}) {{ t.inc(k, {by}); }} else {{ t.put(k, v); }}")
        }),
    ]
    .boxed()
}

fn arb_program() -> impl Strategy<Value = String> {
    prop::collection::vec(op_stmt(), 1..4).prop_map(|stmts| {
        format!(
            "@Partitioned Table t;\nvoid main(int k, int v) {{ {} }}",
            stmts.join(" ")
        )
    })
}

/// Generated requests address keys `0..KEYS`.
const KEYS: i64 = 6;

fn arb_requests() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec(((0..KEYS), (-20i64..20)), 1..10)
}

/// A key outside `0..KEYS` whose checkpoint chunk no generated key shares.
/// Written once before the first take and never again, it keeps the
/// second take from rewriting every chunk that holds state, so that take
/// is a delta.
fn sentinel_key(chunks: usize) -> i64 {
    let chunk = |k: i64| Key::Int(k).stable_hash() % chunks as u64;
    (KEYS..)
        .find(|&k| (0..KEYS).all(|g| chunk(g) != chunk(k)))
        .expect("fewer keys than chunks leave a chunk free")
}

/// Sorted `(key, value)` byte pairs of `t` after a sentinel write and
/// `requests`. With `kill`, the run takes two mid-stream checkpoints, so
/// restore composes a base and a delta, and ends with a kill + replay of
/// replica 0.
fn final_state(src: &str, requests: &[(i64, i64)], kill: bool) -> Vec<(Vec<u8>, Vec<u8>)> {
    use sdg::common::record;
    let mut cfg = RuntimeConfig::default();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
    let sentinel = sentinel_key(cfg.checkpoint.chunks);
    let program = SdgProgram::compile(src).expect("generated program compiles");
    let sid = program.state("t").expect("state t exists");
    let d = program.deploy(cfg).expect("deploys");
    d.submit(
        "main",
        record! {"k" => Value::Int(sentinel), "v" => Value::Int(0)},
    )
    .expect("submit");
    let cuts = [
        0,
        requests.len() / 3,
        2 * requests.len() / 3,
        requests.len(),
    ];
    for (segment, bounds) in cuts.windows(2).enumerate() {
        if kill && segment > 0 {
            d.reconfigure(ReconfigRequest::Checkpoint)
                .expect("checkpoint");
        }
        for &(k, v) in &requests[bounds[0]..bounds[1]] {
            d.submit("main", record! {"k" => Value::Int(k), "v" => Value::Int(v)})
                .expect("submit");
        }
        assert!(d.quiesce(Duration::from_secs(30)));
    }
    if kill {
        assert_eq!(
            d.metrics().checkpoints.deltas,
            1,
            "the second take is a delta"
        );
        d.reconfigure(ReconfigRequest::FailAndRecover {
            state: sid,
            replica: 0,
        })
        .expect("recover");
        assert!(d.quiesce(Duration::from_secs(30)));
    }
    let mut entries = d
        .with_state(sid, 0, |s| {
            s.export_entries()
                .into_iter()
                .map(|e| (e.key, e.value))
                .collect::<Vec<_>>()
        })
        .expect("export state");
    entries.sort();
    d.shutdown();
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn recovered_state_matches_the_never_killed_run(
        src in arb_program(),
        requests in arb_requests(),
    ) {
        let recovered = final_state(&src, &requests, true);
        let never_killed = final_state(&src, &requests, false);
        prop_assert_eq!(recovered, never_killed, "recovered state diverged for:\n{}", src);
    }
}

// ---------------------------------------------------------------------------
// Mixed Live/Encoded replay (the post-restore buffer shape)
// ---------------------------------------------------------------------------

#[test]
fn mixed_live_and_encoded_buffers_replay_exactly() {
    let edge = EdgeId(3);
    let mut buf = OutputBuffer::new();
    // Items 1..=3 restored from a checkpoint: already in wire form.
    let mut payloads = Vec::new();
    for ts in 1u64..=3 {
        let payload = sdg::common::record! {"k" => Value::Int(ts as i64)};
        buf.push_encoded(ts, wire_bytes(edge, ts, ts * 10, 1, &payload));
        payloads.push(Arc::new(payload));
    }
    // Items 4..=6 logged live since the restore.
    for ts in 4u64..=6 {
        let payload = Arc::new(sdg::common::record! {"k" => Value::Int(ts as i64)});
        buf.push_live(ts, ts * 10, 1, Arc::clone(&payload));
        payloads.push(payload);
    }

    // Replay past watermark 2: one encoded survivor, all live items.
    let replayed: Vec<Item> = buf
        .replay_after(2)
        .into_iter()
        .map(|b| {
            let live = matches!(b.payload, BufferedPayload::Live { .. });
            let item = Item::from_buffered(edge, 0, b).expect("replayable");
            // Live entries re-send the logged allocation itself.
            if live {
                assert!(Arc::ptr_eq(&item.payload, &payloads[item.ts as usize - 1]));
            }
            item
        })
        .collect();
    let ts: Vec<u64> = replayed.iter().map(|i| i.ts).collect();
    assert_eq!(ts, vec![3, 4, 5, 6]);
    for item in &replayed {
        assert_eq!(item.corr, item.ts * 10);
        assert_eq!(*item.payload, *payloads[item.ts as usize - 1]);
        assert!(item.submitted_at.is_none(), "replay carries no latency");
    }
}
