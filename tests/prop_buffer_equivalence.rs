//! Upstream-buffer replay equivalence.
//!
//! The runtime logs sent items in their live (`Arc`-shared) form. Its
//! checkpoints copy no buffer: the buffers outlive any instance kill and
//! replay reads them directly. One guarantee is pinned here: **recovery is
//! invisible.** Generated programs on one or two partitions go through two
//! checkpoints (a base and a delta on every replica), then every replica
//! is killed and replayed from its restored cut's frontier, and each
//! replica's state equals the state the same program leaves when it is
//! never killed.

use std::time::Duration;

use proptest::prelude::*;
use sdg::common::value::{Key, Value};
use sdg::prelude::{ReconfigRequest, RuntimeConfig};
use sdg::SdgProgram;

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

/// One key per replica of `partitions`, outside `0..KEYS`, whose
/// checkpoint chunk no generated key shares. Written once before the first
/// take and never again, each keeps its replica's second take from
/// rewriting every chunk that holds state, so that take is a delta.
fn sentinel_keys(chunks: usize, partitions: usize) -> Vec<i64> {
    let chunk = |k: i64| Key::Int(k).stable_hash() % chunks as u64;
    let replica = |k: i64| Key::Int(k).stable_hash() % partitions as u64;
    (0..partitions as u64)
        .map(|r| {
            (KEYS..)
                .find(|&k| replica(k) == r && (0..KEYS).all(|g| chunk(g) != chunk(k)))
                .expect("fewer keys than chunks leave a chunk free")
        })
        .collect()
}

/// Per replica, the sorted `(key, value)` byte pairs of `t` after the
/// sentinel writes and `requests`. With `kill`, the run takes two
/// mid-stream checkpoints, so restore composes a base and a delta, and
/// ends with a kill + replay of every replica in turn.
fn final_state(
    src: &str,
    requests: &[(i64, i64)],
    partitions: usize,
    kill: bool,
) -> Vec<Vec<(Vec<u8>, Vec<u8>)>> {
    use sdg::common::record;
    let program = SdgProgram::compile(src).expect("generated program compiles");
    let sid = program.state("t").expect("state t exists");
    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(sid, partitions);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
    let sentinels = sentinel_keys(cfg.checkpoint.chunks, partitions);
    let d = program.deploy(cfg).expect("deploys");
    for k in sentinels {
        d.submit("main", record! {"k" => Value::Int(k), "v" => Value::Int(0)})
            .expect("submit");
    }
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
            partitions as u64,
            "every replica's second take is a delta"
        );
        for replica in 0..partitions as u32 {
            d.reconfigure(ReconfigRequest::FailAndRecover {
                state: sid,
                replica,
            })
            .expect("recover");
            assert!(d.quiesce(Duration::from_secs(30)));
        }
    }
    let replicas = (0..partitions as u32)
        .map(|replica| {
            let mut entries = d
                .with_state(sid, replica, |s| {
                    s.export_entries()
                        .into_iter()
                        .map(|e| (e.key, e.value))
                        .collect::<Vec<_>>()
                })
                .expect("export state");
            entries.sort();
            entries
        })
        .collect();
    d.shutdown();
    replicas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn recovered_state_matches_the_never_killed_run(
        src in arb_program(),
        requests in arb_requests(),
        partitions in 1usize..=2,
    ) {
        let recovered = final_state(&src, &requests, partitions, true);
        let never_killed = final_state(&src, &requests, partitions, false);
        prop_assert_eq!(
            recovered, never_killed,
            "recovered state diverged on {} partition(s) for:\n{}", partitions, src
        );
    }
}
