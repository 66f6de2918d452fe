//! Smoke checks for the observability pipeline the CI step relies on:
//! engines render JSON snapshots that the bundled parser accepts, with
//! non-zero per-TE counters, and every engine reports through the same
//! schema.

use std::time::Duration;

use sdg_apps::kv::KvApp;
use sdg_baselines::naiadlike::{NaiadCheckpointTarget, NaiadConfig, NaiadKvStore};
use sdg_common::obs::json;
use sdg_runtime::config::RuntimeConfig;

/// Sums `field` over every task object in a rendered snapshot.
fn task_total(rendered: &str, field: &str) -> u64 {
    let parsed = json::parse(rendered).expect("snapshot JSON must parse");
    parsed
        .get("tasks")
        .expect("tasks key")
        .as_array()
        .expect("tasks array")
        .iter()
        .map(|t| t.get(field).and_then(|v| v.as_u64()).unwrap_or(0))
        .sum()
}

#[test]
fn sdg_snapshot_json_parses_with_live_counters() {
    let app =
        KvApp::start(2, RuntimeConfig::builder().channel_capacity(64).build()).expect("deploy KV");
    for k in 0..200 {
        app.put(k, "value").expect("put");
    }
    assert!(app.quiesce(Duration::from_secs(30)));
    let snap = app.deployment().metrics();
    let rendered = snap.to_json();
    assert!(task_total(&rendered, "processed") >= 200);
    assert!(task_total(&rendered, "items_in") >= 200);
    // Per-SE summaries come through the same document.
    let parsed = json::parse(&rendered).unwrap();
    let states = parsed.get("states").unwrap().as_array().unwrap();
    assert!(!states.is_empty());
    assert!(states[0].get("bytes").unwrap().as_u64().unwrap() > 0);
    app.shutdown();
}

#[test]
fn baseline_snapshot_shares_the_schema() {
    let mut kv = NaiadKvStore::new(NaiadConfig {
        batch_size: 16,
        batch_overhead: Duration::from_micros(10),
        checkpoint_interval: Duration::from_secs(3600),
        target: NaiadCheckpointTarget::None,
        per_request: Duration::ZERO,
    });
    for k in 0..64 {
        kv.update(k, vec![0u8; 32]);
    }
    kv.flush();
    let rendered = kv.metrics().to_json();
    assert!(task_total(&rendered, "processed") >= 64);
    let parsed = json::parse(&rendered).unwrap();
    // Identical top-level schema to the SDG snapshot.
    for key in [
        "uptime_ms",
        "tasks",
        "states",
        "checkpoints",
        "e2e_latency_ns",
        "events",
    ] {
        assert!(parsed.get(key).is_some(), "missing key {key}");
    }
    // Each request's latency is one sample of its task, and the
    // deployment-wide candlestick is the merge of those: counted once.
    let counts = |parsed: &json::Json| {
        let tasks = parsed.get("tasks").unwrap().as_array().unwrap();
        let update = tasks
            .iter()
            .find(|t| t.get("name").unwrap().as_str() == Some("update"))
            .expect("update task");
        let count = |summary: &json::Json| summary.get("count").unwrap().as_u64().unwrap();
        (
            count(parsed.get("e2e_latency_ns").unwrap()),
            count(update.get("latency_ns").unwrap()),
            update.get("processed").unwrap().as_u64().unwrap(),
        )
    };
    assert_eq!(counts(&parsed), (64, 64, 64));
    // A reset clears the samples and keeps the counters.
    kv.reset_observations();
    let reset = json::parse(&kv.metrics().to_json()).unwrap();
    assert_eq!(counts(&reset), (0, 0, 64));
}
