//! Deployment-level exercise of delta-chain recovery under the shipped
//! checkpoint configuration: striped cells, base and delta generations,
//! compaction, a node failure, and a base + delta chain restore with exact
//! replay.

use std::time::Duration;

use sdg_apps::kv::KvApp;
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::reconfig::ReconfigRequest;

fn total_count(app: &KvApp) -> i64 {
    let mut total = 0;
    let replicas = app
        .deployment()
        .metrics()
        .state_by_id(app.state())
        .map_or(0, |s| s.instances as usize);
    for replica in 0..replicas {
        app.deployment()
            .with_state(app.state(), replica as u32, |s| {
                s.as_table().unwrap().for_each(|_, v| {
                    total += v.as_int().unwrap();
                });
            })
            .expect("read state");
    }
    total
}

/// Base checkpoint → writes → delta checkpoint → crash → chain restore
/// → replay stays exactly-once, end to end through the deployment.
#[test]
fn delta_chain_recovery_is_exactly_once() {
    let mut cfg = RuntimeConfig::default();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600); // Manual below.
    cfg.checkpoint.backup_fanout = 2;
    let app = KvApp::start(2, cfg).expect("deploy KV");

    // Touch every key, then take the base generation.
    for n in 0..4_000i64 {
        app.bump(n % 100).expect("bump");
    }
    assert!(app.quiesce(Duration::from_secs(60)));
    app.deployment()
        .reconfigure(ReconfigRequest::Checkpoint)
        .expect("base checkpoint");

    // Dirty a small subset of keys and take a delta generation.
    for n in 0..1_000i64 {
        app.bump(n % 10).expect("bump");
    }
    assert!(app.quiesce(Duration::from_secs(60)));
    app.deployment()
        .reconfigure(ReconfigRequest::Checkpoint)
        .expect("delta checkpoint");

    // Post-checkpoint traffic lives only in upstream output buffers.
    for n in 0..1_000i64 {
        app.bump(n % 100).expect("bump");
    }
    assert!(app.quiesce(Duration::from_secs(60)));
    assert_eq!(total_count(&app), 6_000);

    // Fail a partition: restore composes base + delta, replay fills in
    // the rest, and per-stripe watermarks drop the duplicates.
    let report = app
        .deployment()
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: app.state(),
            replica: 0,
        })
        .expect("recover");
    assert!(report.replayed > 0, "post-checkpoint items must replay");
    assert!(app.quiesce(Duration::from_secs(60)));
    assert_eq!(total_count(&app), 6_000, "no loss, no duplication");

    // Keep writing and checkpointing after recovery: the restored cell
    // re-bases (all chunks dirty), later deltas chain on top of it.
    for n in 0..500i64 {
        app.bump(n % 100).expect("bump");
    }
    assert!(app.quiesce(Duration::from_secs(60)));
    app.deployment()
        .reconfigure(ReconfigRequest::Checkpoint)
        .expect("post-recovery base");
    for n in 0..500i64 {
        app.bump(n % 10).expect("bump");
    }
    assert!(app.quiesce(Duration::from_secs(60)));
    app.deployment()
        .reconfigure(ReconfigRequest::Checkpoint)
        .expect("post-recovery delta");
    let report = app
        .deployment()
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: app.state(),
            replica: 1,
        })
        .expect("second recover");
    assert!(report.total > Duration::ZERO);
    assert!(app.quiesce(Duration::from_secs(60)));
    assert_eq!(total_count(&app), 7_000);

    app.shutdown();
}
