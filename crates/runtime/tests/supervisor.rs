//! The supervisor's contract, pinned through a running KV deployment:
//! escalation to `Degraded` after `MAX_ATTEMPTS` failed recoveries with
//! backoff between them, the storm guard (one recovery per
//! `heartbeat_interval`), a caught panic recovered without waiting for a
//! heartbeat scan, and a shutdown that does not sleep out any interval.

use std::sync::Once;
use std::time::{Duration, Instant};

use sdg_checkpoint::backup::StoreFaultSpec;
use sdg_common::ids::StateId;
use sdg_common::obs::{EventKind, ObsEvent};
use sdg_common::record;
use sdg_common::value::Value;
use sdg_ir::parser::parse_program;
use sdg_runtime::config::{RuntimeConfig, ScalingConfig};
use sdg_runtime::deploy::Deployment;
use sdg_runtime::fault::{FaultPlan, Health};
use sdg_runtime::reconfig::ReconfigRequest;
use sdg_translate::translate;

const KV_SRC: &str = r#"
    @Partitioned Table kv;
    void bump(int k) { kv.inc(k, 1); }
"#;

const HOUR: Duration = Duration::from_secs(3600);

/// Keeps the default panic hook quiet for injected panics only.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = (payload.downcast_ref::<String>().map(String::as_str))
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                default(info);
            }
        }));
    });
}

/// A two-partition KV deployment under `plan`, checkpointing on manual
/// takes only (so recovery has a chain to restore), with `cfg` applied.
fn deploy(plan: FaultPlan, cfg: impl FnOnce(&mut RuntimeConfig)) -> (Deployment, StateId) {
    quiet_injected_panics();
    let sdg = translate(&parse_program(KV_SRC).unwrap()).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let mut config = RuntimeConfig::builder().faults(plan).build();
    config.se_instances.insert(kv, 2);
    config.checkpoint.enabled = true;
    config.checkpoint.interval = HOUR;
    cfg(&mut config);
    (Deployment::start(sdg, config).unwrap(), kv)
}

/// Submits `n` bumps over 20 keys. A send to a dead replica fails after
/// the item was logged upstream, and replay delivers it.
fn bump(d: &Deployment, n: i64) {
    for k in 0..n {
        let _ = d.submit("bump", record! {"k" => Value::Int(k % 20)});
    }
}

/// Polls `done` every 5 ms for up to `timeout`.
fn wait_for(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Every `RecoveryStarted` event: its time and attempt.
fn starts(events: &[ObsEvent]) -> Vec<(Duration, u32)> {
    (events.iter())
        .filter_map(|e| match e.kind {
            EventKind::RecoveryStarted { attempt, .. } => Some((e.at, attempt)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_recovery_that_keeps_failing_backs_off_then_degrades_after_five_attempts() {
    // Every store read fails, so no restore of the chain the manual take
    // wrote can succeed: each attempt fails, and the fifth escalates.
    let plan = FaultPlan::seeded(3)
        .with_worker_panic("bump_0", 0, 30)
        .with_store_faults(StoreFaultSpec {
            read_error_every: 1,
            ..Default::default()
        });
    let (base, cap) = (Duration::from_millis(20), Duration::from_millis(100));
    let (d, _) = deploy(plan, |cfg| {
        cfg.supervisor.heartbeat_interval = Duration::from_millis(5);
        cfg.supervisor.backoff_base = base;
        cfg.supervisor.backoff_cap = cap;
    });
    bump(&d, 20);
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    bump(&d, 200);
    assert!(
        wait_for(Duration::from_secs(10), || d.health() == Health::Degraded),
        "never degraded: {:?} {:?}",
        d.health(),
        d.metrics().recovery
    );
    // Give a sixth attempt more than the longest backoff to show up.
    std::thread::sleep(cap * 3);
    let events = d.events();
    let failed: Vec<u32> = (events.iter())
        .filter_map(|e| match e.kind {
            EventKind::RecoveryFailed { attempt, .. } => Some(attempt),
            _ => None,
        })
        .collect();
    assert_eq!(failed, [1, 2, 3, 4, 5]);
    let starts = starts(&events);
    assert_eq!(
        starts.iter().map(|s| s.1).collect::<Vec<_>>(),
        [1, 2, 3, 4, 5],
        "no sixth attempt"
    );
    // Attempt `a + 1` waits at least half of `base · 2^(a-1)`, capped:
    // the jitter scales the backoff into [½, 1] of itself.
    for (a, pair) in starts.windows(2).enumerate() {
        let backoff = (base * (1 << a)).min(cap) / 2;
        let gap = pair[1].0 - pair[0].0;
        assert!(gap >= backoff, "attempt {}: {gap:?} < {backoff:?}", a + 2);
    }
    let recovery = d.metrics().recovery;
    assert_eq!((recovery.started, recovery.failed), (5, 5));
    assert_eq!(d.health(), Health::Degraded);
    d.shutdown();
}

#[test]
fn two_replicas_failing_together_recover_one_heartbeat_interval_apart() {
    let plan = FaultPlan::seeded(4)
        .with_worker_panic("bump_0", 0, 10)
        .with_worker_panic("bump_0", 1, 10);
    let interval = Duration::from_millis(50);
    let (d, _) = deploy(plan, |cfg| cfg.supervisor.heartbeat_interval = interval);
    bump(&d, 20);
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    bump(&d, 100);
    assert!(
        wait_for(Duration::from_secs(10), || {
            d.metrics().recovery.succeeded >= 2 && d.health() == Health::Healthy
        }),
        "not both recovered: {:?} {:?}",
        d.health(),
        d.metrics().recovery
    );
    let starts = starts(&d.events());
    assert_eq!(starts.len(), 2, "{starts:?}");
    let gap = starts[1].0 - starts[0].0;
    assert!(
        gap >= interval,
        "the storm guard let two recoveries {gap:?} apart"
    );
    d.shutdown();
}

#[test]
fn a_caught_panic_is_recovered_without_waiting_for_a_heartbeat_scan() {
    // No scan comes within the test: only the panic's report can start
    // the recovery.
    let plan = FaultPlan::seeded(5).with_worker_panic("bump_0", 1, 10);
    let (d, kv) = deploy(plan, |cfg| {
        cfg.supervisor.heartbeat_interval = HOUR;
        cfg.supervisor.hang_detection = false;
    });
    bump(&d, 20);
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    bump(&d, 100);
    assert!(
        wait_for(Duration::from_secs(10), || {
            d.metrics().recovery.succeeded >= 1 && d.health() == Health::Healthy
        }),
        "not recovered: {:?} {:?}",
        d.health(),
        d.metrics().recovery
    );
    assert!(d.quiesce(Duration::from_secs(10)));
    let mut total = 0;
    for replica in 0..2 {
        d.with_state(kv, replica, |s| {
            s.as_table()
                .unwrap()
                .for_each(|_, v| total += v.as_int().unwrap());
        })
        .unwrap();
    }
    assert_eq!(total, 120, "no loss, no duplication");
    d.shutdown();
}

#[test]
fn shutdown_with_every_duty_on_and_hour_long_intervals_is_prompt() {
    let (d, _) = deploy(FaultPlan::seeded(6), |cfg| {
        cfg.scaling = ScalingConfig {
            enabled: true,
            check_interval: HOUR,
            ..ScalingConfig::default()
        };
        cfg.supervisor.hang_detection = true;
        cfg.supervisor.heartbeat_interval = HOUR;
    });
    bump(&d, 20);
    assert!(d.quiesce(Duration::from_secs(10)));
    // Let every duty park on its hour-long wait.
    std::thread::sleep(Duration::from_millis(50));
    let began = Instant::now();
    d.shutdown();
    let took = began.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}
