//! Seeded chaos tests: injected faults must be detected and recovered by
//! the supervisor automatically (no manual `FailAndRecover`), and the
//! final state must be byte-identical to a fault-free run of the same
//! workload — exactly-once despite panics, stalls and store I/O errors.
//! A respawned stateless producer loses at most its in-flight items: its
//! consumer's dedupe must drop nothing it sends after the respawn.

use std::collections::BTreeMap;
use std::sync::Once;
use std::time::{Duration, Instant};

use sdg::apps::kv::KvApp;
use sdg::apps::WcApp;
use sdg::prelude::*;

const ITEMS: i64 = 600;
const KEYS: i64 = 16;
const PARTITIONS: usize = 2;

/// Suppresses the default panic hook's backtrace spew for *injected*
/// panics only; genuine panics still print. The hook is process-global,
/// so it is installed once and filters by payload.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                default(info);
            }
        }));
    });
}

fn chaos_config(plan: Option<FaultPlan>) -> RuntimeConfig {
    let mut builder = RuntimeConfig::builder();
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let mut cfg = builder.build();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_millis(20);
    cfg.checkpoint.backup_fanout = 2;
    cfg.supervisor.heartbeat_interval = Duration::from_millis(4);
    cfg.supervisor.backoff_base = Duration::from_millis(5);
    cfg.supervisor.backoff_cap = Duration::from_millis(50);
    cfg
}

/// Every (key, value) pair across all partitions, in key order. Partition
/// contents are disjoint, so the union characterises the full table.
fn table_contents(app: &KvApp) -> BTreeMap<Key, Value> {
    let mut out = BTreeMap::new();
    let replicas = app
        .deployment()
        .metrics()
        .state_by_id(app.state())
        .map_or(0, |s| s.instances as usize);
    for replica in 0..replicas {
        app.deployment()
            .with_state(app.state(), replica as u32, |s| {
                s.as_table().unwrap().for_each(|k, v| {
                    out.insert(k.clone(), v.clone());
                });
            })
            .unwrap();
    }
    out
}

/// Feeds a slice of the bump workload. Submits can fail while a failed
/// instance is between death and recovery; the item was pushed into the
/// upstream buffer before the send, so replay delivers it — retrying
/// here would double-apply it.
fn feed(app: &KvApp, range: std::ops::Range<i64>) {
    for n in range {
        let _ = app.bump(n % KEYS);
    }
}

fn run_fault_free() -> BTreeMap<Key, Value> {
    let app = KvApp::start(PARTITIONS, chaos_config(None)).unwrap();
    feed(&app, 0..ITEMS);
    assert!(app.quiesce(Duration::from_secs(30)));
    let contents = table_contents(&app);
    app.shutdown();
    contents
}

/// Polls until the supervisor has seen at least one fault and finished at
/// least one recovery, and health settled back to `Healthy`.
fn await_recovery(d: &Deployment, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        let snap = d.metrics();
        if snap.faults.worker_panics + snap.faults.heartbeats_missed >= 1
            && snap.recovery.succeeded >= 1
            && d.health() == Health::Healthy
        {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn chaos_round(seed: u64) {
    quiet_injected_panics();
    let baseline = run_fault_free();

    // Scatter the injection point deterministically from the seed: one of
    // the two bump instances panics in the second half of the workload —
    // after the explicit mid-workload checkpoint, so recovery restores
    // from the backup chain rather than replaying from scratch — and
    // every 3rd backup-store write fails transiently (absorbed by the
    // retry policy, counted as io_retries).
    let plan = FaultPlan::seeded(seed);
    let nth = plan.draw("chaos.panic.nth", 200, 280);
    let replica = plan.draw("chaos.panic.replica", 0, PARTITIONS as u64 - 1) as u32;
    let plan = plan
        .with_worker_panic("bump_0", replica, nth)
        .with_store_faults(StoreFaultSpec {
            write_error_every: 3,
            ..Default::default()
        });

    let app = KvApp::start(PARTITIONS, chaos_config(Some(plan))).unwrap();
    feed(&app, 0..ITEMS / 2);
    assert!(app.quiesce(Duration::from_secs(30)));
    app.deployment()
        .reconfigure(ReconfigRequest::Checkpoint)
        .unwrap();
    feed(&app, ITEMS / 2..ITEMS);
    assert!(
        await_recovery(app.deployment(), Duration::from_secs(20)),
        "supervisor did not recover (seed {seed}): {:?}",
        app.deployment().metrics()
    );
    assert!(app.quiesce(Duration::from_secs(30)));

    let snap = app.deployment().metrics();
    assert!(snap.faults.worker_panics >= 1, "panic was never injected");
    assert!(snap.recovery.succeeded >= 1, "no recovery succeeded");
    assert_eq!(app.deployment().health(), Health::Healthy);
    assert_eq!(
        table_contents(&app),
        baseline,
        "chaos run diverged from the fault-free baseline \
         (seed {seed}, fault at item {nth} of bump_0#{replica})"
    );
    app.shutdown();
}

#[test]
fn chaos_pool_scheduler_is_exactly_once() {
    for seed in [7, 21] {
        chaos_round(seed);
    }
}

/// Scaling while interval checkpoints run: the bump task scales out and
/// back in mid-workload, then a seeded panic kills one of its instances.
/// Each migration is ordered with the takes around it and ends with a base
/// take of every replica, so the supervisor recovers from a chain cut
/// against the current key ownership.
#[test]
fn scaling_between_interval_checkpoints_is_exactly_once() {
    quiet_injected_panics();
    let baseline = run_fault_free();

    // The 16 keys split 8/8 between the two bump instances, so each
    // handles 150 items of the first half and 150 of the second: the
    // drawn item falls in the second half, after the scale.
    let plan = FaultPlan::seeded(33);
    let nth = plan.draw("scale.panic.nth", 200, 240);
    let replica = plan.draw("scale.panic.replica", 0, PARTITIONS as u64 - 1) as u32;
    let plan = plan.with_worker_panic("bump_0", replica, nth);

    let app = KvApp::start(PARTITIONS, chaos_config(Some(plan))).unwrap();
    let bump = app
        .deployment()
        .metrics()
        .tasks
        .iter()
        .find(|t| t.name == "bump_0")
        .and_then(|t| t.id)
        .expect("bump_0 is deployed");
    feed(&app, 0..ITEMS / 2);
    for request in [
        ReconfigRequest::ScaleOut { task: bump },
        ReconfigRequest::ScaleIn { task: bump },
    ] {
        app.deployment().reconfigure(request).unwrap();
    }
    feed(&app, ITEMS / 2..ITEMS);
    assert!(
        await_recovery(app.deployment(), Duration::from_secs(20)),
        "supervisor did not recover: {:?}",
        app.deployment().metrics()
    );
    assert!(app.quiesce(Duration::from_secs(30)));

    let snap = app.deployment().metrics();
    assert_eq!((snap.reconfig.scale_outs, snap.reconfig.scale_ins), (1, 1));
    assert!(snap.faults.worker_panics >= 1, "panic was never injected");
    assert_eq!(app.deployment().health(), Health::Healthy);
    assert_eq!(
        table_contents(&app),
        baseline,
        "scaling chaos run diverged (fault at item {nth} of bump_0#{replica})"
    );
    app.shutdown();
}

#[test]
fn stalled_worker_is_detected_by_heartbeats_and_recovered() {
    quiet_injected_panics();
    let baseline = run_fault_free();

    // Heartbeat (hang) detection is opt-in: a worker blocked on downstream
    // backpressure is indistinguishable from a hung one, so the default
    // config keeps it off. Here the stall is real and long, the scan
    // interval short, and the mailbox non-empty — the supervisor must
    // declare the instance hung and fail it over while it sleeps; the
    // stalled worker drops its item on waking and replay redelivers it.
    // The stalled actor holds its pool thread (it is `Running`), so it
    // stays a hang candidate while the other pool workers carry on.
    let plan = FaultPlan::seeded(1009);
    let nth = plan.draw("stall.nth", 20, 60);
    let replica = plan.draw("stall.replica", 0, PARTITIONS as u64 - 1) as u32;
    let plan = plan.with_worker_stall("bump_0", replica, nth, Duration::from_millis(600));

    let mut cfg = chaos_config(Some(plan));
    cfg.supervisor.hang_detection = true;
    cfg.supervisor.heartbeat_interval = Duration::from_millis(5);
    cfg.supervisor.miss_threshold = 4;

    let app = KvApp::start(PARTITIONS, cfg).unwrap();
    feed(&app, 0..ITEMS);
    assert!(
        await_recovery(app.deployment(), Duration::from_secs(20)),
        "stall was not detected: {:?}",
        app.deployment().metrics()
    );
    assert!(app.quiesce(Duration::from_secs(30)));

    let snap = app.deployment().metrics();
    assert!(
        snap.faults.heartbeats_missed >= 1,
        "hang detection never fired"
    );
    assert!(snap.recovery.succeeded >= 1);
    assert_eq!(app.deployment().health(), Health::Healthy);
    assert_eq!(
        table_contents(&app),
        baseline,
        "stall recovery diverged (fault at item {nth} of bump_0#{replica})"
    );
    app.shutdown();
}

/// One WC run of `LINES` one-word lines whose `split` instance panics on
/// its 50th line and is respawned by the supervisor. Returns the count of
/// the word. With `checkpoint`, `count` (one stripe) takes a checkpoint
/// just before the panic, which trims the whole `split → count` buffer.
fn respawned_split_count(checkpoint: bool) -> i64 {
    const LINES: usize = 200;
    quiet_injected_panics();
    let plan = FaultPlan::seeded(5).with_worker_panic("split", 0, 50);
    let mut cfg = RuntimeConfig::builder().faults(plan).build();
    cfg.supervisor.heartbeat_interval = Duration::from_millis(4);
    cfg.supervisor.backoff_base = Duration::from_millis(5);
    if checkpoint {
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
        cfg.state_stripes = 1;
    }
    let app = WcApp::start(1, cfg).unwrap();
    for _ in 0..49 {
        app.add_line("a").unwrap();
    }
    assert!(app.quiesce(Duration::from_secs(30)));
    if checkpoint {
        app.deployment()
            .reconfigure(ReconfigRequest::Checkpoint)
            .unwrap();
    }
    // The 50th line kills `split` and is lost with it (a stateless
    // stretch has no replay); every line fed after the respawn must count.
    app.add_line("a").unwrap();
    assert!(
        await_recovery(app.deployment(), Duration::from_secs(20)),
        "split was not respawned: {:?}",
        app.deployment().metrics()
    );
    for _ in 50..LINES {
        app.add_line("a").unwrap();
    }
    assert!(app.quiesce(Duration::from_secs(30)));
    let count = app.count("a").unwrap();
    app.shutdown();
    count
}

/// A respawned producer resumes its lane's timestamps where the dead
/// instance stopped, whether or not its output buffer still holds them:
/// with checkpointing off nothing is buffered, and a checkpoint covering
/// the whole buffer trims it empty. Restarting at 1 would make the
/// consumer's dedupe drop every new item up to the lane's watermark.
#[test]
fn a_respawned_producer_never_reuses_its_lanes_timestamps() {
    for checkpoint in [false, true] {
        let count = respawned_split_count(checkpoint);
        assert!(
            count >= 195,
            "only {count} of 200 lines counted (checkpoint: {checkpoint})"
        );
    }
}
