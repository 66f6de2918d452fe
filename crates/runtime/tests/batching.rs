//! Edge micro-batching behaviour.
//!
//! Worker-level tests drive a single [`Worker`] against a probe channel to
//! pin down the three flush triggers (batch size, linger timeout, `Stop`);
//! deployment-level tests run a two-stage pipeline under batching and
//! assert end-to-end exactness, including checkpoint/recovery replay out
//! of batched output-buffer appends (the Fig. 11 path).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, StateId, TaskId};
use sdg_common::obs::MetricsRegistry;
use sdg_common::record;
use sdg_common::time::TsGen;
use sdg_common::value::{Record, Value};
use sdg_graph::model::{
    AccessMode, Dispatch, Distribution, NativeTask, SdgBuilder, StateAccessEdge, TaskCode,
    TaskContext, TaskKind,
};
use sdg_runtime::config::{BatchConfig, RuntimeConfig};
use sdg_runtime::deploy::Deployment;
use sdg_runtime::reconfig::ReconfigRequest;
use sdg_runtime::worker::{
    BufferRegistry, MailboxSender, OutEdge, OutputEvent, PreparedCode, Worker, WorkerMsg,
};
use sdg_runtime::{Item, Scratch};
use sdg_state::partition::PartitionDim;
use sdg_state::store::StateType;

// ---------------------------------------------------------------------------
// Worker-level flush triggers
// ---------------------------------------------------------------------------

/// A passthrough worker with one batched out edge into a probe channel.
/// Returns the input sender, the probe receiver, and the join handle.
fn probe_worker(
    batch: BatchConfig,
) -> (
    Sender<WorkerMsg>,
    Receiver<WorkerMsg>,
    std::thread::JoinHandle<()>,
) {
    let (in_tx, in_rx) = unbounded::<WorkerMsg>();
    let (probe_tx, probe_rx) = unbounded::<WorkerMsg>();
    let (sink_tx, _sink_rx) = unbounded::<OutputEvent>();
    // The sink receiver must outlive the worker or emits would error; this
    // worker never emits, so dropping it is fine.
    let registry = MetricsRegistry::new();
    let out = OutEdge::new(
        EdgeId(7),
        Dispatch::OneToAny,
        Vec::new(),
        Arc::new(RwLock::new(vec![MailboxSender::Thread(probe_tx)])),
        TsGen::new(),
        0,
        Arc::new(BufferRegistry::new(64)),
        false,
        batch,
        Arc::new(AtomicU64::new(0)),
    );
    let worker = Worker {
        name: "probe".into(),
        replica: 0,
        code: PreparedCode::Passthrough,
        scratch: Scratch::new(),
        cell: None,
        route_key: None,
        outs: vec![out],
        sink: sink_tx,
        pending_gathers: HashMap::new(),
        gather_var: None,
        work_ns: 0,
        speed: 1.0,
        alive: Arc::new(AtomicBool::new(true)),
        obs: registry.task("probe"),
        e2e: Arc::clone(registry.e2e_latency()),
        dedupe: false,
        in_flight: Arc::new(AtomicU64::new(0)),
        work_debt: Duration::ZERO,
        task: TaskId(0),
        heartbeat: Arc::new(AtomicU64::new(0)),
        fault: None,
        hub: None,
    };
    let handle = std::thread::spawn(move || worker.run(in_rx));
    (in_tx, probe_rx, handle)
}

fn input_item(corr: u64) -> Item {
    Item {
        edge: EdgeId(1),
        src_replica: 0,
        ts: corr + 1,
        corr,
        expect: 1,
        payload: Arc::new(record! {"k" => Value::Int(corr as i64)}),
        submitted_at: None,
    }
}

/// Number of records carried by one outbound message.
fn msg_len(msg: &WorkerMsg) -> usize {
    match msg {
        WorkerMsg::Item(_) => 1,
        WorkerMsg::Batch(items) => items.len(),
        WorkerMsg::Stop => 0,
    }
}

#[test]
fn full_batch_flushes_immediately_on_size() {
    // Linger is far too long to fire: only the size trigger can flush.
    let batch = BatchConfig {
        max_items: 4,
        linger: Duration::from_secs(60),
    };
    let (tx, probe, handle) = probe_worker(batch);
    for corr in 0..4 {
        tx.send(WorkerMsg::Item(input_item(corr))).unwrap();
    }
    let msg = probe
        .recv_timeout(Duration::from_secs(5))
        .expect("full batch must flush on size, not linger");
    assert_eq!(msg_len(&msg), 4);
    assert!(matches!(msg, WorkerMsg::Batch(_)));
    tx.send(WorkerMsg::Stop).unwrap();
    handle.join().unwrap();
}

#[test]
fn partial_batch_flushes_on_linger_timeout() {
    let linger = Duration::from_millis(30);
    let batch = BatchConfig {
        max_items: 100,
        linger,
    };
    let (tx, probe, handle) = probe_worker(batch);
    let t0 = Instant::now();
    for corr in 0..2 {
        tx.send(WorkerMsg::Item(input_item(corr))).unwrap();
    }
    // Nothing may flush before the linger deadline (2 ≪ 100 items).
    assert!(
        probe.recv_timeout(Duration::from_millis(5)).is_err(),
        "partial batch flushed before its linger deadline"
    );
    let msg = probe
        .recv_timeout(Duration::from_secs(5))
        .expect("linger expiry must flush the partial batch without a Stop");
    assert!(t0.elapsed() >= linger, "flush arrived before the linger");
    assert_eq!(msg_len(&msg), 2);
    tx.send(WorkerMsg::Stop).unwrap();
    handle.join().unwrap();
}

#[test]
fn stop_flushes_pending_batch() {
    // Neither size (3 < 100) nor linger (60 s) can trigger: only `Stop`.
    let batch = BatchConfig {
        max_items: 100,
        linger: Duration::from_secs(60),
    };
    let (tx, probe, handle) = probe_worker(batch);
    for corr in 0..3 {
        tx.send(WorkerMsg::Item(input_item(corr))).unwrap();
    }
    tx.send(WorkerMsg::Stop).unwrap();
    handle.join().unwrap();
    let msg = probe.try_recv().expect("Stop must flush the pending batch");
    assert_eq!(msg_len(&msg), 3);
    assert!(probe.try_recv().is_err(), "exactly one flush expected");
}

#[test]
fn channel_disconnect_flushes_like_stop() {
    let batch = BatchConfig {
        max_items: 100,
        linger: Duration::from_secs(60),
    };
    let (tx, probe, handle) = probe_worker(batch);
    tx.send(WorkerMsg::Item(input_item(0))).unwrap();
    drop(tx); // Producer side goes away entirely.
    handle.join().unwrap();
    assert_eq!(msg_len(&probe.try_recv().expect("flush on disconnect")), 1);
}

#[test]
fn steady_arrivals_do_not_starve_linger_flushes() {
    // A zero linger makes every parked item immediately due, so each
    // message must be followed by a flush. The regression: `recv_timeout`
    // hands back queued messages before it checks the clock, so a steady
    // burst (queue never empty) starved the deadline and everything came
    // out as one end-of-burst batch.
    let batch = BatchConfig {
        max_items: 1000,
        linger: Duration::ZERO,
    };
    let (tx, probe, handle) = probe_worker(batch);
    for corr in 0..50 {
        tx.send(WorkerMsg::Item(input_item(corr))).unwrap();
    }
    tx.send(WorkerMsg::Stop).unwrap();
    handle.join().unwrap();
    let mut total = 0;
    let mut msgs = 0;
    while let Ok(m) = probe.try_recv() {
        total += msg_len(&m);
        msgs += 1;
    }
    assert_eq!(total, 50, "no item may be lost or duplicated");
    assert!(
        msgs > 1,
        "an expired linger must flush mid-burst, not wait for the queue to drain"
    );
}

#[test]
fn stop_racing_linger_deadline_resolves_batches_exactly_once() {
    // A parked batch whose linger deadline expires right around `Stop`
    // must be resolved exactly once — either the timeout flush or the Stop
    // flush wins, never both, never neither. Repeated to shake the race.
    for round in 0..20 {
        let batch = BatchConfig {
            max_items: 100,
            linger: Duration::from_millis(1),
        };
        let (tx, probe, handle) = probe_worker(batch);
        for corr in 0..3 {
            tx.send(WorkerMsg::Item(input_item(corr))).unwrap();
        }
        // Let the deadline expire (or not — both interleavings must work).
        if round % 2 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        tx.send(WorkerMsg::Stop).unwrap();
        handle.join().unwrap();
        let mut total = 0;
        while let Ok(m) = probe.try_recv() {
            total += msg_len(&m);
        }
        assert_eq!(
            total, 3,
            "round {round}: Stop racing an expired linger lost or duplicated items"
        );
    }
}

/// Counts applications into a shared atomic that outlives the deployment.
struct SharedCountTask(Arc<AtomicU64>);

impl NativeTask for SharedCountTask {
    fn process(&self, input: Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        CountTask.process(input, ctx)?;
        self.0.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        Ok(())
    }
}

/// Deployment-level determinism of the same race, under both schedulers:
/// a 1 ms linger keeps batches parked right up to the drain barrier, so
/// quiesce races the timer-driven flush on every round, and Stop races
/// whatever the last round left parked. Every submitted item must be
/// applied exactly once, observed via a counter that survives `shutdown`
/// consuming the deployment.
#[test]
fn quiesce_and_stop_racing_linger_are_deterministic_under_both_schedulers() {
    use sdg_runtime::config::SchedulerMode;
    for scheduler in [SchedulerMode::Threads, SchedulerMode::Pool] {
        let applied = Arc::new(AtomicU64::new(0));
        let mut b = SdgBuilder::new();
        let counts = b.add_state(
            "counts",
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let gen = b.add_task(
            "gen",
            TaskKind::Entry {
                method: "feed".into(),
            },
            TaskCode::Passthrough,
            None,
        );
        let count = b.add_task(
            "count",
            TaskKind::Compute,
            TaskCode::Native(Arc::new(SharedCountTask(Arc::clone(&applied)))),
            Some(StateAccessEdge {
                state: counts,
                mode: AccessMode::Partitioned {
                    key: "k".into(),
                    dim: PartitionDim::Row,
                },
                writes: true,
            }),
        );
        b.connect(
            gen,
            count,
            Dispatch::Partitioned { key: "k".into() },
            vec!["k".into()],
        );
        let mut cfg = RuntimeConfig {
            scheduler,
            sched_threads: 4,
            batch: BatchConfig {
                max_items: 100,
                linger: Duration::from_millis(1),
            },
            ..Default::default()
        };
        cfg.se_instances.insert(counts, 2);
        let d = Deployment::start(b.build().unwrap(), cfg).unwrap();
        for round in 0..6i64 {
            for n in 0..10i64 {
                d.submit("feed", record! {"k" => Value::Int((round * 10 + n) % 12)})
                    .unwrap();
            }
            // The 10-item batch (< 100) only flushes via the 1 ms linger:
            // quiesce must observe the parked items and outwait the timer.
            assert!(
                d.quiesce(Duration::from_secs(10)),
                "{scheduler:?}: round {round}: parked batch starved the drain barrier"
            );
        }
        // Stop races whatever the last linger left behind.
        d.shutdown();
        assert_eq!(
            applied.load(std::sync::atomic::Ordering::Acquire),
            60,
            "{scheduler:?}: items lost or duplicated around linger/Stop races"
        );
    }
}

// ---------------------------------------------------------------------------
// Deployment-level exactness under batching
// ---------------------------------------------------------------------------

/// Bumps `counts[k]` by one per input record.
struct CountTask;

impl NativeTask for CountTask {
    fn process(&self, input: Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let key = input.require("k")?.to_key()?;
        let table = ctx
            .state()
            .ok_or_else(|| SdgError::Runtime("count task requires state".into()))?
            .as_table()?;
        table.update(key, |v| {
            Value::Int(v.map(|x| x.as_int().unwrap_or(0)).unwrap_or(0) + 1)
        });
        Ok(())
    }
}

/// Two-stage pipeline: a passthrough entry forwards over a partitioned,
/// batched dataflow edge into a counting state task.
fn deploy_pipeline(partitions: usize, batch: BatchConfig, ft: bool) -> (Deployment, StateId) {
    deploy_pipeline_sched(partitions, batch, ft, None)
}

/// Like [`deploy_pipeline`], optionally pinning the scheduler (`None`
/// keeps the `SDG_SCHED`-derived default, so the whole file still runs
/// under either mode via the environment).
fn deploy_pipeline_sched(
    partitions: usize,
    batch: BatchConfig,
    ft: bool,
    scheduler: Option<sdg_runtime::config::SchedulerMode>,
) -> (Deployment, StateId) {
    let mut b = SdgBuilder::new();
    let counts = b.add_state(
        "counts",
        StateType::Table,
        Distribution::Partitioned {
            dim: PartitionDim::Row,
        },
    );
    let gen = b.add_task(
        "gen",
        TaskKind::Entry {
            method: "feed".into(),
        },
        TaskCode::Passthrough,
        None,
    );
    let count = b.add_task(
        "count",
        TaskKind::Compute,
        TaskCode::Native(Arc::new(CountTask)),
        Some(StateAccessEdge {
            state: counts,
            mode: AccessMode::Partitioned {
                key: "k".into(),
                dim: PartitionDim::Row,
            },
            writes: true,
        }),
    );
    b.connect(
        gen,
        count,
        Dispatch::Partitioned { key: "k".into() },
        vec!["k".into()],
    );
    let sdg = b.build().unwrap();
    let mut cfg = RuntimeConfig::default();
    if let Some(s) = scheduler {
        cfg.scheduler = s;
        cfg.sched_threads = 4;
    }
    cfg.se_instances.insert(counts, partitions);
    cfg.batch = batch;
    if ft {
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
    }
    (Deployment::start(sdg, cfg).unwrap(), counts)
}

fn total_count(d: &Deployment, counts: StateId) -> i64 {
    let instances = d
        .metrics()
        .state_by_id(counts)
        .map_or(0, |s| s.instances as usize);
    let mut total = 0;
    for replica in 0..instances {
        d.with_state(counts, replica as u32, |s| {
            s.as_table().unwrap().for_each(|_, v| {
                total += v.as_int().unwrap();
            });
        })
        .unwrap();
    }
    total
}

#[test]
fn batched_pipeline_counts_are_exact() {
    // 500 items with batch size 16: 31 full batches plus a 4-item tail
    // that only the linger (or shutdown) can flush.
    let (d, counts) = deploy_pipeline(
        3,
        BatchConfig {
            max_items: 16,
            linger: Duration::from_millis(2),
        },
        false,
    );
    for n in 0..500i64 {
        d.submit("feed", record! {"k" => Value::Int(n % 50)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, counts), 500);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

#[test]
fn recovery_replays_batched_buffers_exactly_once() {
    // The Fig. 11 path under batching: output buffers are appended via the
    // batched path (`push_all`), a partition dies, and replay must restore
    // exact counts — no loss, no duplicates.
    let (d, counts) = deploy_pipeline(
        2,
        BatchConfig {
            max_items: 4,
            linger: Duration::from_millis(1),
        },
        true,
    );
    for n in 0..300i64 {
        d.submit("feed", record! {"k" => Value::Int(n % 20)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();

    // Post-checkpoint items live only in (batch-appended) upstream buffers
    // and the soon-to-be-lost partition state.
    for n in 0..200i64 {
        d.submit("feed", record! {"k" => Value::Int(n % 20)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, counts), 500);

    let report = d
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: counts,
            replica: 0,
        })
        .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(
        total_count(&d, counts),
        500,
        "recovery under batching lost or duplicated updates"
    );
    assert!(
        report.replayed > 0,
        "post-checkpoint items must be replayed"
    );

    // The pipeline keeps processing normally afterwards.
    for n in 0..100i64 {
        d.submit("feed", record! {"k" => Value::Int(n % 20)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, counts), 600);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}
