//! Edge micro-batching behaviour at deployment level: a two-stage
//! pipeline under batching must be exact end to end, including around
//! linger/quiesce/`Stop` races and checkpoint/recovery replay out of
//! batched output-buffer appends (the Fig. 11 path). The per-worker flush
//! triggers (size, linger, `Stop`, disconnect, steady arrivals) are unit
//! tests of `sdg_runtime::worker`, on a one-worker pool.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::StateId;
use sdg_common::record;
use sdg_common::value::{Record, Value};
use sdg_graph::model::{
    AccessMode, Dispatch, Distribution, NativeTask, SdgBuilder, StateAccessEdge, TaskCode,
    TaskContext, TaskKind,
};
use sdg_runtime::config::{BatchConfig, RuntimeConfig};
use sdg_runtime::deploy::Deployment;
use sdg_runtime::reconfig::ReconfigRequest;
use sdg_state::partition::PartitionDim;
use sdg_state::store::StateType;

/// Counts applications into a shared atomic that outlives the deployment.
struct SharedCountTask(Arc<AtomicU64>);

impl NativeTask for SharedCountTask {
    fn process(&self, input: Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        CountTask.process(input, ctx)?;
        self.0.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        Ok(())
    }
}

/// Deployment-level determinism of linger races, on a one-worker and a
/// four-worker pool: a 1 ms linger keeps batches parked right up to the
/// drain barrier, so quiesce races the timer-driven flush on every round,
/// and Stop races whatever the last round left parked. Every submitted
/// item must be applied exactly once, observed via a counter that survives
/// `shutdown` consuming the deployment.
#[test]
fn quiesce_and_stop_racing_linger_are_deterministic() {
    for workers in [1, 4] {
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
            sched_threads: workers,
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
                "{workers} workers: round {round}: parked batch starved the drain barrier"
            );
        }
        // Stop races whatever the last linger left behind.
        d.shutdown();
        assert_eq!(
            applied.load(std::sync::atomic::Ordering::Acquire),
            60,
            "{workers} workers: items lost or duplicated around linger/Stop races"
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
