//! Native-graph topologies beyond the linear pipelines the translator
//! emits: fan-out to multiple consumers, flat-map stages, and mixed
//! native/interpreted graphs.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sdg_common::error::SdgResult;
use sdg_common::ids::{StateId, TaskId};
use sdg_common::record;
use sdg_common::value::{Key, Record, Value};
use sdg_graph::model::{
    AccessMode, Dispatch, Distribution, NativeTask, Sdg, SdgBuilder, StateAccessEdge, TaskCode,
    TaskContext, TaskKind,
};
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::deploy::Deployment;
use sdg_runtime::fault::FaultPlan;
use sdg_runtime::reconfig::ReconfigRequest;
use sdg_state::partition::{KeyLayout, PartitionDim};
use sdg_state::store::StateType;

/// Counts items in its table under the record's `k`.
struct CountTask;

impl NativeTask for CountTask {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let key = input.require("k")?.to_key()?;
        let table = ctx.state().expect("stateful").as_table()?;
        table.update(key, |v| {
            Value::Int(v.map(|x| x.as_int().unwrap_or(0)).unwrap_or(0) + 1)
        });
        Ok(())
    }
}

#[test]
fn one_producer_feeds_two_consumers() {
    // source ──▶ left (counts by k)
    //        └─▶ right (counts by k, separate table)
    let mut b = SdgBuilder::new();
    let left_state = b.add_state(
        "left",
        StateType::Table,
        Distribution::Partitioned {
            dim: PartitionDim::Row,
        },
    );
    let right_state = b.add_state(
        "right",
        StateType::Table,
        Distribution::Partitioned {
            dim: PartitionDim::Row,
        },
    );
    let source = b.add_task(
        "source",
        TaskKind::Entry {
            method: "feed".into(),
        },
        TaskCode::Passthrough,
        None,
    );
    let left = b.add_task(
        "left",
        TaskKind::Compute,
        TaskCode::Native(Arc::new(CountTask)),
        Some(StateAccessEdge {
            state: left_state,
            mode: AccessMode::Partitioned {
                key: "k".into(),
                dim: PartitionDim::Row,
            },
            writes: true,
        }),
    );
    let right = b.add_task(
        "right",
        TaskKind::Compute,
        TaskCode::Native(Arc::new(CountTask)),
        Some(StateAccessEdge {
            state: right_state,
            mode: AccessMode::Partitioned {
                key: "k".into(),
                dim: PartitionDim::Row,
            },
            writes: true,
        }),
    );
    b.connect(
        source,
        left,
        Dispatch::Partitioned { key: "k".into() },
        vec!["k".into()],
    );
    b.connect(
        source,
        right,
        Dispatch::Partitioned { key: "k".into() },
        vec!["k".into()],
    );
    let sdg = b.build().unwrap();

    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(left_state, 2);
    cfg.se_instances.insert(right_state, 3);
    let d = Deployment::start(sdg, cfg).unwrap();
    for n in 0..200i64 {
        d.submit("feed", record! {"k" => Value::Int(n % 10)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));

    // Both sides saw every item, despite different partition counts.
    for (state, instances) in [(left_state, 2usize), (right_state, 3)] {
        let mut total = 0i64;
        for replica in 0..instances {
            d.with_state(state, replica as u32, |s| {
                s.as_table()
                    .unwrap()
                    .for_each(|_, v| total += v.as_int().unwrap());
            })
            .unwrap();
        }
        assert_eq!(total, 200, "{state}");
        // Per-key counts are exact.
        let key = Key::Int(3);
        let replica = (key.stable_hash() % instances as u64) as u32;
        let count = d
            .with_state(state, replica, |s| s.as_table().unwrap().get(&key))
            .unwrap();
        assert_eq!(count, Some(Value::Int(20)));
    }
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

/// Splits a record into several forwarded records (flat map).
struct ExplodeTask;

impl NativeTask for ExplodeTask {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let n = input.require("n")?.as_int()?;
        for i in 0..n {
            let mut out = Record::with_capacity(1);
            out.set("k", Value::Int(i));
            ctx.forward(out);
        }
        Ok(())
    }
}

#[test]
fn flat_map_fans_out_items() {
    let mut b = SdgBuilder::new();
    let counts = b.add_state(
        "counts",
        StateType::Table,
        Distribution::Partitioned {
            dim: PartitionDim::Row,
        },
    );
    let explode = b.add_task(
        "explode",
        TaskKind::Entry {
            method: "explode".into(),
        },
        TaskCode::Native(Arc::new(ExplodeTask)),
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
        explode,
        count,
        Dispatch::Partitioned { key: "k".into() },
        vec!["k".into()],
    );
    let sdg = b.build().unwrap();
    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(counts, 2);
    let d = Deployment::start(sdg, cfg).unwrap();

    // Each request n produces n items with keys 0..n.
    for n in [5i64, 3, 7] {
        d.submit("explode", record! {"n" => Value::Int(n)}).unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    // Key 0 appears in all three requests; key 6 only in the last.
    let count_of = |k: i64| {
        let key = Key::Int(k);
        let replica = (key.stable_hash() % 2) as u32;
        d.with_state(counts, replica, |s| s.as_table().unwrap().get(&key))
            .unwrap()
    };
    assert_eq!(count_of(0), Some(Value::Int(3)));
    assert_eq!(count_of(4), Some(Value::Int(2)));
    assert_eq!(count_of(6), Some(Value::Int(1)));
    assert_eq!(count_of(9), None);
    d.shutdown();
}

#[test]
fn stateless_fanout_scales_independently_of_consumers() {
    // Stateless tasks can have any instance count; stateful ones follow
    // their SE. Mixed graph: 4 stateless parsers feed 2 partitions.
    let mut b = SdgBuilder::new();
    let counts = b.add_state(
        "counts",
        StateType::Table,
        Distribution::Partitioned {
            dim: PartitionDim::Row,
        },
    );
    let parse = b.add_task(
        "parse",
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
        parse,
        count,
        Dispatch::Partitioned { key: "k".into() },
        vec!["k".into()],
    );
    let sdg = b.build().unwrap();
    let parse_id = sdg.task_by_name("parse").unwrap().id;
    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(counts, 2);
    cfg.task_instances.insert(parse_id, 4);
    let d = Deployment::start(sdg, cfg).unwrap();
    assert_eq!(d.metrics().task_by_id(parse_id).unwrap().instances, 4);

    for n in 0..400i64 {
        d.submit("feed", record! {"k" => Value::Int(n % 8)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    let mut total = 0i64;
    for replica in 0..2u32 {
        d.with_state(counts, replica, |s| {
            s.as_table()
                .unwrap()
                .for_each(|_, v| total += v.as_int().unwrap());
        })
        .unwrap();
    }
    assert_eq!(total, 400);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

/// A stateless scale-in is refused while an instance of the task is dead:
/// it would retire the last live slot and leave the dead one in place.
#[test]
fn stateless_scale_in_waits_for_a_failed_instance() {
    // parse ×2 ──▶ sink, parse#1 panics on its first item.
    let mut b = SdgBuilder::new();
    let parse = b.add_task(
        "parse",
        TaskKind::Entry {
            method: "feed".into(),
        },
        TaskCode::Passthrough,
        None,
    );
    let sink = b.add_task("sink", TaskKind::Compute, TaskCode::Passthrough, None);
    b.connect(parse, sink, Dispatch::OneToAny, vec!["k".into()]);
    let sdg = b.build().unwrap();
    let parse_id = sdg.task_by_name("parse").unwrap().id;
    let mut cfg = RuntimeConfig::builder()
        .faults(FaultPlan::seeded(1).with_worker_panic("parse", 1, 1))
        .build();
    cfg.task_instances.insert(parse_id, 2);
    cfg.supervisor.enabled = false;
    let d = Deployment::start(sdg, cfg).unwrap();

    for n in 0..50i64 {
        // Sends to the dead instance fail; the live one takes the rest.
        let _ = d.submit("feed", record! {"k" => Value::Int(n)});
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    assert_eq!(d.metrics().faults.worker_panics, 1, "the fault fired");
    let refused = d
        .reconfigure(ReconfigRequest::ScaleIn { task: parse_id })
        .expect_err("a scale-in over a dead instance");
    assert!(refused.to_string().contains("awaits recovery"), "{refused}");
    assert_eq!(d.metrics().task_by_id(parse_id).unwrap().instances, 2);
    d.shutdown();
}

/// Counts the item under its `k`, like [`CountTask`], and forwards it.
struct CountAndForward;

impl NativeTask for CountAndForward {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        CountTask.process(input, ctx)?;
        ctx.forward(input.clone());
        Ok(())
    }
}

/// A task that counts into `state` by `k`, partitioned by `k`.
fn counter(b: &mut SdgBuilder, name: &str, code: Arc<dyn NativeTask>, state: StateId) -> TaskId {
    b.add_task(
        name,
        TaskKind::Compute,
        TaskCode::Native(code),
        Some(StateAccessEdge {
            state,
            mode: AccessMode::Partitioned {
                key: "k".into(),
                dim: PartitionDim::Row,
            },
            writes: true,
        }),
    )
}

/// Reads the count under the record's `k`.
struct ReadTask;

impl NativeTask for ReadTask {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let key = input.require("k")?.to_key()?;
        ctx.state().expect("stateful").as_table()?.get(&key);
        Ok(())
    }
}

/// Whether and how `a` forwards into `b` in [`counting_graph`].
#[derive(Debug, Clone, Copy)]
enum Chain {
    /// `source → a`.
    No,
    /// `source → a → b`.
    Direct,
    /// `source → a → via → b`, where `via` is stateless.
    Via,
    /// `source → a → via → b`, where `b` only reads `s`.
    ViaReader,
}

/// A stateless entry `source` feeding tasks `a` (and `b`) that all count
/// into one partitioned state `s`, by `k` (a reading `b` only looks).
fn counting_graph(chain: Chain) -> (Sdg, StateId, TaskId) {
    let mut b = SdgBuilder::new();
    let s = b.add_state(
        "s",
        StateType::Table,
        Distribution::Partitioned {
            dim: PartitionDim::Row,
        },
    );
    let source = b.add_task(
        "source",
        TaskKind::Entry {
            method: "feed".into(),
        },
        TaskCode::Passthrough,
        None,
    );
    let by_k = || Dispatch::Partitioned { key: "k".into() };
    let a = match chain {
        Chain::No => counter(&mut b, "a", Arc::new(CountTask), s),
        Chain::Direct | Chain::Via | Chain::ViaReader => {
            let a = counter(&mut b, "a", Arc::new(CountAndForward), s);
            let code: Arc<dyn NativeTask> = match chain {
                Chain::ViaReader => Arc::new(ReadTask),
                _ => Arc::new(CountTask),
            };
            let mut next = counter(&mut b, "b", code, s);
            if let Chain::Via | Chain::ViaReader = chain {
                let via = b.add_task("via", TaskKind::Compute, TaskCode::Passthrough, None);
                b.connect(via, next, by_k(), vec!["k".into()]);
                next = via;
            }
            b.connect(a, next, by_k(), vec!["k".into()]);
            a
        }
    };
    b.connect(source, a, by_k(), vec!["k".into()]);
    (b.build().unwrap(), s, a)
}

/// Items a live feeder submits before the control operation starts: enough
/// to fill the pipeline's mailboxes.
const WARM_UP: i64 = 4096;

/// Feeds `feed` from a thread of its own: it meets `started` after the
/// first `WARM_UP` items and stops once `stop` is set. Joins to the count fed.
fn live_feeder(
    d: &Deployment,
    started: Arc<Barrier>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<i64> {
    let mut handle = d.ingest_handle().unwrap();
    std::thread::spawn(move || {
        let mut fed = 0i64;
        while fed < WARM_UP || !stop.load(Ordering::Acquire) {
            handle
                .submit("feed", record! {"k" => Value::Int(fed % 64)})
                .unwrap();
            fed += 1;
            if fed == WARM_UP {
                started.wait();
            }
        }
        fed
    })
}

/// Runs `control` against `d` while a live feeder submits, then returns
/// the count fed once every item has drained.
fn under_live_feed(d: &Deployment, control: impl FnOnce()) -> i64 {
    let started = Arc::new(Barrier::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = live_feeder(d, Arc::clone(&started), Arc::clone(&stop));
    started.wait();
    control();
    stop.store(true, Ordering::Release);
    let fed = feeder.join().unwrap();
    assert!(d.quiesce(Duration::from_secs(30)));
    fed
}

/// The sum of every count in `state`'s instances.
fn total(d: &Deployment, state: StateId) -> i64 {
    let instances = d.metrics().state_by_id(state).unwrap().instances;
    let mut total = 0;
    for replica in 0..instances as u32 {
        d.with_state(state, replica, |s| {
            s.as_table()
                .unwrap()
                .for_each(|_, v| total += v.as_int().unwrap());
        })
        .unwrap();
    }
    total
}

/// An instance of a paused task forwards into another paused task,
/// directly or through a stateless task: the sender stages those sends and
/// drains its own mailbox, so the drain ends and every write lands once.
#[test]
fn a_scale_drains_while_a_paused_task_forwards_into_another() {
    // One thread, and four as on a 4-vCPU host, whatever this host's
    // default pool size.
    for (threads, chain) in [1, 4]
        .into_iter()
        .flat_map(|t| [(t, Chain::Direct), (t, Chain::Via)])
    {
        let (sdg, s, a) = counting_graph(chain);
        let mut cfg = RuntimeConfig {
            sched_threads: threads,
            ..RuntimeConfig::default()
        };
        cfg.se_instances.insert(s, 2);
        cfg.supervisor.enabled = false;
        let d = Deployment::start(sdg, cfg).unwrap();
        let fed = under_live_feed(&d, || {
            let report = d
                .reconfigure(ReconfigRequest::ScaleOut { task: a })
                .unwrap();
            assert!(
                report.drain < Duration::from_secs(1),
                "{chain:?} on {threads} threads: drain {:?}",
                report.drain
            );
            assert_eq!(report.se_instances, 3);
        });
        assert_eq!(total(&d, s), 2 * fed, "{chain:?} on {threads} threads");
        d.shutdown();
    }
}

/// `a → via → b` with `a` and `b` on one SE: the SE instance's actor feeds
/// itself through `via`'s, a cycle of actors. With mailboxes of two, each
/// of the two would suspend on the other's credit; the edge that closes
/// the cycle sends without credit, so every item lands.
#[test]
fn an_se_group_feeding_itself_through_a_stateless_task_never_waits_on_itself() {
    for threads in [1, 4] {
        let (sdg, s, _) = counting_graph(Chain::Via);
        let mut cfg = RuntimeConfig {
            sched_threads: threads,
            channel_capacity: 2,
            ..RuntimeConfig::default()
        };
        cfg.se_instances.insert(s, 2);
        cfg.supervisor.enabled = false;
        let d = Deployment::start(sdg, cfg).unwrap();
        let fed = 40_000i64;
        // A detached feeder: a wedged cycle fails the test, not hangs it.
        let mut lane = d.ingest_handle().unwrap();
        let (done, fed_all) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for n in 0..fed {
                lane.submit("feed", record! {"k" => Value::Int(n % 64)})
                    .unwrap();
            }
            done.send(()).unwrap();
        });
        fed_all
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{threads} threads: the feed is stuck"));
        assert!(d.quiesce(Duration::from_secs(30)), "{threads} threads");
        assert_eq!(total(&d, s), 2 * fed, "{threads} threads");
        d.shutdown();
    }
}

/// The pause of an SE group takes each route once, although the upstream
/// cone of `a → via → b` (both on `s`) reaches the group again. Under a
/// live feed, a recovery, a scale-out and a scale-in of the group each
/// finish (a detached driver, so a wedge fails the test), and every key
/// ends with the count a run without reconfiguration ends with. `b` only
/// reads: a recovered `a` forwards its replayed items again with fresh
/// timestamps, which a writing `b` would apply twice (the limitation
/// `Deployment::reconfigure` documents; see the ignored test below).
#[test]
fn a_self_feeding_group_recovers_and_scales_under_load() {
    self_feeding_group_recovers_and_scales(Chain::ViaReader);
}

/// As above with a `b` that counts too, so every key must end with twice
/// the count fed. It fails: the recovered `a` forwards its replayed items
/// to `b` again with fresh timestamps, and `b` applies each of them twice.
#[test]
#[ignore = "recovery is not exact for a group that feeds itself: see the FOUND line on fail_and_recover in CHANGES.md"]
fn a_self_feeding_counting_group_recovers_and_scales_exactly_under_load() {
    self_feeding_group_recovers_and_scales(Chain::Via);
}

/// Recovers, scales out and scales in the group of `a → via → b` under a
/// live feed, then checks each key's count: once per item fed, twice when
/// `b` counts too (`Chain::Via`).
fn self_feeding_group_recovers_and_scales(chain: Chain) {
    let per_item = match chain {
        Chain::Via => 2,
        _ => 1,
    };
    for threads in [1, 4] {
        let (sdg, s, a) = counting_graph(chain);
        let mut cfg = RuntimeConfig {
            sched_threads: threads,
            ..RuntimeConfig::default()
        };
        cfg.se_instances.insert(s, 2);
        cfg.supervisor.enabled = false;
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
        let d = Arc::new(Deployment::start(sdg, cfg).unwrap());
        let (step, steps) = std::sync::mpsc::channel();
        let driver = Arc::clone(&d);
        std::thread::spawn(move || {
            let fed = under_live_feed(&driver, || {
                for request in [
                    ReconfigRequest::Checkpoint,
                    ReconfigRequest::FailAndRecover {
                        state: s,
                        replica: 0,
                    },
                    ReconfigRequest::ScaleOut { task: a },
                    ReconfigRequest::ScaleIn { task: a },
                ] {
                    driver.reconfigure(request).unwrap();
                    step.send(None).unwrap();
                }
            });
            step.send(Some(fed)).unwrap();
        });
        let fed = loop {
            let next = steps.recv_timeout(Duration::from_secs(30));
            match next.unwrap_or_else(|_| panic!("{threads} threads: a step is stuck")) {
                Some(fed) => break fed,
                None => continue,
            }
        };
        let mut counts = std::collections::BTreeMap::new();
        for replica in 0..2 {
            d.with_state(s, replica, |st| {
                st.as_table().unwrap().for_each(|k, v| {
                    counts.insert(k.clone(), v.as_int().unwrap());
                })
            })
            .unwrap();
        }
        let want: std::collections::BTreeMap<Key, i64> = (0..64)
            .map(|k| (Key::Int(k), per_item * ((fed - k + 63) / 64)))
            .collect();
        assert_eq!(counts, want, "{threads} threads");
        // The driver thread dropped its handle once it sent the count.
        while Arc::strong_count(&d) > 1 {
            std::thread::yield_now();
        }
        Arc::into_inner(d).unwrap().shutdown();
    }
}

/// A stateless producer on the only pool thread sends into the paused
/// group: it stages, so the group's mailboxes drain on that thread. The
/// group's service time rests its instances with items still queued, so
/// the producer often holds the thread while they wait. The feeder waits
/// on the producer's paused route, so each flush holds at most what was
/// in flight, and scale cycles in a row stay short.
#[test]
fn a_scale_drains_while_a_stateless_producer_feeds_the_group_on_one_thread() {
    let (sdg, s, a) = counting_graph(Chain::No);
    let mut cfg = RuntimeConfig {
        sched_threads: 1,
        ..RuntimeConfig::default()
    };
    cfg.se_instances.insert(s, 2);
    cfg.work_ns.insert(a, 20_000);
    cfg.supervisor.enabled = false;
    let d = Deployment::start(sdg, cfg).unwrap();
    let fed = under_live_feed(&d, || {
        for _ in 0..3 {
            for request in [
                ReconfigRequest::ScaleOut { task: a },
                ReconfigRequest::ScaleIn { task: a },
            ] {
                let report = d.reconfigure(request).unwrap();
                assert!(
                    report.drain < Duration::from_secs(1),
                    "{request:?}: drain {:?}",
                    report.drain
                );
            }
        }
    });
    assert_eq!(total(&d, s), fed);
    d.shutdown();
}

/// Sends staged while recovery holds the route are flushed after the
/// replay, with timestamps above it: nothing is lost or applied twice.
#[test]
fn recovery_under_a_live_feed_is_exact_on_one_thread() {
    for threads in [1, 4] {
        let (sdg, s, _) = counting_graph(Chain::No);
        let mut cfg = RuntimeConfig {
            sched_threads: threads,
            ..RuntimeConfig::default()
        };
        cfg.se_instances.insert(s, 2);
        cfg.supervisor.enabled = false;
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
        let d = Deployment::start(sdg, cfg).unwrap();
        let fed = under_live_feed(&d, || {
            d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
            d.reconfigure(ReconfigRequest::FailAndRecover {
                state: s,
                replica: 0,
            })
            .unwrap();
        });
        assert_eq!(total(&d, s), fed, "{threads} threads");
        d.shutdown();
    }
}

/// A stripe trusts the hash its item was routed by. That is sound because
/// a deployment refuses any edge into a partitioned-table task that is not
/// partitioned on its access key (here a broadcast), while a table fed by
/// key is striped and ends exact through a checkpoint and a recovery,
/// whose replayed items carry the hash too.
#[test]
fn stripes_take_only_items_routed_by_their_key() {
    let mut b = SdgBuilder::new();
    let s = b.add_state(
        "s",
        StateType::Table,
        Distribution::Partitioned {
            dim: PartitionDim::Row,
        },
    );
    let source = b.add_task(
        "source",
        TaskKind::Entry {
            method: "feed".into(),
        },
        TaskCode::Passthrough,
        None,
    );
    let a = counter(&mut b, "a", Arc::new(CountTask), s);
    b.connect(source, a, Dispatch::OneToAll, vec!["k".into()]);
    let refused = Deployment::start(b.build_unchecked(), RuntimeConfig::default());
    let err = refused
        .err()
        .expect("a broadcast into a keyed task deploys");
    assert!(err.to_string().contains("must be partitioned(k)"), "{err}");

    let (sdg, s, _) = counting_graph(Chain::No);
    let mut cfg = RuntimeConfig::default();
    let striped = cfg.state_stripes as u64;
    assert!(striped > 1);
    cfg.se_instances.insert(s, 2);
    cfg.supervisor.enabled = false;
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
    let d = Deployment::start(sdg, cfg).unwrap();
    assert_eq!(d.metrics().state_by_id(s).unwrap().stripes, striped);
    let feed = |from: i64, to: i64| {
        for n in from..to {
            d.submit("feed", record! {"k" => Value::Int(n % 10)})
                .unwrap();
        }
        assert!(d.quiesce(Duration::from_secs(30)));
    };
    feed(0, 100);
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    feed(100, 200);
    for replica in 0..2 {
        d.reconfigure(ReconfigRequest::FailAndRecover { state: s, replica })
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    for k in 0..10i64 {
        let key = Key::Int(k);
        let replica = KeyLayout::instance(key.stable_hash(), 2) as u32;
        let count = d
            .with_state(s, replica, |st| st.as_table().unwrap().get(&key))
            .unwrap();
        assert_eq!(count, Some(Value::Int(20)), "key {k}");
    }
    assert_eq!(total(&d, s), 200);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

/// `with_state` merges the stripes and re-splits them, yet keeps their
/// dirty chunks: a read-only call leaves the next take nothing to write,
/// and a write dirties only its key's chunk, which a recovery restores.
#[test]
fn with_state_keeps_the_next_take_a_delta_of_what_it_wrote() {
    let (sdg, s, _) = counting_graph(Chain::No);
    let mut cfg = RuntimeConfig::default();
    let stripes = cfg.state_stripes as u64;
    cfg.se_instances.insert(s, 2);
    cfg.supervisor.enabled = false;
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
    let d = Deployment::start(sdg, cfg).unwrap();
    for n in 0..640i64 {
        d.submit("feed", record! {"k" => Value::Int(n % 64)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    let dirty = || d.metrics().state_by_id(s).unwrap().dirty_chunks;
    assert_eq!(dirty(), 0);

    let len = d
        .with_state(s, 0, |st| st.as_table().unwrap().len())
        .unwrap();
    assert!(len > 0);
    assert_eq!(dirty(), 0, "a read-only with_state dirties nothing");
    let bytes = d.metrics().checkpoints.bytes;
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    assert_eq!(d.metrics().checkpoints.bytes, bytes, "an empty delta");

    // Every stripe of the instance carries the one chunk the write dirtied.
    let key = (0..64)
        .map(Key::Int)
        .find(|k| KeyLayout::instance(k.stable_hash(), 2) == 0)
        .unwrap();
    d.with_state(s, 0, |st| {
        st.as_table().unwrap().put(key.clone(), Value::Int(1_000))
    })
    .unwrap();
    assert_eq!(dirty(), stripes);
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    assert_eq!(dirty(), 0);
    d.reconfigure(ReconfigRequest::FailAndRecover {
        state: s,
        replica: 0,
    })
    .unwrap();
    let got = d
        .with_state(s, 0, |st| st.as_table().unwrap().get(&key))
        .unwrap();
    assert_eq!(got, Some(Value::Int(1_000)));
    assert_eq!(total(&d, s), 640 - 10 + 1_000);
    d.shutdown();
}

/// Counts like [`CountTask`], after holding its SE instance's in-flight
/// count raised for a few microseconds; the highest count seen on any
/// instance lands in `most`.
struct InFlight {
    running: Arc<[AtomicUsize; 2]>,
    most: Arc<AtomicUsize>,
}

impl NativeTask for InFlight {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let running = &self.running[ctx.replica() as usize];
        self.most
            .fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        let until = Instant::now() + Duration::from_micros(20);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        running.fetch_sub(1, Ordering::SeqCst);
        CountTask.process(input, ctx)
    }
}

/// Two entry TEs on one partitioned SE, each fed from a thread of its
/// own on a four-thread pool: the SE instance's actor steps one of them
/// at a time, so their items never overlap on one instance.
#[test]
fn two_tes_on_one_se_instance_never_overlap() {
    let mut b = SdgBuilder::new();
    let s = b.add_state(
        "s",
        StateType::Table,
        Distribution::Partitioned {
            dim: PartitionDim::Row,
        },
    );
    let running = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let most = Arc::new(AtomicUsize::new(0));
    for name in ["left", "right"] {
        let code = Arc::new(InFlight {
            running: Arc::clone(&running),
            most: Arc::clone(&most),
        });
        b.add_task(
            name,
            TaskKind::Entry {
                method: name.into(),
            },
            TaskCode::Native(code),
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::Partitioned {
                    key: "k".into(),
                    dim: PartitionDim::Row,
                },
                writes: true,
            }),
        );
    }
    let mut cfg = RuntimeConfig::builder()
        .sched_threads(4)
        .se_instances(s, 2)
        .build();
    cfg.supervisor.enabled = false;
    let d = Deployment::start(b.build().unwrap(), cfg).unwrap();
    let per_entry = 4_000i64;
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for entry in ["left", "right"] {
            let (d, start) = (&d, &start);
            scope.spawn(move || {
                let mut lane = d.ingest_handle().unwrap();
                start.wait();
                for n in 0..per_entry {
                    lane.submit(entry, record! {"k" => Value::Int(n % 64)})
                        .unwrap();
                }
            });
        }
    });
    assert!(d.quiesce(Duration::from_secs(30)));
    assert_eq!(total(&d, s), 2 * per_entry);
    assert_eq!(most.load(Ordering::SeqCst), 1, "two TEs overlapped");
    d.shutdown();
}
