//! End-to-end engine tests: translated programs running on the simulated
//! cluster, with failure injection, recovery and scaling.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use sdg_common::error::SdgResult;
use sdg_common::ids::StateId;
use sdg_common::obs::EventKind;
use sdg_common::record;
use sdg_common::value::{Key, Record, Value};
use sdg_graph::model::{
    AccessMode, Dispatch, Distribution, NativeTask, SdgBuilder, StateAccessEdge, TaskCode,
    TaskContext, TaskKind,
};
use sdg_ir::parser::parse_program;
use sdg_runtime::config::{RuntimeConfig, ScalingConfig};
use sdg_runtime::deploy::Deployment;
use sdg_runtime::fault::{FaultPlan, Health};
use sdg_runtime::reconfig::ReconfigRequest;
use sdg_state::partition::PartitionDim;
use sdg_state::store::StateType;
use sdg_translate::translate;

/// Instruments-backed instance count of `task` (0 when absent).
fn task_instances(d: &Deployment, task: sdg_common::ids::TaskId) -> usize {
    d.metrics()
        .task_by_id(task)
        .map_or(0, |t| t.instances as usize)
}

/// Instruments-backed SE instance count of `state`.
fn state_instances(d: &Deployment, state: StateId) -> usize {
    d.metrics()
        .state_by_id(state)
        .map_or(0, |s| s.instances as usize)
}

const CF_SRC: &str = r#"
    @Partitioned Matrix userItem;
    @Partial Matrix coOcc;

    void addRating(int user, int item, int rating) {
        userItem.set(user, item, rating);
        let userRow = userItem.row(user);
        foreach (p : userRow) {
            if (p[1] > 0) {
                coOcc.add(item, p[0], 1.0);
                coOcc.add(p[0], item, 1.0);
            }
        }
    }

    Vector getRec(int user) {
        let userRow = userItem.row(user);
        @Partial let userRec = @Global coOcc.multiply(userRow);
        let rec = merge(@Collection userRec);
        emit rec;
    }

    Vector merge(@Collection Vector allRec) {
        let out = [];
        foreach (cur : allRec) { out = pairs_add(out, cur); }
        return out;
    }
"#;

const KV_SRC: &str = r#"
    @Partitioned Table kv;
    void bump(int k) { kv.inc(k, 1); }
    int read(int k) { let v = kv.get(k); emit v; }
"#;

fn deploy_cf(partials: usize, partitions: usize) -> (Deployment, StateId, StateId) {
    let prog = parse_program(CF_SRC).unwrap();
    let sdg = translate(&prog).unwrap();
    let user_item = sdg.state_by_name("userItem").unwrap().id;
    let co_occ = sdg.state_by_name("coOcc").unwrap().id;
    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(user_item, partitions);
    cfg.se_instances.insert(co_occ, partials);
    let d = Deployment::start(sdg, cfg).unwrap();
    (d, user_item, co_occ)
}

/// Reference implementation of the CF model.
#[derive(Default)]
struct CfModel {
    user_item: HashMap<(i64, i64), f64>,
    co_occ: HashMap<(i64, i64), f64>,
}

impl CfModel {
    fn add_rating(&mut self, user: i64, item: i64, rating: i64) {
        self.user_item.insert((user, item), rating as f64);
        let row: Vec<(i64, f64)> = self
            .user_item
            .iter()
            .filter(|((u, _), _)| *u == user)
            .map(|((_, i), v)| (*i, *v))
            .collect();
        for (i, v) in row {
            if v > 0.0 {
                *self.co_occ.entry((item, i)).or_default() += 1.0;
                *self.co_occ.entry((i, item)).or_default() += 1.0;
            }
        }
    }

    fn recommend(&self, user: i64) -> HashMap<i64, f64> {
        let mut rec = HashMap::new();
        for ((r, c), v) in &self.co_occ {
            if let Some(x) = self.user_item.get(&(user, *c)) {
                *rec.entry(*r).or_default() += v * x;
            }
        }
        rec.retain(|_, v: &mut f64| *v != 0.0);
        rec
    }
}

fn pairs_of(value: &Value) -> HashMap<i64, f64> {
    value
        .pairs()
        .unwrap()
        .iter()
        .copied()
        .filter(|(_, v)| *v != 0.0)
        .collect()
}

#[test]
fn collaborative_filtering_end_to_end() {
    let (d, _ui, _co) = deploy_cf(2, 2);
    let mut model = CfModel::default();

    let ratings = [
        (1, 10, 5),
        (1, 11, 3),
        (2, 10, 4),
        (2, 12, 2),
        (3, 11, 1),
        (1, 12, 4),
        (3, 10, 5),
    ];
    for (u, i, r) in ratings {
        model.add_rating(u, i, r);
        d.submit(
            "addRating",
            record! {"user" => Value::Int(u), "item" => Value::Int(i), "rating" => Value::Int(r)},
        )
        .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)), "ratings must drain");

    for user in [1i64, 2, 3] {
        d.submit("getRec", record! {"user" => Value::Int(user)})
            .unwrap();
        let event = d
            .outputs()
            .recv_timeout(Duration::from_secs(10))
            .expect("recommendation");
        let got = pairs_of(&event.value);
        let expected = model.recommend(user);
        assert_eq!(got, expected, "user {user}");
        assert!(event.latency.is_some());
    }
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

#[test]
fn cf_partial_instances_sum_to_global_counts() {
    let (d, _ui, co_occ) = deploy_cf(3, 2);
    for n in 0..30i64 {
        let (u, i) = (n % 5, 10 + n % 3);
        d.submit(
            "addRating",
            record! {"user" => Value::Int(u), "item" => Value::Int(i), "rating" => Value::Int(1)},
        )
        .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));

    // The partial instances were updated independently; their element-wise
    // sum must match a single-instance run.
    let (d1, _, co1) = deploy_cf(1, 1);
    for n in 0..30i64 {
        let (u, i) = (n % 5, 10 + n % 3);
        d1.submit(
            "addRating",
            record! {"user" => Value::Int(u), "item" => Value::Int(i), "rating" => Value::Int(1)},
        )
        .unwrap();
    }
    assert!(d1.quiesce(Duration::from_secs(10)));

    let mut summed: HashMap<(i64, i64), f64> = HashMap::new();
    for replica in 0..state_instances(&d, co_occ) {
        d.with_state(co_occ, replica as u32, |s| {
            let m = s.as_matrix().unwrap();
            for r in m.row_indices() {
                for (c, v) in m.row(r) {
                    *summed.entry((r, c)).or_default() += v;
                }
            }
        })
        .unwrap();
    }
    let mut reference: HashMap<(i64, i64), f64> = HashMap::new();
    d1.with_state(co1, 0, |s| {
        let m = s.as_matrix().unwrap();
        for r in m.row_indices() {
            for (c, v) in m.row(r) {
                reference.insert((r, c), v);
            }
        }
    })
    .unwrap();
    assert_eq!(summed, reference);
    d.shutdown();
    d1.shutdown();
}

/// A scale re-places CF's row-partitioned `userItem` cell by cell: every
/// cell survives a scale-out and a scale-in, and each row sits on replica
/// `hash(row) % n`, where the dispatchers route its user.
#[test]
fn cf_partitioned_matrix_keeps_every_cell_across_a_scale_cycle() {
    let sdg = translate(&parse_program(CF_SRC).unwrap()).unwrap();
    let user_item = sdg.state_by_name("userItem").unwrap().id;
    let task = sdg.tasks_accessing(user_item)[0].id;
    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(user_item, 2);
    let d = Deployment::start(sdg, cfg).unwrap();
    let mut model = CfModel::default();
    for n in 0..60i64 {
        let (u, i, r) = (n % 12, 10 + n % 7, 1 + n % 3);
        model.add_rating(u, i, r);
        d.submit(
            "addRating",
            record! {"user" => Value::Int(u), "item" => Value::Int(i), "rating" => Value::Int(r)},
        )
        .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));

    for (request, n) in [
        (ReconfigRequest::ScaleOut { task }, 3u64),
        (ReconfigRequest::ScaleIn { task }, 2),
    ] {
        let report = d.reconfigure(request).unwrap();
        assert_eq!(report.se_instances as u64, n);
        assert!(report.moved_bytes > 0, "{request:?} moved rows");
        let mut cells = HashMap::new();
        for replica in 0..n {
            d.with_state(user_item, replica as u32, |s| {
                let m = s.as_matrix().unwrap();
                for row in m.row_indices() {
                    assert_eq!(Key::Int(row).stable_hash() % n, replica, "row {row}");
                    for (col, v) in m.row(row) {
                        cells.insert((row, col), v);
                    }
                }
            })
            .unwrap();
        }
        assert_eq!(cells, model.user_item, "after {request:?}");
    }

    d.submit("getRec", record! {"user" => Value::Int(1)})
        .unwrap();
    let event = d.outputs().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(pairs_of(&event.value), model.recommend(1));
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

fn deploy_kv(partitions: usize, ft: bool) -> (Deployment, StateId) {
    let prog = parse_program(KV_SRC).unwrap();
    let sdg = translate(&prog).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(kv, partitions);
    if ft {
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
    }
    (Deployment::start(sdg, cfg).unwrap(), kv)
}

fn total_count(d: &Deployment, kv: StateId) -> i64 {
    let mut total = 0;
    for replica in 0..state_instances(d, kv) {
        d.with_state(kv, replica as u32, |s| {
            s.as_table().unwrap().for_each(|_, v| {
                total += v.as_int().unwrap();
            });
        })
        .unwrap();
    }
    total
}

#[test]
fn kv_counts_are_exact_across_partitions() {
    let (d, kv) = deploy_kv(3, false);
    for n in 0..500i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 50)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 500);

    // Each partition holds only its own keys.
    for replica in 0..3u32 {
        d.with_state(kv, replica, |s| {
            s.as_table().unwrap().for_each(|k, _| {
                assert_eq!((k.stable_hash() % 3) as u32, replica);
            });
        })
        .unwrap();
    }

    // Reads see the counts.
    d.submit("read", record! {"k" => Value::Int(0)}).unwrap();
    let event = d.outputs().recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(event.value, Value::Int(10));
    d.shutdown();
}

/// Concurrent callers of the shared `Deployment::submit` lane must deliver
/// its timestamps in the order they were ticked: a reordered pair panics
/// the upstream buffer's monotonicity check (checkpointing on) or loses the
/// older item to the dedupe filter (checkpointing off).
#[test]
fn concurrent_shared_lane_submits_are_all_applied() {
    for checkpointing in [true, false] {
        let (d, kv) = deploy_kv(2, checkpointing);
        let start = std::sync::Barrier::new(4);
        let panicked = std::thread::scope(|s| {
            let feeders: Vec<_> = (0..4i64)
                .map(|t| {
                    let (d, start) = (&d, &start);
                    s.spawn(move || {
                        start.wait();
                        for k in t * 2000..(t + 1) * 2000 {
                            d.submit("bump", record! {"k" => Value::Int(k)}).unwrap();
                        }
                    })
                })
                .collect();
            feeders
                .into_iter()
                .map(|h| h.join())
                .filter(Result::is_err)
                .count()
        });
        assert_eq!(panicked, 0, "checkpointing {checkpointing}");
        assert!(d.quiesce(Duration::from_secs(30)));
        let keys: usize = (0..2)
            .map(|r| {
                d.with_state(kv, r, |s| s.as_table().unwrap().len())
                    .unwrap()
            })
            .sum();
        assert_eq!(keys, 8000, "checkpointing {checkpointing}");
        assert_eq!(total_count(&d, kv), 8000, "checkpointing {checkpointing}");
        d.shutdown();
    }
}

#[test]
fn failure_recovery_preserves_exactly_once_counts() {
    let (d, kv) = deploy_kv(2, true);
    for n in 0..400i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 20)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();

    // More increments after the checkpoint: these live only in upstream
    // buffers and the soon-to-be-lost state.
    for n in 0..200i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 20)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 600);

    // Fail partition 0 and recover it: checkpoint + replay must restore the
    // exact counts (duplicates filtered, nothing lost).
    let report = d
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: kv,
            replica: 0,
        })
        .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(
        total_count(&d, kv),
        600,
        "recovery lost or duplicated updates"
    );
    assert!(
        report.replayed > 0,
        "post-checkpoint items must be replayed"
    );

    // The deployment keeps processing normally afterwards.
    for n in 0..100i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 20)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 700);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

/// The shipped checkpoint configuration takes deltas: after a base, a take
/// that follows a one-key rewrite writes only that key's chunk, and
/// recovery from the base + delta chain is exactly-once.
#[test]
fn default_configuration_takes_deltas_and_recovers_from_the_chain() {
    let prog = parse_program(KV_SRC).unwrap();
    let sdg = translate(&prog).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let mut cfg = RuntimeConfig::default();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
    let d = Deployment::start(sdg, cfg).unwrap();

    for k in 0..300i64 {
        d.submit("bump", record! {"k" => Value::Int(k)}).unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    let base = d.metrics().checkpoints;
    assert_eq!(
        (base.taken, base.deltas),
        (1, 0),
        "the first take is a base"
    );

    d.submit("bump", record! {"k" => Value::Int(7)}).unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    let after = d.metrics().checkpoints;
    assert_eq!(
        (after.taken, after.deltas),
        (2, 1),
        "the second take is a delta"
    );
    // 300 keys fill every chunk of the default space, so a generation that
    // rewrote every chunk would weigh as much as the base.
    let delta_bytes = after.bytes - base.bytes;
    assert!(
        delta_bytes * 2 < base.bytes,
        "delta wrote {delta_bytes} B against a {} B base",
        base.bytes
    );

    for n in 0..100i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 30)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 401);
    let report = d
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: kv,
            replica: 0,
        })
        .unwrap();
    // Replay starts past the cut's frontier: exactly the post-delta items.
    assert_eq!(report.replayed, 100, "post-delta items must replay");
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 401, "no loss, no duplication");
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

/// Recovery replays each lane past the restored cut's frontier, not past
/// the stripes' minimum: with the stripe hash correlated with the
/// partition hash, half of a replica's stripes never see a key, so the
/// minimum reads 0 and would re-send everything since deploy. The shared
/// lane and two private ingest lanes carry the bumps; one private lane
/// starts only after the checkpoint.
#[test]
fn recovery_replays_only_the_items_after_the_checkpoint() {
    const PRELOAD: i64 = 400;
    const AFTER: i64 = 300;
    let (d, kv) = deploy_kv(2, true);
    let table = |replica: u32| {
        let mut rows = Vec::new();
        d.with_state(kv, replica, |s| {
            s.as_table()
                .unwrap()
                .for_each(|k, v| rows.push((k.clone(), v.clone())));
        })
        .unwrap();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    };
    let mut lanes = [d.ingest_handle().unwrap(), d.ingest_handle().unwrap()];
    let mut bump = |k: i64, lane: i64| {
        let payload = record! {"k" => Value::Int(k)};
        match lane {
            0 => d.submit("bump", payload),
            n => lanes[n as usize - 1].submit("bump", payload),
        }
        .unwrap();
    };
    for k in 0..PRELOAD {
        bump(k, k % 2);
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    // Bump most keys again: a bump applied twice would read one too high.
    for k in 0..AFTER {
        bump(k, k % 3);
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    let before = (table(0), table(1));
    let on_replica_0 = (0..AFTER)
        .filter(|&k| Key::Int(k).stable_hash().is_multiple_of(2))
        .count();

    let report = d
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: kv,
            replica: 0,
        })
        .unwrap();
    assert_eq!(report.replayed, on_replica_0);
    assert!(d.quiesce(Duration::from_secs(30)));
    assert_eq!((table(0), table(1)), before, "recovery is exactly-once");
    assert_eq!(total_count(&d, kv), PRELOAD + AFTER);
    d.shutdown();
}

/// Checkpoints come from the control thread's interval and from
/// `ReconfigRequest::Checkpoint` alike, and `with_state` re-splits a
/// striped cell's stores: each must wait for the other instead of failing
/// it with "consolidate without begin_checkpoint" or "checkpoint already in
/// progress".
#[test]
fn concurrent_checkpoints_and_with_state_do_not_fail_each_other() {
    const KEYS: i64 = 10_000;
    const ROUNDS: usize = 30;
    let (d, kv) = deploy_kv(2, true);
    for replica in 0..2u32 {
        d.with_state(kv, replica, |s| {
            let table = s.as_table().unwrap();
            for k in 0..KEYS {
                let key = Key::Int(k);
                if (key.stable_hash() % 2) as u32 == replica {
                    table.put(key, Value::Int(1));
                }
            }
        })
        .unwrap();
    }
    let checkpoints = || -> Vec<String> {
        (0..ROUNDS)
            .filter_map(|_| d.reconfigure(ReconfigRequest::Checkpoint).err())
            .map(|e| e.to_string())
            .collect()
    };

    // One thread reads through `with_state` while another checkpoints.
    // The sequencer serves them in arrival order, so the reader gets about
    // one turn per checkpoint instead of starving the checkpoints.
    let reading = AtomicBool::new(true);
    let start = Barrier::new(2);
    let (failed, reads) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            start.wait();
            let mut reads = 0usize;
            while reading.load(Ordering::Acquire) {
                d.with_state(kv, 0, |s| s.as_table().unwrap().len())
                    .unwrap();
                reads += 1;
            }
            reads
        });
        start.wait();
        let failed = checkpoints();
        reading.store(false, Ordering::Release);
        (failed, reader.join().unwrap())
    });
    assert!(
        failed.is_empty(),
        "{} of {ROUNDS} checkpoints failed against with_state: {:?}",
        failed.len(),
        failed.first()
    );
    assert!(
        reads < 10 * ROUNDS,
        "{reads} with_state calls ran while {ROUNDS} checkpoints waited"
    );

    // Two threads checkpoint at once.
    let start = Barrier::new(2);
    let failed = std::thread::scope(|s| {
        let other = s.spawn(|| {
            start.wait();
            checkpoints()
        });
        start.wait();
        let mut failed = checkpoints();
        failed.extend(other.join().unwrap());
        failed
    });
    assert!(
        failed.is_empty(),
        "{} of {} concurrent checkpoints failed: {:?}",
        failed.len(),
        2 * ROUNDS,
        failed.first()
    );
    assert_eq!(total_count(&d, kv), KEYS);
    d.shutdown();
}

/// A scale-in issued while a checkpoint is mid-take waits for the take to
/// finish instead of migrating state under it: the checkpoint succeeds,
/// and no generation cut before the migration survives it. Recovery before
/// the next take is either refused or exact, never a restore of the old
/// key ownership.
#[test]
fn scale_in_waits_for_a_checkpoint_in_progress() {
    let prog = parse_program(KV_SRC).unwrap();
    let sdg = translate(&prog).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let bump = sdg.task_by_name("bump_0").unwrap().id;
    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(kv, 2);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
                                                         // Throttled backup writes stretch one take to a few hundred ms.
    cfg.checkpoint.disk_write_bps = Some(10_000);
    let d = Deployment::start(sdg, cfg).unwrap();
    for k in 0..2000i64 {
        d.submit("bump", record! {"k" => Value::Int(k)}).unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));

    let began = || {
        d.events().iter().any(|e| {
            matches!(&e.kind, EventKind::CheckpointBegin { instance, .. } if instance == "kv#0")
        })
    };
    let checkpoint = std::thread::scope(|s| {
        let taker = s.spawn(|| d.reconfigure(ReconfigRequest::Checkpoint));
        while !began() {
            std::thread::sleep(Duration::from_millis(1));
        }
        d.reconfigure(ReconfigRequest::ScaleIn { task: bump })
            .unwrap();
        taker.join().unwrap()
    });
    assert!(checkpoint.is_ok(), "checkpoint failed: {checkpoint:?}");
    assert_eq!(state_instances(&d, kv), 1);

    let image = || {
        let mut entries = d
            .with_state(kv, 0, |s| {
                s.export_entries()
                    .into_iter()
                    .map(|e| (e.key, e.value))
                    .collect::<Vec<_>>()
            })
            .unwrap();
        entries.sort();
        entries
    };
    let before = image();
    assert_eq!(before.len(), 2000);
    let fail = ReconfigRequest::FailAndRecover {
        state: kv,
        replica: 0,
    };
    match d.reconfigure(fail) {
        Err(e) => assert!(e.to_string().contains("no checkpoint recorded"), "{e}"),
        Ok(_) => {
            assert!(d.quiesce(Duration::from_secs(30)));
            assert_eq!(image(), before, "recovery restored a pre-migration cut");
        }
    }
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    d.reconfigure(fail).unwrap();
    assert!(d.quiesce(Duration::from_secs(30)));
    assert_eq!(image(), before);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

#[test]
fn recovery_without_checkpoint_is_an_error() {
    let (d, kv) = deploy_kv(2, false);
    assert!(d
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: kv,
            replica: 0,
        })
        .is_err());
    d.shutdown();
}

#[test]
fn partitioned_scale_out_preserves_and_repartitions_state() {
    let (d, kv) = deploy_kv(2, false);
    let prog_task = {
        // Find the bump task id for scaling.
        let mut id = None;
        for n in 0..300i64 {
            d.submit("bump", record! {"k" => Value::Int(n % 30)})
                .unwrap();
            id = Some(());
        }
        let _ = id;
        assert!(d.quiesce(Duration::from_secs(10)));
        // The entry task of bump is "bump_0".
        d
    };
    let d = prog_task;
    assert_eq!(total_count(&d, kv), 300);

    // Scale from 2 to 3 partitions via the accessing task.
    let sdg_task = {
        // bump_0 is task 0 or 1 depending on entry order; find by state.
        let snap = d.metrics();
        let mut found = None;
        for raw in 0..4u32 {
            if let Some(t) = snap.task_by_id(sdg_common::ids::TaskId(raw)) {
                if t.instances == 2 && found.is_none() {
                    found = Some(sdg_common::ids::TaskId(raw));
                }
            }
        }
        found.expect("a 2-instance task exists")
    };
    d.reconfigure(ReconfigRequest::ScaleOut { task: sdg_task })
        .unwrap();
    assert_eq!(state_instances(&d, kv), 3);
    assert_eq!(
        total_count(&d, kv),
        300,
        "repartitioning must preserve state"
    );

    // Every instance now holds exactly its third of the key space.
    for replica in 0..3u32 {
        d.with_state(kv, replica, |s| {
            s.as_table().unwrap().for_each(|k, _| {
                assert_eq!((k.stable_hash() % 3) as u32, replica);
            });
        })
        .unwrap();
    }

    // New traffic routes to the right partitions.
    for n in 0..300i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 30)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 600);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

#[test]
fn partial_scale_out_adds_empty_instance() {
    let (d, _ui, co_occ) = deploy_cf(2, 1);
    for n in 0..20i64 {
        d.submit(
            "addRating",
            record! {"user" => Value::Int(n % 4), "item" => Value::Int(n % 6), "rating" => Value::Int(1)},
        )
        .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));

    // Scale the partial group through one of its accessing tasks.
    let snap = d.metrics();
    let task = snap
        .events
        .iter()
        .find_map(|e| match &e.kind {
            sdg_common::obs::EventKind::ScaleOut { task, .. } => snap.task(task).and_then(|t| t.id),
            _ => None,
        })
        .unwrap_or_else(|| {
            // Find a task accessing coOcc: addRating_1 exists with 2
            // instances.
            snap.tasks
                .iter()
                .find(|t| t.instances == 2)
                .and_then(|t| t.id)
                .expect("partial task")
        });
    d.reconfigure(ReconfigRequest::ScaleOut { task }).unwrap();
    assert_eq!(state_instances(&d, co_occ), 3);

    // The new instance starts empty and fills with new traffic.
    for n in 0..20i64 {
        d.submit(
            "addRating",
            record! {"user" => Value::Int(n % 4), "item" => Value::Int(n % 6), "rating" => Value::Int(1)},
        )
        .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));

    // getRec still returns the correct global answer after scaling.
    let mut model = CfModel::default();
    for n in 0..20i64 {
        model.add_rating(n % 4, n % 6, 1);
    }
    for n in 0..20i64 {
        model.add_rating(n % 4, n % 6, 1);
    }
    d.submit("getRec", record! {"user" => Value::Int(1)})
        .unwrap();
    let event = d.outputs().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(pairs_of(&event.value), model.recommend(1));
    d.shutdown();
}

#[test]
fn partitioned_scale_in_merges_shards_into_survivors() {
    let (d, kv) = deploy_kv(3, false);
    for n in 0..300i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 30)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 300);

    // Find a 3-instance task accessing kv and remove one instance.
    let snap = d.metrics();
    let task = snap
        .tasks
        .iter()
        .find(|t| t.instances == 3)
        .and_then(|t| t.id)
        .expect("a 3-instance task exists");
    let report = d.reconfigure(ReconfigRequest::ScaleIn { task }).unwrap();
    assert_eq!(state_instances(&d, kv), 2);
    assert_eq!(report.se_instances, 2);
    assert!(
        report.moved_bytes > 0,
        "the victim shard must move into the survivors"
    );
    assert_eq!(
        total_count(&d, kv),
        300,
        "live migration must preserve state"
    );

    // Every survivor now holds exactly its half of the key space.
    for replica in 0..2u32 {
        d.with_state(kv, replica, |s| {
            s.as_table().unwrap().for_each(|k, _| {
                assert_eq!((k.stable_hash() % 2) as u32, replica);
            });
        })
        .unwrap();
    }

    // New traffic routes to the surviving partitions.
    for n in 0..300i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 30)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 600);
    assert_eq!(d.stats().scale_ins, 1);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

#[test]
fn partitioned_scale_in_to_one_then_refuses_further() {
    let (d, kv) = deploy_kv(2, false);
    for n in 0..100i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 10)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    let snap = d.metrics();
    let task = snap
        .tasks
        .iter()
        .find(|t| t.instances == 2)
        .and_then(|t| t.id)
        .expect("a 2-instance task exists");
    d.reconfigure(ReconfigRequest::ScaleIn { task }).unwrap();
    assert_eq!(state_instances(&d, kv), 1);
    assert_eq!(total_count(&d, kv), 100);
    let err = d
        .reconfigure(ReconfigRequest::ScaleIn { task })
        .unwrap_err();
    assert!(
        err.to_string().contains("already at one partition"),
        "unexpected error: {err}"
    );
    d.shutdown();
}

#[test]
fn partial_scale_in_preserves_the_elementwise_sum() {
    let (d, _ui, co_occ) = deploy_cf(3, 2);
    for n in 0..30i64 {
        let (u, i) = (n % 5, 10 + n % 3);
        d.submit(
            "addRating",
            record! {"user" => Value::Int(u), "item" => Value::Int(i), "rating" => Value::Int(1)},
        )
        .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));

    let sum_of = |d: &Deployment| {
        let mut summed: HashMap<(i64, i64), f64> = HashMap::new();
        for replica in 0..state_instances(d, co_occ) {
            d.with_state(co_occ, replica as u32, |s| {
                let m = s.as_matrix().unwrap();
                for r in m.row_indices() {
                    for (c, v) in m.row(r) {
                        *summed.entry((r, c)).or_default() += v;
                    }
                }
            })
            .unwrap();
        }
        summed
    };
    let before = sum_of(&d);

    // Fold the newest partial replica into a survivor.
    let snap = d.metrics();
    let task = snap
        .tasks
        .iter()
        .find(|t| t.instances == 3)
        .and_then(|t| t.id)
        .expect("a 3-instance task exists");
    d.reconfigure(ReconfigRequest::ScaleIn { task }).unwrap();
    assert_eq!(state_instances(&d, co_occ), 2);
    assert_eq!(
        sum_of(&d),
        before,
        "the fold must preserve the element-wise sum"
    );

    // getRec still computes the correct global answer afterwards.
    let mut model = CfModel::default();
    for n in 0..30i64 {
        model.add_rating(n % 5, 10 + n % 3, 1);
    }
    d.submit("getRec", record! {"user" => Value::Int(1)})
        .unwrap();
    let event = d.outputs().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(pairs_of(&event.value), model.recommend(1));
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

/// The task of a 2-partition KV deployment that accesses `kv` (`bump_0`).
fn bump_task(d: &Deployment) -> sdg_common::ids::TaskId {
    d.metrics()
        .tasks
        .iter()
        .find(|t| t.name == "bump_0")
        .and_then(|t| t.id)
        .expect("bump_0 is deployed")
}

/// Polls until the supervisor has finished a recovery and health settled
/// back to `Healthy` (or degraded for good).
fn await_supervisor(d: &Deployment) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        let snap = d.metrics();
        if snap.recovery.succeeded >= 1 && d.health() == Health::Healthy {
            return;
        }
        if d.health() == Health::Degraded {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no recovery: {:?} {:?}", d.health(), d.metrics().recovery);
}

#[test]
fn recovery_right_after_a_scale_is_exact() {
    // Base + delta checkpoints, then a repartition in each direction, each
    // followed at once by a recovery: the scale's own base takes make the
    // chains match the new key ownership.
    let (d, kv) = deploy_kv(2, true);
    for n in 0..200i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 20)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap(); // Base.
    for n in 0..100i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 5)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap(); // Delta.

    // Repartition 2 -> 3 and recover at once: no take in between.
    let task = bump_task(&d);
    d.reconfigure(ReconfigRequest::ScaleOut { task }).unwrap();
    d.reconfigure(ReconfigRequest::FailAndRecover {
        state: kv,
        replica: 0,
    })
    .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 300, "no loss, no duplication");

    // Later traffic and takes compose with the scale's chains.
    for n in 0..100i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 20)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    d.reconfigure(ReconfigRequest::FailAndRecover {
        state: kv,
        replica: 0,
    })
    .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 400, "no loss, no duplication");

    // Same guarantee across a scale-in boundary: checkpoint, shrink 3 -> 2,
    // recover a survivor at once, then again after a take.
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    d.reconfigure(ReconfigRequest::ScaleIn { task }).unwrap();
    d.reconfigure(ReconfigRequest::FailAndRecover {
        state: kv,
        replica: 1,
    })
    .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 400);
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    d.reconfigure(ReconfigRequest::FailAndRecover {
        state: kv,
        replica: 1,
    })
    .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 400);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

/// The replica a scale-out just added fails before any interval take: the
/// supervisor recovers it from the base the scale took.
#[test]
fn recovery_right_after_a_scale_out_is_exact() {
    let prog = parse_program(KV_SRC).unwrap();
    let sdg = translate(&prog).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let mut cfg = RuntimeConfig::builder()
        .faults(FaultPlan::seeded(1).with_worker_panic("bump_0", 2, 5))
        .build();
    cfg.se_instances.insert(kv, 2);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600);
    let d = Deployment::start(sdg, cfg).unwrap();

    for n in 0..300i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 30)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    d.reconfigure(ReconfigRequest::ScaleOut {
        task: bump_task(&d),
    })
    .unwrap();
    for n in 0..300i64 {
        // A send to the dead replica fails after the item was logged
        // upstream; replay delivers it, so a retry would double-apply it.
        let _ = d.submit("bump", record! {"k" => Value::Int(n % 30)});
    }
    await_supervisor(&d);
    assert!(d.quiesce(Duration::from_secs(10)));
    assert!(d.metrics().faults.worker_panics >= 1, "the fault fired");
    assert_eq!(d.health(), Health::Healthy);
    assert_eq!(total_count(&d, kv), 600, "no loss, no duplication");
    d.shutdown();
}

/// A scale-in issued while an instance of the task is dead is refused
/// until the instance has been recovered; otherwise it would merge the
/// dead replica's state and leave its lost items behind.
#[test]
fn scale_in_waits_for_a_failed_instance_to_be_recovered() {
    let prog = parse_program(KV_SRC).unwrap();
    let sdg = translate(&prog).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let mut cfg = RuntimeConfig::builder()
        .faults(FaultPlan::seeded(1).with_worker_panic("bump_0", 1, 20))
        .build();
    cfg.se_instances.insert(kv, 2);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600);
    cfg.supervisor.enabled = false;
    let d = Deployment::start(sdg, cfg).unwrap();
    let task = bump_task(&d);

    for n in 0..400i64 {
        let _ = d.submit("bump", record! {"k" => Value::Int(n % 20)});
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(d.metrics().faults.worker_panics, 1, "the fault fired");
    let refused = d
        .reconfigure(ReconfigRequest::ScaleIn { task })
        .expect_err("a scale over a dead instance");
    assert!(refused.to_string().contains("awaits recovery"), "{refused}");
    assert_eq!(state_instances(&d, kv), 2, "nothing moved");

    d.reconfigure(ReconfigRequest::FailAndRecover {
        state: kv,
        replica: 1,
    })
    .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 400);
    d.reconfigure(ReconfigRequest::ScaleIn { task }).unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(state_instances(&d, kv), 1);
    assert_eq!(total_count(&d, kv), 400);
    d.shutdown();
}

#[test]
fn reactive_scaling_reacts_to_bottlenecks() {
    // A stateless pipeline with an expensive stage and a tiny channel: the
    // monitor must add instances.
    let prog = parse_program("void work(int x) { emit x * 2; }").unwrap();
    let sdg = translate(&prog).unwrap();
    let task = sdg.task_by_name("work_0").unwrap().id;
    let mut cfg = RuntimeConfig {
        channel_capacity: 8,
        scaling: ScalingConfig {
            enabled: true,
            check_interval: Duration::from_millis(20),
            high_watermark: 0.5,
            patience: 2,
            max_instances: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    cfg.work_ns.insert(task, 3_000_000); // 3 ms per item.
    let d = Deployment::start(sdg, cfg).unwrap();
    for n in 0..400i64 {
        d.submit("work", record! {"x" => Value::Int(n)}).unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    assert!(
        task_instances(&d, task) > 1,
        "monitor should have scaled the bottleneck task"
    );
    assert!(d.stats().scale_outs > 0);
    // All items processed despite scaling.
    assert_eq!(d.metrics().task_by_id(task).unwrap().processed, 400);
    d.shutdown();
}

/// A saturated task on `Local` state is not a bottleneck the monitor can
/// relieve: its group can neither grow nor shrink, so the monitor never
/// reports it nor asks for a scale-out that the control plane would refuse.
#[test]
fn monitor_leaves_a_saturated_local_state_group_alone() {
    let prog = parse_program("Table t; void work(int x) { t.inc(x, 1); }").unwrap();
    let sdg = translate(&prog).unwrap();
    let task = sdg.task_by_name("work_0").unwrap().id;
    let mut cfg = RuntimeConfig {
        channel_capacity: 8,
        scaling: ScalingConfig {
            enabled: true,
            check_interval: Duration::from_millis(10),
            patience: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    cfg.work_ns.insert(task, 3_000_000); // 3 ms per item.
    let d = Deployment::start(sdg, cfg).unwrap();
    for n in 0..200i64 {
        d.submit("work", record! {"x" => Value::Int(n)}).unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    let detections = d
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BottleneckDetected { .. }))
        .count();
    assert_eq!(detections, 0, "a Local group cannot grow");
    assert_eq!(d.stats().scale_outs, 0);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

#[test]
fn quiesce_and_shutdown_are_clean_on_idle_deployment() {
    let (d, _kv) = deploy_kv(1, false);
    assert!(d.quiesce(Duration::from_secs(1)));
    assert_eq!(d.stats().processed, 0);
    d.shutdown();
}

/// A scale-out waits for an item stalled inside `handle`: an instance is
/// busy while it holds a pool thread, whatever counter it has or has not
/// raised yet. Exported before the stalled bump applied, the group's
/// merged vector would cover the bump's timestamp, and the re-split cell
/// would drop it as a duplicate.
#[test]
fn scale_out_waits_for_an_item_stalled_mid_handle() {
    let prog = parse_program(KV_SRC).unwrap();
    let sdg = translate(&prog).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let bump = sdg.task_by_name("bump_0").unwrap().id;
    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(kv, 2);
    cfg.faults =
        Some(FaultPlan::seeded(0).with_worker_stall("bump_0", 0, 1, Duration::from_millis(500)));
    let d = Deployment::start(sdg, cfg).unwrap();

    let hash = |k: i64| Key::Int(k).stable_hash();
    // On replica 0 before the scale-out, and off it after.
    let stalled = (0..)
        .find(|&k| hash(k) % 2 == 0 && hash(k) % 3 != 0)
        .unwrap();
    d.submit("bump", record! {"k" => Value::Int(stalled)})
        .unwrap();
    for k in (0..).filter(|&k| hash(k) % 2 == 1).take(20) {
        d.submit("bump", record! {"k" => Value::Int(k)}).unwrap();
    }
    d.reconfigure(ReconfigRequest::ScaleOut { task: bump })
        .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert_eq!(total_count(&d, kv), 21, "the stalled bump was lost");
    let stalled_key = Key::Int(stalled);
    for replica in 0..3u32 {
        let held = d
            .with_state(kv, replica, |s| {
                s.as_table().unwrap().get(&stalled_key).is_some()
            })
            .unwrap();
        assert_eq!(
            held,
            hash(stalled) % 3 == replica as u64,
            "replica {replica}"
        );
    }
    d.shutdown();
}

/// Holds its item inside `process` from the first barrier to the second,
/// then forwards it.
struct Gate {
    entered: Arc<Barrier>,
    release: Arc<Barrier>,
}

impl NativeTask for Gate {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        self.entered.wait();
        self.release.wait();
        ctx.forward(input.clone());
        Ok(())
    }
}

/// Counts items in its table under the record's `k`.
struct Count;

impl NativeTask for Count {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let key = input.require("k")?.to_key()?;
        let table = ctx.state().expect("stateful").as_table()?;
        table.update(key, |v| {
            Value::Int(v.map(|x| x.as_int().unwrap_or(0)).unwrap_or(0) + 1)
        });
        Ok(())
    }
}

/// A scale-out's drain barrier waits only on the instances of the tasks
/// that access the re-split state. A stateless producer holding the only
/// pool thread mid-item has nothing in their mailboxes, so the barrier
/// must not wait for it.
#[test]
fn scale_out_does_not_wait_for_a_producer_blocked_mid_item() {
    let mut b = SdgBuilder::new();
    let counts = b.add_state(
        "counts",
        StateType::Table,
        Distribution::Partitioned {
            dim: PartitionDim::Row,
        },
    );
    let entered = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let gate = b.add_task(
        "gate",
        TaskKind::Entry {
            method: "feed".into(),
        },
        TaskCode::Native(Arc::new(Gate {
            entered: Arc::clone(&entered),
            release: Arc::clone(&release),
        })),
        None,
    );
    let count = b.add_task(
        "count",
        TaskKind::Compute,
        TaskCode::Native(Arc::new(Count)),
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
        gate,
        count,
        Dispatch::Partitioned { key: "k".into() },
        vec!["k".into()],
    );
    let mut cfg = RuntimeConfig {
        sched_threads: 1,
        ..RuntimeConfig::default()
    };
    cfg.se_instances.insert(counts, 2);
    let d = Deployment::start(b.build().unwrap(), cfg).unwrap();

    d.submit("feed", record! {"k" => Value::Int(7)}).unwrap();
    entered.wait();
    let report = d.reconfigure(ReconfigRequest::ScaleOut { task: count });
    release.wait();
    let report = report.unwrap();
    assert!(
        report.drain < Duration::from_secs(1),
        "drain {:?}",
        report.drain
    );
    assert_eq!(report.se_instances, 3);
    assert!(d.quiesce(Duration::from_secs(10)));
    let replica = (Key::Int(7).stable_hash() % 3) as u32;
    let held = d
        .with_state(counts, replica, |s| s.as_table().unwrap().get(&Key::Int(7)))
        .unwrap();
    assert_eq!(held, Some(Value::Int(1)));
    d.shutdown();
}

/// A task row's counters: items in and out, emits, processed, errors and
/// gather waits.
fn counters(t: &sdg_common::obs::TaskStats) -> [u64; 6] {
    [
        t.items_in,
        t.items_out,
        t.emits,
        t.processed,
        t.errors,
        t.gather_waits,
    ]
}

/// Asserts that no task counter of `after` is below `before`'s.
fn assert_no_counter_went_back(
    before: &sdg_common::obs::MetricsSnapshot,
    after: &sdg_common::obs::MetricsSnapshot,
) {
    for t in &before.tasks {
        let now = after.task(&t.name).expect("a task row never disappears");
        let (was, is) = (counters(t), counters(now));
        assert!(
            was.iter().zip(&is).all(|(a, b)| b >= a),
            "{}: {was:?} -> {is:?}",
            t.name
        );
    }
}

/// Each TE instance writes its own instrument shard with plain stores,
/// so two instances of one task fed at once by four threads must still
/// add up to exactly the items fed.
/// One mailbox per SE instance keeps what one ingest handle submits in
/// order across entries: each `get(k)` submitted right after `put(k, v)`
/// reads `v`, over ten thousand pairs on a four-thread pool.
#[test]
fn a_get_after_a_put_on_one_handle_reads_the_put() {
    let prog = parse_program(
        "@Partitioned Table kv;\n\
         void put(int k, int v) { kv.put(k, v); }\n\
         int get(int k) { let v = kv.get(k); emit v; }",
    )
    .unwrap();
    let sdg = translate(&prog).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let cfg = RuntimeConfig::builder()
        .sched_threads(4)
        .se_instances(kv, 2)
        .build();
    let d = Deployment::start(sdg, cfg).unwrap();
    let pairs = 10_000i64;
    let mut lane = d.ingest_handle().unwrap();
    let mut expect = HashMap::new();
    for v in 0..pairs {
        let k = Value::Int(v % 64);
        lane.submit("put", record! {"k" => k.clone(), "v" => Value::Int(v)})
            .unwrap();
        let corr = lane.submit("get", record! {"k" => k}).unwrap();
        expect.insert(corr, v);
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    let outputs: Vec<_> = std::iter::from_fn(|| d.outputs().try_recv().ok()).collect();
    assert_eq!(outputs.len(), pairs as usize);
    let stale: Vec<_> = (outputs.iter())
        .filter(|e| e.value != Value::Int(expect[&e.corr]))
        .map(|e| (expect[&e.corr], e.value.clone()))
        .collect();
    assert!(
        stale.is_empty(),
        "{} stale reads (put, read): {:?}",
        stale.len(),
        &stale[..stale.len().min(5)]
    );
    d.shutdown();
}

/// Two TEs of one SE instance emit: a `putAck(k)` then a `get(k)` on one
/// handle reach the sink in that order, although `get` is the TE with the
/// lower slot and both run in one slice.
#[test]
fn an_ack_reaches_the_sink_before_the_get_submitted_after_it() {
    let prog = parse_program(
        "@Partitioned Table kv;\n\
         int get(int k) { let v = kv.get(k); emit v; }\n\
         int putAck(int k, int v) { kv.put(k, v); emit k; }",
    )
    .unwrap();
    let sdg = translate(&prog).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let cfg = RuntimeConfig::builder()
        .sched_threads(4)
        .se_instances(kv, 2)
        .build();
    let d = Deployment::start(sdg, cfg).unwrap();
    let pairs = 10_000i64;
    let mut lane = d.ingest_handle().unwrap();
    // The ack each get's output must follow.
    let mut ack_of = HashMap::new();
    for v in 0..pairs {
        let k = Value::Int(v % 64);
        let ack = lane
            .submit("putAck", record! {"k" => k.clone(), "v" => Value::Int(v)})
            .unwrap();
        let get = lane.submit("get", record! {"k" => k}).unwrap();
        ack_of.insert(get, ack);
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    let outputs: Vec<_> = std::iter::from_fn(|| d.outputs().try_recv().ok()).collect();
    assert_eq!(outputs.len(), 2 * pairs as usize);
    let mut acked = HashSet::new();
    let mut early = 0;
    for e in &outputs {
        match ack_of.get(&e.corr) {
            Some(ack) if !acked.contains(ack) => early += 1,
            Some(_) => {}
            None => {
                acked.insert(e.corr);
            }
        }
    }
    assert_eq!(early, 0, "gets that reached the sink before their ack");
    d.shutdown();
}

#[test]
fn instruments_are_exact_with_two_instances_fed_concurrently() {
    let (d, kv) = deploy_kv(2, false);
    let feeders = 4i64;
    let per_feeder = 2_000i64;
    let start = Barrier::new(feeders as usize);
    std::thread::scope(|s| {
        for f in 0..feeders {
            let (d, start) = (&d, &start);
            s.spawn(move || {
                let mut lane = d.ingest_handle().unwrap();
                start.wait();
                for n in 0..per_feeder {
                    lane.submit("bump", record! {"k" => Value::Int(f * per_feeder + n)})
                        .unwrap();
                }
            });
        }
    });
    assert!(d.quiesce(Duration::from_secs(30)));
    let fed = (feeders * per_feeder) as u64;
    assert_eq!(total_count(&d, kv), fed as i64);
    let snap = d.metrics();
    let bump = snap.task_by_id(bump_task(&d)).unwrap();
    assert_eq!(bump.instances, 2);
    assert_eq!(
        (bump.items_in, bump.processed, bump.service.count),
        (fed, fed, fed)
    );
    // Both instances took items: each partition holds keys.
    for replica in 0..2 {
        let keys = d
            .with_state(kv, replica, |s| s.as_table().unwrap().len())
            .unwrap();
        assert!(keys > 0, "replica {replica} got no item");
    }
    d.shutdown();
}

/// An instance that dies (`FailAndRecover`) or is scaled away retires its
/// shard into its task's totals: no task counter goes backwards, and the
/// retired instance's items are still counted.
#[test]
fn instruments_keep_retired_instances_counts_across_recovery_and_scale_in() {
    let (d, kv) = deploy_kv(2, true);
    for n in 0..300i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 30)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    for n in 0..200i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 30)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    let task = bump_task(&d);
    let before = d.metrics();
    assert_eq!(before.task_by_id(task).unwrap().items_in, 500);

    let report = d
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: kv,
            replica: 0,
        })
        .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    assert!(report.replayed > 0);
    let recovered = d.metrics();
    assert_no_counter_went_back(&before, &recovered);
    // The dead instance's 500-item share is kept; the replayed items
    // count again at its replacement.
    let row = recovered.task_by_id(task).unwrap();
    assert_eq!(row.items_in, 500 + report.replayed as u64);
    assert_eq!(row.processed, row.items_in);
    assert_eq!(row.service.count, row.items_in);

    d.reconfigure(ReconfigRequest::ScaleIn { task }).unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    let shrunk = d.metrics();
    assert_eq!(shrunk.task_by_id(task).unwrap().instances, 1);
    assert_no_counter_went_back(&recovered, &shrunk);
    assert_eq!(
        counters(shrunk.task_by_id(task).unwrap()),
        counters(recovered.task_by_id(task).unwrap()),
        "a scale-in processes no item"
    );

    for n in 0..100i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 30)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    let after = d.metrics();
    assert_no_counter_went_back(&shrunk, &after);
    assert_eq!(after.task_by_id(task).unwrap().items_in, row.items_in + 100);
    assert_eq!(total_count(&d, kv), 600);
    d.shutdown();
}

/// `reset_observations` clears the histograms of every instance's shard
/// and keeps every counter; recording resumes from empty.
#[test]
fn instruments_reset_clears_every_shards_histograms_and_keeps_counters() {
    let (d, _kv) = deploy_kv(2, false);
    for n in 0..200i64 {
        d.submit("bump", record! {"k" => Value::Int(n % 40)})
            .unwrap();
        d.submit("read", record! {"k" => Value::Int(n % 40)})
            .unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    let before = d.metrics();
    assert_eq!(before.e2e_latency.count, 200);
    d.reset_observations();
    let reset = d.metrics();
    for t in &reset.tasks {
        assert_eq!(counters(t), counters(before.task(&t.name).unwrap()));
        assert_eq!((t.service.count, t.latency.count), (0, 0), "{}", t.name);
    }
    assert_eq!(reset.e2e_latency.count, 0);

    for n in 0..50i64 {
        d.submit("read", record! {"k" => Value::Int(n)}).unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(10)));
    let after = d.metrics();
    let emitted: u64 = after.tasks.iter().map(|t| t.latency.count).sum();
    assert_eq!((emitted, after.e2e_latency.count), (50, 50));
    d.shutdown();
}
