//! End-to-end engine tests: translated programs running on the simulated
//! cluster, with failure injection, recovery and scaling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use sdg_common::ids::StateId;
use sdg_common::record;
use sdg_common::value::{Key, Value};
use sdg_ir::parser::parse_program;
use sdg_runtime::config::{RuntimeConfig, ScalingConfig};
use sdg_runtime::deploy::Deployment;
use sdg_runtime::reconfig::ReconfigRequest;
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
        .as_list()
        .unwrap()
        .iter()
        .map(|cell| {
            let pair = cell.as_list().unwrap();
            (pair[0].as_int().unwrap(), pair[1].as_float().unwrap())
        })
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

/// Checkpoints come from the interval thread and from
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
    let reading = AtomicBool::new(true);
    let start = Barrier::new(2);
    let failed = std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            while reading.load(Ordering::Acquire) {
                d.with_state(kv, 0, |s| s.as_table().unwrap().len())
                    .unwrap();
            }
        });
        start.wait();
        let failed = checkpoints();
        reading.store(false, Ordering::Release);
        failed
    });
    assert!(
        failed.is_empty(),
        "{} of {ROUNDS} checkpoints failed against with_state: {:?}",
        failed.len(),
        failed.first()
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

#[test]
fn migration_invalidates_checkpoint_chains() {
    // Incremental checkpoints + a repartition in the middle: restore must
    // never compose deltas cut against the old partitioning.
    let prog = parse_program(KV_SRC).unwrap();
    let sdg = translate(&prog).unwrap();
    let kv = sdg.state_by_name("kv").unwrap().id;
    let mut cfg = RuntimeConfig::default();
    cfg.se_instances.insert(kv, 2);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
    cfg.checkpoint.incremental = true;
    cfg.checkpoint.delta_chunks = 64;
    let d = Deployment::start(sdg, cfg).unwrap();

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

    // Repartition 2 -> 3. The old chains describe the old key ownership,
    // so they are dropped...
    let snap = d.metrics();
    let task = snap
        .tasks
        .iter()
        .find(|t| t.instances == 2)
        .and_then(|t| t.id)
        .expect("a 2-instance task exists");
    d.reconfigure(ReconfigRequest::ScaleOut { task }).unwrap();

    // ...which makes recovery in the migration window an explicit error
    // rather than a silently wrong restore.
    assert!(d
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: kv,
            replica: 0,
        })
        .is_err());

    // The next checkpoint re-bases every replica; recovery is exact again.
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
    // checkpoint again, recover a survivor.
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    d.reconfigure(ReconfigRequest::ScaleIn { task }).unwrap();
    assert!(d
        .reconfigure(ReconfigRequest::FailAndRecover {
            state: kv,
            replica: 1,
        })
        .is_err());
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

#[test]
fn monitor_releases_idle_instances() {
    // Scale out under a burst, then watch the monitor shrink the task back
    // once the queues stay idle.
    let prog = parse_program("void work(int x) { emit x * 2; }").unwrap();
    let sdg = translate(&prog).unwrap();
    let task = sdg.task_by_name("work_0").unwrap().id;
    let mut cfg = RuntimeConfig {
        channel_capacity: 8,
        scaling: ScalingConfig {
            enabled: true,
            check_interval: Duration::from_millis(10),
            high_watermark: 0.5,
            patience: 2,
            low_watermark: 0.2,
            idle_patience: 3,
            min_instances: 1,
            max_instances: 4,
        },
        ..Default::default()
    };
    cfg.work_ns.insert(task, 3_000_000); // 3 ms per item.
    let d = Deployment::start(sdg, cfg).unwrap();
    for n in 0..400i64 {
        d.submit("work", record! {"x" => Value::Int(n)}).unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    assert!(d.stats().scale_outs > 0, "burst must trigger scale-out");

    // Idle now: the monitor removes the extra instances one tick at a time.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while task_instances(&d, task) > 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        task_instances(&d, task),
        1,
        "idle task must shrink back to min_instances"
    );
    assert!(d.stats().scale_ins > 0);
    assert_eq!(d.stats().errors, 0);
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

#[test]
fn quiesce_and_shutdown_are_clean_on_idle_deployment() {
    let (d, _kv) = deploy_kv(1, false);
    assert!(d.quiesce(Duration::from_secs(1)));
    assert_eq!(d.stats().processed, 0);
    d.shutdown();
}
