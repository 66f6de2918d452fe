//! Reactive runtime parallelism (§3.3 "Runtime parallelism and stragglers").
//!
//! The monitor samples the queue depth of every task's instances. A task
//! whose queues stay saturated is a bottleneck — because its TEs are
//! computationally expensive, or because one of its instances sits on a
//! straggler node and drains slowly. In both cases the reaction is the
//! same (the paper's reactive approach): add a TE instance, creating new
//! partitioned or partial SE instances as required.
//!
//! A reconfiguration resizes a whole *state group*, every task that
//! accesses one SE, so the policy (`decide`) rules per group. The tasks of
//! a group share one mailbox per SE instance, so a group's fill is that
//! mailbox's, and each task's fill is its share of it. The policy is a
//! pure function of the samples; the `Monitor`, one duty of the
//! deployment's control thread (`control::start`), only samples and
//! submits its requests to the control plane ([`crate::reconfig`]).

use std::time::Instant;

use sdg_common::ids::TaskId;
use sdg_common::obs::EventKind;
use sdg_graph::model::{Distribution, Sdg};

use crate::config::ScalingConfig;
use crate::deploy::{Inner, Unit, Units};
use crate::reconfig::ReconfigRequest::{self, ScaleIn, ScaleOut};
use crate::reconfig::{check_partial_merge, execute};

/// Which way a scale event went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    /// An instance was added.
    Out,
    /// An instance was removed (state live-migrated into survivors).
    In,
}

/// What the policy may do to one state group (a recovery unit, whose
/// tasks one reconfiguration resizes together), and its instance count at
/// deploy time, below which it never shrinks.
#[derive(Debug)]
struct Group {
    can_grow: bool,
    can_shrink: bool,
    floor: u32,
}

/// The policy of each of the deployment's recovery units ([`Units`]), in
/// unit order.
#[derive(Debug)]
pub(crate) struct Groups {
    groups: Vec<Group>,
    /// The units each task's consumers belong to, its own excepted (a
    /// consumer in its unit shares its mailbox), indexed by task.
    downstream: Vec<Vec<usize>>,
}

impl Groups {
    /// One group per unit of `sdg`, taking each group's floor from
    /// `deployed`. `Local` SEs cannot resize, and a `Partial` SE whose
    /// merge is not certified sound cannot shrink.
    pub(crate) fn new(units: &Units, sdg: &Sdg, deployed: &Sample) -> Groups {
        let groups: Vec<Group> = (units.iter())
            .map(|unit| {
                let decl = unit.state.and_then(|s| sdg.state(s).ok());
                let (can_grow, can_shrink) = match decl.map(|d| (&d.dist, &d.name)) {
                    Some((Distribution::Local, _)) => (false, false),
                    Some((Distribution::Partial, name)) => {
                        (true, check_partial_merge(sdg, name).is_ok())
                    }
                    _ => (true, true),
                };
                Group {
                    floor: deployed.instances(unit),
                    can_grow,
                    can_shrink,
                }
            })
            .collect();
        let downstream = (sdg.tasks.iter())
            .map(|t| {
                let own = units.of(t.id).0;
                let mut consumers: Vec<usize> = (sdg.flows_from(t.id).iter())
                    .map(|f| units.of(f.to).0)
                    .filter(|&g| g != own)
                    .collect();
                consumers.sort_unstable();
                consumers.dedup();
                consumers
            })
            .collect();
        Groups { groups, downstream }
    }
}

/// Each task's queue fill (its items queued in its instances' mailboxes,
/// over their capacity) and instance count, indexed by task and read once
/// per tick. The fills of a group's tasks add up to the group's.
#[derive(Debug)]
pub(crate) struct Sample(Vec<(f64, u32)>);

impl Sample {
    pub(crate) fn take(inner: &Inner) -> Sample {
        let capacity = inner.cfg.channel_capacity as f64;
        let per_task = inner.sdg.tasks.iter().map(|t| {
            let (depth, n) = inner.units.load(t.id);
            (depth as f64 / (capacity * n.max(1) as f64), n as u32)
        });
        Sample(per_task.collect())
    }

    fn fill(&self, task: TaskId) -> f64 {
        self.0[task.raw() as usize].0
    }

    /// A unit's fill: the mean fill of its mailboxes, each shared by the
    /// unit's tasks.
    fn unit_fill(&self, unit: &Unit) -> f64 {
        unit.tasks.iter().map(|&t| self.fill(t)).sum()
    }

    /// A unit's instance count: every task in it has the same.
    fn instances(&self, unit: &Unit) -> u32 {
        self.0[unit.tasks[0].raw() as usize].1
    }
}

/// Per-group streaks of consecutive samples ready to grow and to shrink.
pub(crate) type PolicyState = Vec<(u32, u32)>;

/// The scaling policy: at most one move per sample, and only one the
/// group can make. A group grows when its mailboxes have been saturated
/// for `patience` samples while its busiest task (the one with the most
/// items queued; the first on a tie) was not backpressured (no consumer
/// outside the group at half the high watermark); the scale-out names
/// that task. It shrinks when its mailboxes have been at or below the low
/// watermark for `idle_patience` samples while above its floor; any task
/// of the group names the scale-in, which resizes the whole group. The
/// most saturated group wins, and any growth beats any shrink. A move
/// resets both streaks of the group that moved, so the opposite move
/// waits for fresh samples.
pub(crate) fn decide(
    state: &mut PolicyState,
    sample: &Sample,
    units: &Units,
    groups: &Groups,
    cfg: &ScalingConfig,
) -> Option<ReconfigRequest> {
    state.resize(groups.groups.len(), (0, 0));
    let fills: Vec<f64> = units.iter().map(|u| sample.unit_fill(u)).collect();
    let backpressured = |t: TaskId| {
        let mut downstream = groups.downstream[t.raw() as usize].iter();
        downstream.any(|&g| fills[g] >= cfg.high_watermark / 2.0)
    };
    let mut best: Option<(f64, usize, ReconfigRequest)> = None;
    let policies = units.iter().zip(&groups.groups).zip(state.iter_mut());
    for (i, ((u, g), (out, idle))) in policies.enumerate() {
        let n = sample.instances(u);
        let busiest = (u.tasks.iter().copied())
            .reduce(|a, b| {
                if sample.fill(b) > sample.fill(a) {
                    b
                } else {
                    a
                }
            })
            .expect("a group has a task");
        let hot = fills[i] >= cfg.high_watermark && !backpressured(busiest);
        let grows = hot && g.can_grow && n < cfg.max_instances;
        let shrinks = fills[i] <= cfg.low_watermark && g.can_shrink && n > g.floor;
        *out = if grows { *out + 1 } else { 0 };
        *idle = if shrinks { *idle + 1 } else { 0 };
        let (key, request) = if grows && *out >= cfg.patience {
            (fills[i], ScaleOut { task: busiest })
        } else if shrinks && *idle >= cfg.idle_patience {
            (-1.0, ScaleIn { task: u.tasks[0] })
        } else {
            continue;
        };
        if best.is_none_or(|(k, ..)| key > k) {
            best = Some((key, i, request));
        }
    }
    let (_, i, request) = best?;
    state[i] = (0, 0);
    Some(request)
}

/// The bottleneck monitor, owned by the control thread
/// ([`crate::control`]): a sample every `check_interval`, and the move
/// [`decide`] makes of it submitted through [`execute`].
pub(crate) struct Monitor {
    groups: Groups,
    state: PolicyState,
    /// When the next sample is due.
    pub(crate) due: Instant,
}

impl Monitor {
    /// A monitor of `inner`'s units, each floored at its count now.
    pub(crate) fn new(inner: &Inner) -> Monitor {
        Monitor {
            groups: Groups::new(&inner.units, &inner.sdg, &Sample::take(inner)),
            state: PolicyState::default(),
            due: Instant::now() + inner.cfg.scaling.check_interval,
        }
    }

    /// Takes a sample and submits the policy's move, if it makes one.
    pub(crate) fn sample(&mut self, inner: &Inner) {
        let cfg = &inner.cfg.scaling;
        let sample = Sample::take(inner);
        let request = decide(&mut self.state, &sample, &inner.units, &self.groups, cfg);
        if let Some(ScaleOut { task }) = request {
            inner.obs.record_event(EventKind::BottleneckDetected {
                task: inner.sdg.tasks[task.raw() as usize].name.clone(),
                fill: sample.unit_fill(inner.units.unit(task)),
            });
        }
        if let Some(request) = request {
            let _ = execute(inner, request);
        }
        self.due = Instant::now() + cfg.check_interval;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use sdg_common::ids::StateId;
    use sdg_graph::model::{AccessMode, Dispatch, SdgBuilder, StateAccessEdge, TaskCode, TaskKind};
    use sdg_ir::analysis::verify::{SeCertificate, VerifyReport};
    use sdg_state::partition::PartitionDim;
    use sdg_state::store::StateType;

    use super::*;

    /// The Fig. 10 run's settings.
    fn fig10_cfg() -> ScalingConfig {
        ScalingConfig {
            enabled: true,
            high_watermark: 0.5,
            patience: 2,
            max_instances: 4,
            ..Default::default()
        }
    }

    fn access(state: StateId, mode: AccessMode) -> Option<StateAccessEdge> {
        Some(StateAccessEdge {
            state,
            mode,
            writes: true,
        })
    }

    /// The CF graph: `addRating_0`/`getRec_0` share the partitioned
    /// `userItem`, `addRating_1`/`getRec_1` the partial `coOcc`, and
    /// `getRec_2` is the stateless merge.
    fn cf() -> Sdg {
        let mut b = SdgBuilder::new();
        let row = Distribution::Partitioned {
            dim: PartitionDim::Row,
        };
        let user_item = b.add_state("userItem", StateType::Matrix, row);
        let co_occ = b.add_state("coOcc", StateType::Matrix, Distribution::Partial);
        let keyed = || AccessMode::Partitioned {
            key: "user".into(),
            dim: PartitionDim::Row,
        };
        let entry = |m: &str| TaskKind::Entry { method: m.into() };
        let code = || TaskCode::Passthrough;
        let ar0 = b.add_task(
            "addRating_0",
            entry("addRating"),
            code(),
            access(user_item, keyed()),
        );
        let ar1 = b.add_task(
            "addRating_1",
            TaskKind::Compute,
            code(),
            access(co_occ, AccessMode::PartialLocal),
        );
        let gr0 = b.add_task(
            "getRec_0",
            entry("getRec"),
            code(),
            access(user_item, keyed()),
        );
        let gr1 = b.add_task(
            "getRec_1",
            TaskKind::Compute,
            code(),
            access(co_occ, AccessMode::PartialGlobal),
        );
        let gr2 = b.add_task("getRec_2", TaskKind::Compute, code(), None);
        b.connect(ar0, ar1, Dispatch::OneToAny, vec![]);
        b.connect(gr0, gr1, Dispatch::OneToAll, vec![]);
        let gather = Dispatch::AllToOne {
            collect_var: "userRec".into(),
        };
        b.connect(gr1, gr2, gather, vec![]);
        b.build_unchecked()
    }

    /// A CF sample: addRating_1 and getRec_1 at `co_occ` instances, every
    /// other task at one; `fills` in task order.
    fn cf_sample(fills: [f64; 5], co_occ: u32) -> Sample {
        let instances = [1, co_occ, 1, co_occ, 1];
        Sample(fills.into_iter().zip(instances).collect())
    }

    /// The Fig. 10 trace: `addRating_1`'s queues at 0.93–0.99, the
    /// feeder's entry task backpressured behind it, and no `getRec`.
    fn fig10_trace(i: usize, co_occ: u32) -> Sample {
        let busy = 0.93 + 0.01 * (i % 7) as f64;
        cf_sample([0.9, busy, 0.0, 0.0, 0.0], co_occ)
    }

    /// `sdg`'s units and their policy, with floors from `deployed`.
    fn policy(sdg: &Sdg, deployed: &Sample) -> (Units, Groups) {
        let units = Units::new(sdg);
        let groups = Groups::new(&units, sdg, deployed);
        (units, groups)
    }

    /// Replays `samples` into a fresh policy, returning each decision.
    fn replay(
        units: &Units,
        groups: &Groups,
        cfg: &ScalingConfig,
        samples: impl IntoIterator<Item = Sample>,
    ) -> Vec<Option<ReconfigRequest>> {
        let mut state = PolicyState::default();
        (samples.into_iter())
            .map(|s| decide(&mut state, &s, units, groups, cfg))
            .collect()
    }

    #[test]
    fn a_busy_group_at_its_ceiling_never_sheds_its_idle_member() {
        let sdg = cf();
        let (units, groups) = policy(&sdg, &cf_sample([0.0; 5], 1));
        let decisions = replay(
            &units,
            &groups,
            &fig10_cfg(),
            (0..100).map(|i| fig10_trace(i, 4)),
        );
        assert!(decisions.iter().all(Option::is_none), "{decisions:?}");
    }

    #[test]
    fn a_busy_group_below_its_ceiling_grows_after_patience_samples() {
        let sdg = cf();
        let cfg = fig10_cfg();
        let (units, groups) = policy(&sdg, &cf_sample([0.0; 5], 1));
        let decisions = replay(
            &units,
            &groups,
            &cfg,
            (0..cfg.patience as usize).map(|i| fig10_trace(i, 3)),
        );
        let (last, before) = decisions.split_last().unwrap();
        assert!(before.iter().all(Option::is_none));
        let task = sdg.task_by_name("addRating_1").unwrap().id;
        assert_eq!(*last, Some(ScaleOut { task }));
    }

    #[test]
    fn a_group_grows_on_its_mailbox_fill_and_names_its_busiest_task() {
        let sdg = cf();
        let cfg = fig10_cfg();
        let (units, groups) = policy(&sdg, &cf_sample([0.0; 5], 1));
        let patience = cfg.patience as usize;
        // `getRec_1` holds most of `coOcc`'s mailbox: the scale-out names
        // it, not the group's first task.
        let decisions = replay(
            &units,
            &groups,
            &cfg,
            (0..patience).map(|_| cf_sample([0.0, 0.1, 0.0, 0.8, 0.0], 1)),
        );
        let gr1 = sdg.task_by_name("getRec_1").unwrap().id;
        assert_eq!(decisions[patience - 1], Some(ScaleOut { task: gr1 }));
        // Neither task alone reaches the watermark, but the mailbox they
        // share does: the group grows, named after the first on a tie.
        let decisions = replay(
            &units,
            &groups,
            &cfg,
            (0..patience).map(|_| cf_sample([0.0, 0.3, 0.0, 0.3, 0.0], 1)),
        );
        let ar1 = sdg.task_by_name("addRating_1").unwrap().id;
        assert_eq!(decisions[patience - 1], Some(ScaleOut { task: ar1 }));
    }

    /// Two entry tasks on one partitioned SE: `put` and `get`.
    fn put_get(b: &mut SdgBuilder) -> (TaskId, TaskId) {
        let s = b.add_state(
            "s",
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let mut entry = |m: &str| {
            let keyed = AccessMode::Partitioned {
                key: "k".into(),
                dim: PartitionDim::Row,
            };
            let kind = TaskKind::Entry { method: m.into() };
            b.add_task(m, kind, TaskCode::Passthrough, access(s, keyed))
        };
        (entry("put"), entry("get"))
    }

    #[test]
    fn a_scale_in_is_named_after_the_group_that_shrank() {
        let mut b = SdgBuilder::new();
        let (put, _) = put_get(&mut b);
        let sdg = b.build().unwrap();
        let cfg = ScalingConfig {
            idle_patience: 2,
            ..fig10_cfg()
        };
        let (units, groups) = policy(&sdg, &Sample(vec![(0.0, 1); 2]));
        let decisions = replay(
            &units,
            &groups,
            &cfg,
            (0..2).map(|_| Sample(vec![(0.0, 2); 2])),
        );
        let request = decisions[1].expect("an idle group above its floor shrinks");
        assert_eq!(request, ScaleIn { task: put });

        let mut b = SdgBuilder::new();
        put_get(&mut b);
        let mut runtime = crate::RuntimeConfig::default();
        runtime.se_instances.insert(StateId(0), 2);
        runtime.supervisor.enabled = false;
        let d = crate::Deployment::start(b.build().unwrap(), runtime).unwrap();
        d.reconfigure(request).unwrap();
        let names: Vec<String> = (d.events().into_iter())
            .filter_map(|e| match e.kind {
                EventKind::ScaleIn {
                    task, instances, ..
                } => {
                    assert_eq!(instances, 1);
                    Some(task)
                }
                _ => None,
            })
            .collect();
        // The group's SE, not the task that happens to name the request.
        assert_eq!(names, ["s"]);
        d.shutdown();
    }

    fn one_task(fill: f64, instances: u32) -> Sample {
        Sample(vec![(fill, instances)])
    }

    #[test]
    fn a_stateless_task_grows_then_shrinks_to_its_deploy_time_count() {
        let mut b = SdgBuilder::new();
        let entry = TaskKind::Entry {
            method: "work".into(),
        };
        let task = b.add_task("work_0", entry, TaskCode::Passthrough, None);
        let sdg = b.build_unchecked();
        let cfg = ScalingConfig {
            idle_patience: 3,
            ..fig10_cfg()
        };
        for floor in [1, 2] {
            let (units, groups) = policy(&sdg, &one_task(0.0, floor));
            let mut state = PolicyState::default();
            let mut n = floor;
            let mut tick =
                |fill: f64, n: u32| decide(&mut state, &one_task(fill, n), &units, &groups, &cfg);
            // Each move resets the group's streaks, so the next one, either
            // way, waits for fresh samples.
            for _ in 0..2 {
                for _ in 1..cfg.patience {
                    assert_eq!(tick(1.0, n), None);
                }
                assert_eq!(tick(1.0, n), Some(ScaleOut { task }));
                n += 1;
            }
            for _ in 0..2 {
                for _ in 1..cfg.idle_patience {
                    assert_eq!(tick(0.0, n), None);
                }
                assert_eq!(tick(0.0, n), Some(ScaleIn { task }));
                n -= 1;
            }
            for _ in 0..100 {
                assert_eq!(tick(0.0, n), None, "never below the floor of {floor}");
            }
        }
    }

    #[test]
    fn a_saturated_local_group_yields_nothing() {
        let mut b = SdgBuilder::new();
        let t = b.add_state("t", StateType::Table, Distribution::Local);
        let entry = TaskKind::Entry {
            method: "work".into(),
        };
        b.add_task(
            "work_0",
            entry,
            TaskCode::Passthrough,
            access(t, AccessMode::Local),
        );
        let sdg = b.build_unchecked();
        let (units, groups) = policy(&sdg, &one_task(0.0, 1));
        let decisions = replay(
            &units,
            &groups,
            &fig10_cfg(),
            (0..100).map(|_| one_task(1.0, 1)),
        );
        assert!(decisions.iter().all(Option::is_none), "{decisions:?}");
    }

    #[test]
    fn an_idle_partial_group_with_an_uncertified_merge_yields_nothing() {
        let certified = |merge_sound| {
            let mut sdg = cf();
            let cert = SeCertificate {
                field: "coOcc".into(),
                key_local: true,
                replay_safe: true,
                merge_sound,
                violations: vec![],
            };
            sdg.verify = Some(Arc::new(VerifyReport {
                se_certs: BTreeMap::from([("coOcc".to_string(), cert)]),
                ..Default::default()
            }));
            sdg
        };
        let cfg = fig10_cfg();
        let idle = (0..100).map(|_| cf_sample([0.0; 5], 2));
        let sdg = certified(false);
        let (units, groups) = policy(&sdg, &cf_sample([0.0; 5], 1));
        let decisions = replay(&units, &groups, &cfg, idle.clone());
        assert!(decisions.iter().all(Option::is_none), "{decisions:?}");

        // A certified merge lets the same group shrink.
        let sdg = certified(true);
        let (units, groups) = policy(&sdg, &cf_sample([0.0; 5], 1));
        let ar1 = sdg.task_by_name("addRating_1").unwrap().id;
        let decisions = replay(&units, &groups, &cfg, idle);
        let shrink = Some(ScaleIn { task: ar1 });
        assert_eq!(decisions[cfg.idle_patience as usize - 1], shrink);
    }

    #[test]
    fn a_saturated_task_with_a_saturated_downstream_task_yields_nothing() {
        // A stateless producer feeding a Local consumer: the producer is
        // backpressured, and the consumer's group cannot grow.
        let mut b = SdgBuilder::new();
        let t = b.add_state("t", StateType::Table, Distribution::Local);
        let entry = TaskKind::Entry {
            method: "work".into(),
        };
        let src = b.add_task("work_0", entry, TaskCode::Passthrough, None);
        let dst = b.add_task(
            "work_1",
            TaskKind::Compute,
            TaskCode::Passthrough,
            access(t, AccessMode::Local),
        );
        b.connect(src, dst, Dispatch::OneToAny, vec![]);
        let sdg = b.build_unchecked();
        let both = |fill| Sample(vec![(fill, 1), (fill, 1)]);
        let (units, groups) = policy(&sdg, &both(0.0));
        let decisions = replay(&units, &groups, &fig10_cfg(), (0..100).map(|_| both(1.0)));
        assert!(decisions.iter().all(Option::is_none), "{decisions:?}");
    }
}
