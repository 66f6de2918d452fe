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
//! accesses one SE, so the policy (`decide`) rules per group. It is a pure
//! function of the samples; the monitor thread only samples and submits
//! its requests to the control plane ([`crate::reconfig`]).

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use sdg_common::ids::TaskId;
use sdg_common::obs::EventKind;
use sdg_graph::model::{Distribution, Sdg};

use crate::config::ScalingConfig;
use crate::deploy::Inner;
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

/// The stop flag of the controller threads, which park on it between
/// ticks: `Deployment::shutdown` wakes them at once instead of letting
/// them sleep out their interval. The flag lives under the mutex the
/// waiters park on, so a stop can never slip past a waiter unseen.
#[derive(Debug, Default)]
pub(crate) struct StopWait {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopWait {
    /// Parks for up to `period`, returning early once [`StopWait::stop`]
    /// was called. Returns whether it was.
    pub(crate) fn wait(&self, period: Duration) -> bool {
        let guard = self.stopped.lock().unwrap_or_else(|e| e.into_inner());
        let waited = self.cv.wait_timeout_while(guard, period, |s| !*s);
        *waited.unwrap_or_else(|e| e.into_inner()).0
    }

    /// Sets the flag and wakes every parked waiter.
    pub(crate) fn stop(&self) {
        *self.stopped.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

/// One state group: the tasks that one reconfiguration resizes together,
/// and its instance count at deploy time, below which it never shrinks.
#[derive(Debug)]
struct Group {
    tasks: Vec<TaskId>,
    can_grow: bool,
    can_shrink: bool,
    floor: u32,
}

/// The deployment's state groups: the accessing tasks of each SE, and
/// each stateless task on its own.
#[derive(Debug)]
pub(crate) struct Groups {
    groups: Vec<Group>,
    /// Each task's downstream consumers, indexed by task.
    downstream: Vec<Vec<TaskId>>,
}

impl Groups {
    /// Groups `sdg`'s tasks, taking each group's floor from `deployed`.
    /// `Local` SEs cannot resize, and a `Partial` SE whose merge is not
    /// certified sound cannot shrink.
    pub(crate) fn new(sdg: &Sdg, deployed: &Sample) -> Groups {
        let stateful = sdg.states.iter().map(|s| {
            let tasks = sdg.tasks_accessing(s.id).iter().map(|t| t.id).collect();
            match s.dist {
                Distribution::Local => (tasks, false, false),
                Distribution::Partial => (tasks, true, check_partial_merge(sdg, &s.name).is_ok()),
                Distribution::Partitioned { .. } => (tasks, true, true),
            }
        });
        let stateless = sdg.tasks.iter().filter(|t| t.access.is_none());
        let groups = (stateful.chain(stateless.map(|t| (vec![t.id], true, true))))
            .filter(|(tasks, ..)| !tasks.is_empty())
            .map(|(tasks, can_grow, can_shrink)| Group {
                floor: deployed.instances(&tasks),
                tasks,
                can_grow,
                can_shrink,
            })
            .collect();
        let downstream = (sdg.tasks.iter())
            .map(|t| sdg.flows_from(t.id).iter().map(|f| f.to).collect())
            .collect();
        Groups { groups, downstream }
    }
}

/// Each task's queue fill (mean depth over channel capacity) and instance
/// count, indexed by task and read once per tick.
#[derive(Debug)]
pub(crate) struct Sample(Vec<(f64, u32)>);

impl Sample {
    pub(crate) fn take(inner: &Inner) -> Sample {
        let capacity = inner.cfg.channel_capacity as f64;
        let per_task = inner.sdg.tasks.iter().map(|t| {
            let slots = inner.routes[&t.id].read();
            let depth: usize = slots.iter().map(|i| i.tx.len()).sum();
            let n = slots.len();
            (depth as f64 / (capacity * n.max(1) as f64), n as u32)
        });
        Sample(per_task.collect())
    }

    fn fill(&self, task: TaskId) -> f64 {
        self.0[task.raw() as usize].0
    }

    /// A group's instance count: every task in it has the same.
    fn instances(&self, tasks: &[TaskId]) -> u32 {
        self.0[tasks[0].raw() as usize].1
    }
}

/// Per-group streaks of consecutive samples ready to grow and to shrink.
pub(crate) type PolicyState = Vec<(u32, u32)>;

/// The scaling policy: at most one move per sample, and only one the
/// group can make. A group grows when one of its tasks has been saturated
/// and not backpressured (no downstream consumer at half the high
/// watermark) for `patience` samples. It shrinks when every task in it has
/// been at or below the low watermark for `idle_patience` samples while
/// above its floor. The most saturated trigger wins, and any growth beats
/// any shrink. A move resets both streaks of the group that moved, so the
/// opposite move waits for fresh samples.
pub(crate) fn decide(
    state: &mut PolicyState,
    sample: &Sample,
    groups: &Groups,
    cfg: &ScalingConfig,
) -> Option<ReconfigRequest> {
    state.resize(groups.groups.len(), (0, 0));
    let backpressured = |t: TaskId| {
        let mut downstream = groups.downstream[t.raw() as usize].iter();
        downstream.any(|&d| sample.fill(d) >= cfg.high_watermark / 2.0)
    };
    let mut best: Option<(f64, usize, ReconfigRequest)> = None;
    for (i, (g, (out, idle))) in groups.groups.iter().zip(state.iter_mut()).enumerate() {
        let n = sample.instances(&g.tasks);
        let hot = (g.tasks.iter().copied())
            .filter(|&t| sample.fill(t) >= cfg.high_watermark && !backpressured(t))
            .max_by(|&a, &b| sample.fill(a).total_cmp(&sample.fill(b)));
        let cold = g.tasks.iter().all(|&t| sample.fill(t) <= cfg.low_watermark);
        let grows = hot.is_some() && g.can_grow && n < cfg.max_instances;
        let shrinks = cold && g.can_shrink && n > g.floor;
        *out = if grows { *out + 1 } else { 0 };
        *idle = if shrinks { *idle + 1 } else { 0 };
        let (key, request) = match hot {
            Some(task) if grows && *out >= cfg.patience => (sample.fill(task), ScaleOut { task }),
            _ if shrinks && *idle >= cfg.idle_patience => (-1.0, ScaleIn { task: g.tasks[0] }),
            _ => continue,
        };
        if best.is_none_or(|(k, ..)| key > k) {
            best = Some((key, i, request));
        }
    }
    let (_, i, request) = best?;
    state[i] = (0, 0);
    Some(request)
}

/// Runs the bottleneck monitor over `groups` until the deployment stops.
pub(crate) fn run_scaling_monitor(inner: &Inner, groups: Groups) {
    let cfg = &inner.cfg.scaling;
    let mut state = PolicyState::default();
    while !inner.stop_wait().wait(cfg.check_interval) {
        let sample = Sample::take(inner);
        let Some(request) = decide(&mut state, &sample, &groups, cfg) else {
            continue;
        };
        if let ScaleOut { task } = request {
            inner.obs.record_event(EventKind::BottleneckDetected {
                task: inner.sdg.tasks[task.raw() as usize].name.clone(),
                fill: sample.fill(task),
            });
        }
        let _ = execute(inner, request);
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

    /// Replays `samples` into a fresh policy, returning each decision.
    fn replay(
        groups: &Groups,
        cfg: &ScalingConfig,
        samples: impl IntoIterator<Item = Sample>,
    ) -> Vec<Option<ReconfigRequest>> {
        let mut state = PolicyState::default();
        (samples.into_iter())
            .map(|s| decide(&mut state, &s, groups, cfg))
            .collect()
    }

    #[test]
    fn a_busy_group_at_its_ceiling_never_sheds_its_idle_member() {
        let sdg = cf();
        let groups = Groups::new(&sdg, &cf_sample([0.0; 5], 1));
        let decisions = replay(&groups, &fig10_cfg(), (0..100).map(|i| fig10_trace(i, 4)));
        assert!(decisions.iter().all(Option::is_none), "{decisions:?}");
    }

    #[test]
    fn a_busy_group_below_its_ceiling_grows_after_patience_samples() {
        let sdg = cf();
        let cfg = fig10_cfg();
        let groups = Groups::new(&sdg, &cf_sample([0.0; 5], 1));
        let decisions = replay(
            &groups,
            &cfg,
            (0..cfg.patience as usize).map(|i| fig10_trace(i, 3)),
        );
        let (last, before) = decisions.split_last().unwrap();
        assert!(before.iter().all(Option::is_none));
        let task = sdg.task_by_name("addRating_1").unwrap().id;
        assert_eq!(*last, Some(ScaleOut { task }));
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
            let groups = Groups::new(&sdg, &one_task(0.0, floor));
            let mut state = PolicyState::default();
            let mut n = floor;
            let mut tick =
                |fill: f64, n: u32| decide(&mut state, &one_task(fill, n), &groups, &cfg);
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
        let groups = Groups::new(&sdg, &one_task(0.0, 1));
        let decisions = replay(&groups, &fig10_cfg(), (0..100).map(|_| one_task(1.0, 1)));
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
        let groups = Groups::new(&sdg, &cf_sample([0.0; 5], 1));
        let decisions = replay(&groups, &cfg, idle.clone());
        assert!(decisions.iter().all(Option::is_none), "{decisions:?}");

        // A certified merge lets the same group shrink.
        let sdg = certified(true);
        let groups = Groups::new(&sdg, &cf_sample([0.0; 5], 1));
        let ar1 = sdg.task_by_name("addRating_1").unwrap().id;
        let decisions = replay(&groups, &cfg, idle);
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
        let groups = Groups::new(&sdg, &both(0.0));
        let decisions = replay(&groups, &fig10_cfg(), (0..100).map(|_| both(1.0)));
        assert!(decisions.iter().all(Option::is_none), "{decisions:?}");
    }
}
