//! Deterministic fault injection and the self-healing supervisor.
//!
//! Failure handling in this runtime is split into three layers:
//!
//! 1. **Injection** — a seedable [`FaultPlan`] arms per-instance
//!    [`FaultTrigger`]s (panic or stall on the Nth handled item) and a
//!    [`StoreFaultSpec`] on the backup stores, so chaos runs are exactly
//!    reproducible: the same plan over the same input fails at the same
//!    item on every run.
//! 2. **Detection** — every actor step runs inside the pool's
//!    `catch_unwind` boundary; a caught panic is reported to the deployment's
//!    [`FailureHub`]. Independently, every mailbox counts the messages
//!    popped from it — its heartbeat epoch — and the supervisor scans the
//!    epochs to flag actors that sit on a non-empty mailbox without
//!    making progress.
//! 3. **Recovery** — the supervisor drives the existing §5
//!    fail-and-recover path (restore from the backup chain, replay
//!    upstream buffers past the watermark) with bounded exponential
//!    backoff and jitter, at most one recovery per scan (the storm
//!    guard), and escalation to the terminal [`Health::Degraded`] state
//!    after `MAX_ATTEMPTS` (5) failed attempts.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sdg_checkpoint::backup::StoreFaultSpec;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::TaskId;
use sdg_common::obs::{EventKind, MetricsRegistry};
use sdg_graph::model::Sdg;

use crate::config::SupervisorConfig;
use crate::deploy::Inner;
use crate::reconfig;

/// Recovery attempts per failed instance before the supervisor escalates
/// to the terminal [`Health::Degraded`] state.
pub(crate) const MAX_ATTEMPTS: u32 = 5;

/// What an armed injection point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic the worker mid-loop; caught at the pool's panic boundary and
    /// reported to the [`FailureHub`].
    Panic,
    /// Stall the worker for the given duration *before* it touches the
    /// item — long enough for heartbeat detection to declare it hung. The
    /// stalled worker re-checks its kill flag on waking and drops the item
    /// if it was recovered around; replay delivers the item to the
    /// replacement instance.
    Stall(Duration),
}

/// One injection point: the instance `task#replica` fails on the `nth`
/// item it handles (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Task name as it appears in the SDG (translated segments are named
    /// `{method}_{k}`, e.g. `bump_0`).
    pub task: String,
    /// Replica index within the task.
    pub replica: u32,
    /// Fire on the Nth handled item, 1-based (clamped to ≥ 1).
    pub nth: u64,
    /// What happens when the trigger fires.
    pub action: FaultAction,
}

/// A deterministic, seedable fault plan for one deployment.
///
/// The plan is pure data: resolving it against a graph happens at deploy
/// time (`FaultInjector::resolve`) and fails fast on unknown task names.
/// The seed feeds [`FaultPlan::draw`] (for scattering injection points in
/// tests without a rand dependency) and the supervisor's backoff jitter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for [`FaultPlan::draw`] and supervisor backoff jitter.
    pub seed: u64,
    /// Per-instance worker faults.
    pub worker_faults: Vec<WorkerFault>,
    /// Faults injected into every backup store of the deployment.
    pub store_faults: StoreFaultSpec,
}

impl FaultPlan {
    /// An empty plan carrying only a seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Arms a panic on the `nth` item handled by `task#replica`.
    pub fn with_worker_panic(mut self, task: &str, replica: u32, nth: u64) -> Self {
        self.worker_faults.push(WorkerFault {
            task: task.into(),
            replica,
            nth,
            action: FaultAction::Panic,
        });
        self
    }

    /// Arms a stall of `stall` before the `nth` item handled by
    /// `task#replica`.
    pub fn with_worker_stall(
        mut self,
        task: &str,
        replica: u32,
        nth: u64,
        stall: Duration,
    ) -> Self {
        self.worker_faults.push(WorkerFault {
            task: task.into(),
            replica,
            nth,
            action: FaultAction::Stall(stall),
        });
        self
    }

    /// Injects `spec` into every backup store of the deployment.
    pub fn with_store_faults(mut self, spec: StoreFaultSpec) -> Self {
        self.store_faults = spec;
        self
    }

    /// `true` when the plan injects nothing.
    pub fn is_noop(&self) -> bool {
        self.worker_faults.is_empty() && self.store_faults.is_noop()
    }

    /// Deterministic draw in `[lo, hi]` derived from the seed and a label,
    /// so tests can scatter injection points reproducibly.
    pub fn draw(&self, label: &str, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let span = hi - lo + 1;
        lo + XorShift64::new(h | 1).next() % span
    }
}

/// An armed, fire-once injection point shared with one worker.
#[derive(Debug)]
pub struct FaultTrigger {
    action: FaultAction,
    /// Items remaining until the trigger fires; `0` means spent.
    remaining: AtomicU64,
}

impl FaultTrigger {
    pub(crate) fn new(spec: &WorkerFault) -> Self {
        FaultTrigger {
            action: spec.action,
            remaining: AtomicU64::new(spec.nth.max(1)),
        }
    }

    /// Counts down one handled item; returns the action exactly once, on
    /// the item the trigger was armed for.
    pub fn poll(&self) -> Option<FaultAction> {
        match self
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
        {
            Ok(1) => Some(self.action),
            _ => None,
        }
    }

    /// `true` once the trigger has fired.
    pub fn spent(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// A [`FaultPlan`] resolved against a deployed graph: task names became
/// ids, each worker fault became a shared [`FaultTrigger`].
#[derive(Debug, Default)]
pub(crate) struct FaultInjector {
    triggers: HashMap<(TaskId, u32), Arc<FaultTrigger>>,
}

impl FaultInjector {
    /// Resolves `plan` against `sdg`; unknown task names are a
    /// configuration error (failing fast beats silently arming nothing).
    pub(crate) fn resolve(plan: Option<&FaultPlan>, sdg: &Sdg) -> SdgResult<FaultInjector> {
        let mut triggers = HashMap::new();
        if let Some(plan) = plan {
            for spec in &plan.worker_faults {
                let task = sdg.task_by_name(&spec.task).ok_or_else(|| {
                    SdgError::Config(format!(
                        "fault plan names unknown task {:?} (translated segments are \
                         named `method_k`, e.g. `bump_0`)",
                        spec.task
                    ))
                })?;
                triggers.insert((task.id, spec.replica), Arc::new(FaultTrigger::new(spec)));
            }
        }
        Ok(FaultInjector { triggers })
    }

    /// The trigger armed for `task#replica`, if any. Respawned replacement
    /// instances get the same (already spent) trigger, so a recovered
    /// worker does not re-fail on the replayed item.
    pub(crate) fn trigger_for(&self, task: TaskId, replica: u32) -> Option<Arc<FaultTrigger>> {
        self.triggers.get(&(task, replica)).cloned()
    }
}

/// One caught worker/actor panic.
#[derive(Debug, Clone)]
pub(crate) struct FailureReport {
    /// The actor's recovery unit.
    pub unit: RecoveryUnit,
    /// TE instance label, e.g. `bump_0#1`.
    pub label: String,
    /// Best-effort rendering of the panic payload.
    pub message: String,
    /// When the panic was caught — the supervisor's detection latency is
    /// measured from here.
    pub at: Instant,
}

/// Collects `FailureReport`s from the pool's panic boundary for the
/// supervisor to drain. Reporting also logs the `worker_panicked` event
/// and bumps the panic counter, so failures are visible even when the
/// supervisor is disabled.
#[derive(Debug)]
pub struct FailureHub {
    reports: Mutex<Vec<FailureReport>>,
    obs: Arc<MetricsRegistry>,
}

impl FailureHub {
    pub(crate) fn new(obs: Arc<MetricsRegistry>) -> Self {
        FailureHub {
            reports: Mutex::new(Vec::new()),
            obs,
        }
    }

    pub(crate) fn report(&self, report: FailureReport) {
        self.obs.faults().worker_panics.inc();
        self.obs.record_event(EventKind::WorkerPanicked {
            instance: report.label.clone(),
            message: report.message.clone(),
        });
        self.reports.lock().push(report);
    }

    pub(crate) fn drain(&self) -> Vec<FailureReport> {
        std::mem::take(&mut *self.reports.lock())
    }
}

/// Renders a panic payload (the argument of `panic!`) for reporting.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".into()
    }
}

/// Everything the pool's panic boundary needs to report a panic after the
/// worker itself was consumed by the unwind.
#[derive(Debug, Clone)]
pub(crate) struct PanicProbe {
    pub unit: RecoveryUnit,
    pub label: String,
    pub hub: Arc<FailureHub>,
}

impl PanicProbe {
    /// Reports a caught panic to the hub.
    pub(crate) fn report(&self, payload: &(dyn std::any::Any + Send)) {
        self.hub.report(FailureReport {
            unit: self.unit,
            label: self.label.clone(),
            message: panic_message(payload),
            at: Instant::now(),
        });
    }
}

/// Deployment health as driven by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// No failure outstanding.
    Healthy,
    /// At least one recovery is pending or in flight.
    Recovering,
    /// A recovery exhausted its attempts; manual intervention (or
    /// redeployment) is required. Terminal.
    Degraded,
}

impl Health {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Health::Healthy => 0,
            Health::Recovering => 1,
            Health::Degraded => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Health {
        match v {
            1 => Health::Recovering,
            2 => Health::Degraded,
            _ => Health::Healthy,
        }
    }
}

/// What the supervisor recovers: replica `replica` of recovery unit
/// `unit` (an index into `deploy::Units`). An SE group's replica goes
/// through the §5 fail-and-recover path; a stateless one is respawned,
/// and its in-flight items are lost (see `reconfig::respawn_stateless`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RecoveryUnit {
    pub(crate) unit: usize,
    pub(crate) replica: u32,
}

/// One actor's heartbeat as sampled by the supervisor.
#[derive(Debug)]
pub(crate) struct HeartbeatView {
    /// What the actor runs, and what recovering it means.
    pub unit: RecoveryUnit,
    /// Messages popped from the actor's mailbox so far: the actor steps
    /// once per pop.
    pub epoch: u64,
    /// Kill flag state; dead instances are never flagged (they are either
    /// being recovered already or were retired on purpose).
    pub alive: bool,
    /// Items waiting in the actor's mailbox.
    pub queued: usize,
    /// `false` when the instance is provably not hung: only a `Running`
    /// actor holds a pool thread, while idle, queued, credit-suspended and
    /// resting ones legitimately sit on a stalled epoch.
    pub hang_candidate: bool,
    /// The unit's label for events.
    pub label: String,
}

/// xorshift64* — the runtime's one tiny deterministic generator: backoff
/// jitter, [`FaultPlan::draw`] and the pool's steal-victim probe; good
/// enough for scattering, not for statistics.
#[derive(Debug)]
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Exponential backoff for `attempt` (1-based) with deterministic jitter:
/// `base · 2^(attempt-1)` capped at `cap`, then scaled into `[½, 1]` of
/// itself so retry storms decorrelate.
pub(crate) fn backoff_for(cfg: &SupervisorConfig, attempt: u32, rng: &mut XorShift64) -> Duration {
    let exp = cfg
        .backoff_base
        .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let capped = exp.min(cfg.backoff_cap);
    let jitter_pct = 50 + (rng.next() % 51) as u32; // 50..=100
    capped * jitter_pct / 100
}

struct PendingRecovery {
    unit: RecoveryUnit,
    label: String,
    attempts: u32,
    detected_at: Instant,
    eligible_at: Instant,
}

struct HeartbeatTrack {
    epoch: u64,
    stale: u32,
}

/// The supervisor loop: parked on the deployment's stop-aware condvar at
/// `heartbeat_interval`, it (1) drains caught panics, (2) scans heartbeat
/// epochs for hung instances, and (3) drives pending recoveries with
/// backoff, one recovery per scan and Degraded escalation.
pub(crate) fn run_supervisor(inner: Arc<Inner>, cfg: SupervisorConfig) {
    let obs = Arc::clone(&inner.obs);
    let seed = inner.cfg.faults.as_ref().map_or(0, |p| p.seed);
    let mut rng = XorShift64::new(seed ^ 0x5de7_ec7e_d5ba_dbed);
    let mut tracks: HashMap<RecoveryUnit, HeartbeatTrack> = HashMap::new();
    let mut pending: VecDeque<PendingRecovery> = VecDeque::new();
    let mut queued: HashSet<RecoveryUnit> = HashSet::new();

    while !inner.stop_wait.wait(cfg.heartbeat_interval) {
        // 1. Caught panics: precise detection timestamps.
        for report in inner.failure_hub.drain() {
            obs.faults()
                .detection_ns
                .record_duration(report.at.elapsed());
            enqueue(&inner, &mut pending, &mut queued, report.unit);
        }

        // 2. Heartbeat scan: flag instances whose epoch stalls across
        // `miss_threshold` scans while work is queued. Dead instances and
        // ones already queued for recovery are skipped.
        if cfg.hang_detection {
            for view in inner.heartbeat_view() {
                let unit = view.unit;
                let track = tracks.entry(unit).or_insert(HeartbeatTrack {
                    epoch: view.epoch,
                    stale: 0,
                });
                let stalled = view.epoch == track.epoch
                    && view.alive
                    && view.queued > 0
                    && view.hang_candidate
                    && !queued.contains(&unit);
                if !stalled {
                    track.epoch = view.epoch;
                    track.stale = 0;
                    continue;
                }
                track.stale += 1;
                if track.stale >= cfg.miss_threshold {
                    obs.faults().heartbeats_missed.inc();
                    obs.record_event(EventKind::HeartbeatMissed {
                        instance: view.label.clone(),
                        missed: track.stale,
                    });
                    // Detection latency is bounded by the scans it took.
                    obs.faults()
                        .detection_ns
                        .record_duration(cfg.heartbeat_interval * track.stale);
                    track.stale = 0;
                    enqueue(&inner, &mut pending, &mut queued, unit);
                }
            }
        }

        // 3. Drive one recovery per scan (the storm guard), skipping
        // entries still backing off.
        let now = Instant::now();
        if let Some(pos) = pending.iter().position(|p| p.eligible_at <= now) {
            let mut p = pending.remove(pos).expect("position is in bounds");
            p.attempts += 1;
            inner.mark_recovering();
            obs.recovery().started.inc();
            obs.recovery().in_flight.set(1);
            obs.record_event(EventKind::RecoveryStarted {
                instance: p.label.clone(),
                attempt: p.attempts,
            });
            let result = reconfig::recover(&inner, &mut inner.control.lock(), p.unit);
            obs.recovery().in_flight.set(0);
            match result {
                Ok(()) => {
                    obs.recovery().succeeded.inc();
                    obs.recovery()
                        .mttr_ns
                        .record_duration(p.detected_at.elapsed());
                    obs.record_event(EventKind::RecoverySucceeded {
                        instance: p.label.clone(),
                        attempt: p.attempts,
                    });
                    queued.remove(&p.unit);
                }
                Err(e) => {
                    obs.recovery().failed.inc();
                    obs.record_event(EventKind::RecoveryFailed {
                        instance: p.label.clone(),
                        attempt: p.attempts,
                        error: e.to_string(),
                    });
                    if p.attempts >= MAX_ATTEMPTS {
                        // Exhausted: escalate and stop retrying this unit.
                        inner.mark_degraded();
                        queued.remove(&p.unit);
                    } else {
                        p.eligible_at = now + backoff_for(&cfg, p.attempts, &mut rng);
                        pending.push_back(p);
                    }
                }
            }
        }

        if pending.is_empty() {
            inner.mark_stable();
        }
    }
}

fn enqueue(
    inner: &Arc<Inner>,
    pending: &mut VecDeque<PendingRecovery>,
    queued: &mut HashSet<RecoveryUnit>,
    unit: RecoveryUnit,
) {
    if !queued.insert(unit) {
        return; // already queued or backing off
    }
    let label = inner.units[unit.unit].label(unit.replica);
    let now = Instant::now();
    pending.push_back(PendingRecovery {
        unit,
        label,
        attempts: 0,
        detected_at: now,
        eligible_at: now,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_fires_exactly_once_on_the_nth_item() {
        let spec = WorkerFault {
            task: "t".into(),
            replica: 0,
            nth: 3,
            action: FaultAction::Panic,
        };
        let t = FaultTrigger::new(&spec);
        assert_eq!(t.poll(), None);
        assert_eq!(t.poll(), None);
        assert!(!t.spent());
        assert_eq!(t.poll(), Some(FaultAction::Panic));
        assert!(t.spent());
        for _ in 0..10 {
            assert_eq!(t.poll(), None);
        }
    }

    #[test]
    fn zero_nth_is_clamped_to_first_item() {
        let spec = WorkerFault {
            task: "t".into(),
            replica: 0,
            nth: 0,
            action: FaultAction::Stall(Duration::from_millis(1)),
        };
        let t = FaultTrigger::new(&spec);
        assert_eq!(t.poll(), Some(FaultAction::Stall(Duration::from_millis(1))));
        assert_eq!(t.poll(), None);
    }

    #[test]
    fn plan_builder_and_noop() {
        assert!(FaultPlan::seeded(7).is_noop());
        let plan = FaultPlan::seeded(7)
            .with_worker_panic("bump_0", 1, 40)
            .with_worker_stall("bump_0", 0, 10, Duration::from_millis(200))
            .with_store_faults(StoreFaultSpec {
                write_error_every: 5,
                ..Default::default()
            });
        assert!(!plan.is_noop());
        assert_eq!(plan.worker_faults.len(), 2);
        assert_eq!(plan.worker_faults[0].action, FaultAction::Panic);
        assert_eq!(plan.store_faults.write_error_every, 5);
        // A plan with only store faults is not a no-op either.
        assert!(!FaultPlan::seeded(0)
            .with_store_faults(StoreFaultSpec {
                read_error_every: 2,
                ..Default::default()
            })
            .is_noop());
    }

    #[test]
    fn draws_are_deterministic_and_in_range() {
        let plan = FaultPlan::seeded(42);
        let a = plan.draw("panic-site", 10, 50);
        let b = plan.draw("panic-site", 10, 50);
        assert_eq!(a, b, "same seed + label must draw the same value");
        assert!((10..=50).contains(&a));
        // Different labels and different seeds decorrelate.
        let c = plan.draw("other-site", 10, 50);
        let d = FaultPlan::seeded(43).draw("panic-site", 10, 50);
        assert!((10..=50).contains(&c) && (10..=50).contains(&d));
        assert_eq!(plan.draw("x", 7, 7), 7, "degenerate range");
    }

    #[test]
    fn backoff_grows_exponentially_and_respects_the_cap() {
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            ..Default::default()
        };
        let mut rng = XorShift64::new(9);
        for attempt in 1..=10u32 {
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(Duration::from_millis(200));
            let b = backoff_for(&cfg, attempt, &mut rng);
            // Jitter scales into [50%, 100%] of the capped exponential.
            assert!(b <= exp, "attempt {attempt}: {b:?} > {exp:?}");
            assert!(b >= exp / 2, "attempt {attempt}: {b:?} < half of {exp:?}");
        }
    }

    #[test]
    fn xorshift_is_deterministic_and_covers_victims() {
        let mut a = XorShift64::new(3);
        let mut b = XorShift64::new(3);
        let mut seen = [false; 4];
        for _ in 0..64 {
            let v = a.next();
            assert_eq!(v, b.next());
            seen[(v % 4) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all victims probed: {seen:?}");
    }

    #[test]
    fn panic_payloads_render() {
        let a: Box<dyn std::any::Any + Send> = Box::new("static str");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        let c: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(a.as_ref()), "static str");
        assert_eq!(panic_message(b.as_ref()), "owned");
        assert_eq!(panic_message(c.as_ref()), "panic payload of unknown type");
    }

    #[test]
    fn health_round_trips_through_u8() {
        for h in [Health::Healthy, Health::Recovering, Health::Degraded] {
            assert_eq!(Health::from_u8(h.as_u8()), h);
        }
        assert_eq!(Health::from_u8(99), Health::Healthy);
    }

    #[test]
    fn injector_rejects_unknown_task_names() {
        let sdg = Sdg::default();
        let plan = FaultPlan::seeded(1).with_worker_panic("nope_0", 0, 5);
        let err = FaultInjector::resolve(Some(&plan), &sdg).unwrap_err();
        assert!(err.to_string().contains("nope_0"), "got: {err}");
        // An absent or empty plan resolves to an empty injector.
        assert!(FaultInjector::resolve(None, &sdg)
            .unwrap()
            .trigger_for(TaskId(0), 0)
            .is_none());
    }
}
