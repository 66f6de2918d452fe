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
//!    `catch_unwind` boundary; a caught panic is reported through the
//!    deployment's [`FailureHub`] straight into the inbox of the control
//!    thread (`control::start`), which wakes and hands it to the
//!    `Supervisor`: no scan waits between the panic and its recovery.
//!    Independently, and only with `hang_detection` on, every mailbox
//!    counts the messages popped from it — its heartbeat epoch — and the
//!    supervisor scans the epochs every `heartbeat_interval` to flag
//!    actors that sit on a non-empty mailbox without making progress.
//! 3. **Recovery** — the supervisor drives the existing §5
//!    fail-and-recover path (restore from the backup chain, replay
//!    upstream buffers past the watermark) with bounded exponential
//!    backoff and jitter, at most one recovery per `heartbeat_interval`
//!    (the storm guard), and escalation to the terminal
//!    [`Health::Degraded`] state after `MAX_ATTEMPTS` (5) failed attempts.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use sdg_checkpoint::backup::StoreFaultSpec;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::TaskId;
use sdg_common::obs::{EventKind, MetricsRegistry};
use sdg_graph::model::Sdg;

use crate::config::SupervisorConfig;
use crate::control::Wake;
use crate::deploy::Inner;
use crate::reconfig;

/// Recovery attempts per failed instance before the supervisor escalates
/// to the terminal [`Health::Degraded`] state.
pub(crate) const MAX_ATTEMPTS: u32 = 5;

/// What an armed injection point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic the worker mid-loop; caught at the pool's panic boundary and
    /// reported through the [`FailureHub`].
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

/// Where the pool's panic boundary reports caught panics
/// (`PanicProbe::report`).
#[derive(Debug)]
pub struct FailureHub {
    pub(crate) obs: Arc<MetricsRegistry>,
    /// The control thread's inbox, while a supervisor reads it.
    pub(crate) supervisor: Option<Sender<Wake>>,
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
    /// TE instance label, e.g. `bump_0#1`.
    pub label: String,
    pub hub: Arc<FailureHub>,
}

impl PanicProbe {
    /// Reports a caught panic: it logs the `worker_panicked` event and
    /// bumps the panic counter, so failures are visible even when the
    /// supervisor is disabled. While it is enabled, the report then wakes
    /// the control thread ([`crate::control`]), whose [`Supervisor`]
    /// queues the recovery; without one, nothing is kept.
    pub(crate) fn report(&self, payload: &(dyn std::any::Any + Send)) {
        let obs = &self.hub.obs;
        obs.faults().worker_panics.inc();
        obs.record_event(EventKind::WorkerPanicked {
            instance: self.label.clone(),
            message: panic_message(payload),
        });
        if let Some(inbox) = &self.hub.supervisor {
            // Fails only once the control thread has stopped.
            let _ = inbox.send(Wake::Failed(self.unit, Instant::now()));
        }
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

/// The supervisor, owned by the control thread ([`crate::control`]): it
/// (1) queues each caught panic as its report arrives, (2) scans the
/// heartbeat epochs for hung instances every `heartbeat_interval` while
/// `hang_detection` is on, and (3) drives the queued recoveries with
/// backoff, at most one per `heartbeat_interval` (the storm guard), and
/// Degraded escalation.
pub(crate) struct Supervisor {
    cfg: SupervisorConfig,
    rng: XorShift64,
    /// The failed units awaiting recovery or backing off, each once.
    pending: VecDeque<PendingRecovery>,
    tracks: HashMap<RecoveryUnit, HeartbeatTrack>,
    /// The next heartbeat scan; `None` without hang detection.
    next_scan: Option<Instant>,
    /// No recovery starts before this: the storm guard.
    next_recovery: Instant,
}

impl Supervisor {
    pub(crate) fn new(inner: &Inner) -> Supervisor {
        let cfg = inner.cfg.supervisor.clone();
        let seed = inner.cfg.faults.as_ref().map_or(0, |p| p.seed);
        let now = Instant::now();
        Supervisor {
            rng: XorShift64::new(seed ^ 0x5de7_ec7e_d5ba_dbed),
            pending: VecDeque::new(),
            tracks: HashMap::new(),
            next_scan: cfg.hang_detection.then(|| now + cfg.heartbeat_interval),
            next_recovery: now,
            cfg,
        }
    }

    /// When the supervisor next has work: its next scan, or the first
    /// recovery that backoff and the storm guard allow. `None` while it
    /// has neither.
    pub(crate) fn due(&self) -> Option<Instant> {
        let recovery = self.pending.iter().map(|p| p.eligible_at).min();
        let recovery = recovery.map(|at| at.max(self.next_recovery));
        recovery.into_iter().chain(self.next_scan).min()
    }

    /// Queues the unit of a panic caught `at`: its detection is precise.
    pub(crate) fn failed(&mut self, inner: &Inner, unit: RecoveryUnit, at: Instant) {
        inner
            .obs
            .faults()
            .detection_ns
            .record_duration(at.elapsed());
        self.enqueue(inner, unit);
    }

    /// Does what is due at `now`: a heartbeat scan, then one recovery.
    pub(crate) fn tick(&mut self, inner: &Inner, now: Instant) {
        if self.next_scan.is_some_and(|at| at <= now) {
            self.scan(inner);
            self.next_scan = Some(Instant::now() + self.cfg.heartbeat_interval);
        }
        let eligible = self.pending.iter().position(|p| p.eligible_at <= now);
        if let Some(pos) = eligible.filter(|_| self.next_recovery <= now) {
            self.recover(inner, pos, now);
            self.next_recovery = Instant::now() + self.cfg.heartbeat_interval;
        }
        if self.pending.is_empty() {
            inner.set_health(Health::Healthy);
        }
    }

    /// Flags each instance whose heartbeat epoch (its mailbox's pop count)
    /// stalls across `miss_threshold` scans while items wait for it and it
    /// holds a pool thread: `Idle`, `Scheduled`, `Suspended` and `Resting`
    /// actors legitimately sit on a stalled epoch. Dead instances and ones
    /// queued for recovery are skipped.
    fn scan(&mut self, inner: &Inner) {
        let obs = &inner.obs;
        for (u, group) in inner.units.iter().enumerate() {
            for (replica, instance) in group.route.read().iter().enumerate() {
                let unit = RecoveryUnit {
                    unit: u,
                    replica: replica as u32,
                };
                let (epoch, queued, running) = instance.tx.progress();
                let pending = self.pending.iter().any(|p| p.unit == unit);
                let track = (self.tracks.entry(unit)).or_insert(HeartbeatTrack { epoch, stale: 0 });
                let alive = instance.alive.load(Ordering::Acquire);
                if epoch != track.epoch || !alive || queued == 0 || !running || pending {
                    *track = HeartbeatTrack { epoch, stale: 0 };
                    continue;
                }
                track.stale += 1;
                if track.stale < self.cfg.miss_threshold {
                    continue;
                }
                let missed = std::mem::take(&mut track.stale);
                obs.faults().heartbeats_missed.inc();
                obs.record_event(EventKind::HeartbeatMissed {
                    instance: group.label(unit.replica),
                    missed,
                });
                // Detection latency is bounded by the scans it took.
                obs.faults()
                    .detection_ns
                    .record_duration(self.cfg.heartbeat_interval * missed);
                self.enqueue(inner, unit);
            }
        }
    }

    /// Runs attempt `attempts + 1` of the queued recovery at `pos`: on
    /// failure it backs off from `now`, or escalates after
    /// [`MAX_ATTEMPTS`].
    fn recover(&mut self, inner: &Inner, pos: usize, now: Instant) {
        let obs = &inner.obs;
        let mut p = self.pending.remove(pos).expect("position is in bounds");
        p.attempts += 1;
        inner.set_health(Health::Recovering);
        obs.recovery().started.inc();
        obs.recovery().in_flight.set(1);
        obs.record_event(EventKind::RecoveryStarted {
            instance: p.label.clone(),
            attempt: p.attempts,
        });
        let result = reconfig::recover(inner, &mut inner.control.lock(), p.unit);
        obs.recovery().in_flight.set(0);
        match result {
            Ok(()) => {
                obs.recovery().succeeded.inc();
                obs.recovery()
                    .mttr_ns
                    .record_duration(p.detected_at.elapsed());
                obs.record_event(EventKind::RecoverySucceeded {
                    instance: p.label,
                    attempt: p.attempts,
                });
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
                    inner.set_health(Health::Degraded);
                } else {
                    p.eligible_at = now + backoff_for(&self.cfg, p.attempts, &mut self.rng);
                    self.pending.push_back(p);
                }
            }
        }
    }

    fn enqueue(&mut self, inner: &Inner, unit: RecoveryUnit) {
        if self.pending.iter().any(|p| p.unit == unit) {
            return; // already queued or backing off
        }
        let now = Instant::now();
        self.pending.push_back(PendingRecovery {
            unit,
            label: inner.units[unit.unit].label(unit.replica),
            attempts: 0,
            detected_at: now,
            eligible_at: now,
        });
    }
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
