//! The work-stealing actor pool: the scheduler that runs every TE instance.
//!
//! Every TE instance is an *actor* — a FIFO mailbox plus the instance's
//! [`Worker`] — multiplexed onto a fixed pool of
//! `RuntimeConfig::sched_threads` OS threads, so a deployment costs a few
//! threads however many replicas the reconfiguration plane adds:
//!
//! - **Serial mailboxes.** At most one pool worker runs an actor at a
//!   time, so per-instance ordering and dedupe semantics are those of one
//!   serial consumer. One mutex guards both the queue and the actor's run
//!   state, so a push can never race an idle transition into a lost
//!   wakeup.
//! - **Work stealing.** Runnable actors sit in per-worker local deques
//!   (owner pops newest) or a global injector; an idle worker takes its
//!   own work first, then the injector, then steals the *oldest* work from
//!   randomly probed victims. Idle workers park on a condvar.
//! - **Wake protocol.** Any push that makes an actor runnable — onto a
//!   local deque or the injector, from a timer fire or a credit resume —
//!   wakes one parked worker if any is parked, so a runnable actor never
//!   waits for a parked worker's `MAX_PARK` timeout. A push reads the
//!   atomic parked count and takes the idle lock only when it is non-zero;
//!   a parking worker announces itself in that count under the idle lock
//!   and then re-scans the deques, so it either sees the push or the push
//!   sees it — and the lock makes the wake land after it is waiting.
//! - **Credit-based backpressure.** A send from inside an actor never
//!   blocks the pool thread: the message is pushed unconditionally and, if
//!   the destination is at capacity, the *producer actor* suspends after
//!   its slice, registering itself as a waiter on each over-full mailbox.
//!   The pop that takes a mailbox back under capacity reschedules its
//!   waiters. Suspension only ever propagates upstream (consumers never
//!   wait on producers), so on a DAG the sinks always drain and, by
//!   induction over reverse topological order, every suspended actor is
//!   eventually resumed — no deadlock. External threads (ingest, control
//!   plane) block on the mailbox condvar instead, like a bounded channel.
//! - **Timer heap.** One shared min-heap holds the ends of synthetic
//!   service-time rests: an actor that owes `RuntimeConfig::work_ns`
//!   service time is `Resting` on the heap instead of sleeping a pool
//!   thread, so the simulated cluster's capacity grows with its instances,
//!   not with the pool size. Workers fire due entries before every slice
//!   and bound their park time by the earliest deadline.
//!
//! `Stop` retires the actor; dropping the last [`PoolSender`] (the
//! scale-in/recovery slot swap) lets the actor drain what is queued and
//! then retire, like a consumer observing channel disconnect. Sends to a
//! retired actor fail with [`SendClosed`].

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdg_common::obs::SchedInstruments;

use crate::worker::{SendClosed, Worker, WorkerMsg};

/// Messages an actor processes per activation before rescheduling itself:
/// long enough to amortise wakeup cost over a batch drain, short enough
/// that one busy mailbox cannot monopolise a pool worker.
const RUN_SLICE: usize = 128;

/// Longest a pool worker parks before re-checking for work. Wakes make it
/// a backstop only: every runnable push and every timer registration
/// wakes a parked worker.
const MAX_PARK: Duration = Duration::from_millis(50);

/// [`PoolShared::next_due`] when the timer heap is empty.
const NO_TIMER: u64 = u64::MAX;

/// Run state of an actor, kept under the mailbox lock so queue contents
/// and scheduling decisions can never disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// Not queued anywhere; the next push schedules it.
    Idle,
    /// Sitting in a pool deque awaiting a worker.
    Scheduled,
    /// Owned by a pool worker right now.
    Running,
    /// Waiting for credit on one or more full downstream mailboxes.
    Suspended,
    /// Serving synthetic service time until the deadline: pushes only
    /// enqueue, and the timer heap reschedules the actor once it is due.
    Resting(Instant),
}

/// Everything guarded by the mailbox lock.
struct MailboxInner {
    queue: VecDeque<WorkerMsg>,
    state: RunState,
    /// Live [`PoolSender`] clones. Zero mirrors channel disconnect.
    senders: usize,
    /// The actor retired (`Stop` processed, or disconnect drain finished):
    /// further sends fail like sends to a dropped receiver.
    closed: bool,
    /// All senders dropped; retire once the queue drains.
    disconnected: bool,
    /// Producer actors suspended on this mailbox's credit.
    waiters: Vec<Arc<Actor>>,
    /// External senders blocked on `not_full` since the last notify; pops
    /// notify only when one is waiting.
    blocked_senders: usize,
}

/// One TE instance scheduled on the pool: a serial mailbox plus the
/// instance's [`Worker`] (present until the actor retires).
struct Actor {
    mb: Mutex<MailboxInner>,
    /// Signals external (non-actor) senders blocked on a full mailbox.
    not_full: Condvar,
    /// Mailbox capacity (`RuntimeConfig::channel_capacity`). In-actor and
    /// forced sends may overfill past it; the overfill is repaid through
    /// producer suspension.
    cap: usize,
    worker: Mutex<Option<Worker>>,
    shared: Arc<PoolShared>,
}

/// Per-thread context present while a pool worker runs an actor slice.
struct ActorCtx {
    /// The actor being run (self-sends are exempt from suspension: the
    /// actor drains its own mailbox, so waiting on it would never end).
    actor: Arc<Actor>,
    /// Over-capacity destinations pushed into during the slice.
    blocked: Vec<Arc<Actor>>,
    /// Index of the pool worker running the slice, for local rescheduling.
    me: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<ActorCtx>> = const { RefCell::new(None) };
}

/// The pool-worker index of the slice running on this thread, if any.
fn ctx_worker() -> Option<usize> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.me))
}

/// Sending half of an actor mailbox. Clones are counted: when the last
/// clone drops, the mailbox disconnects and the actor drains what is
/// queued, then retires.
pub struct PoolSender {
    actor: Arc<Actor>,
}

impl PoolSender {
    /// Delivers `msg`. From inside a pool slice this never blocks the pool
    /// thread: the message is pushed unconditionally and an over-full
    /// destination suspends the producer actor after its slice. External
    /// threads block on the mailbox condvar, like a bounded channel send.
    pub fn send(&self, msg: WorkerMsg) -> Result<(), SendClosed> {
        self.actor.push(msg, false)
    }

    /// Delivers `msg` without waiting for space even from an external
    /// thread. Used by paths that run under the target-list write guards
    /// (recovery replay, victim `Stop`, shutdown), where waiting could
    /// stall every pool worker behind the same guards.
    pub fn force_send(&self, msg: WorkerMsg) -> Result<(), SendClosed> {
        self.actor.push(msg, true)
    }

    /// Messages queued in the mailbox (join-shortest-queue dispatch, drain
    /// barriers, queue-depth gauges).
    pub fn len(&self) -> usize {
        self.actor.mb.lock().expect("mailbox lock").queue.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the actor holds a pool thread right now. The supervisor's
    /// hang detection only suspects `Running` actors: `Idle`, `Scheduled`,
    /// `Suspended` and `Resting` actors legitimately sit on stalled
    /// heartbeat epochs while queued behind busy workers, awaiting send
    /// credit, or serving synthetic service time.
    pub(crate) fn is_running(&self) -> bool {
        self.actor.mb.lock().expect("mailbox lock").state == RunState::Running
    }
}

impl Clone for PoolSender {
    fn clone(&self) -> Self {
        self.actor.mb.lock().expect("mailbox lock").senders += 1;
        PoolSender {
            actor: Arc::clone(&self.actor),
        }
    }
}

impl Drop for PoolSender {
    fn drop(&mut self) {
        let schedule = {
            let mut mb = self.actor.mb.lock().expect("mailbox lock");
            mb.senders -= 1;
            if mb.senders > 0 || mb.closed {
                false
            } else {
                // Last sender gone: schedule the actor so it drains the
                // remaining queue and retires.
                mb.disconnected = true;
                if mb.state == RunState::Idle {
                    mb.state = RunState::Scheduled;
                    true
                } else {
                    false
                }
            }
        };
        if schedule {
            self.actor
                .shared
                .schedule(Arc::clone(&self.actor), ctx_worker());
        }
    }
}

impl Actor {
    fn push(self: &Arc<Self>, msg: WorkerMsg, force: bool) -> Result<(), SendClosed> {
        let in_ctx = CURRENT.with(|c| c.borrow().is_some());
        let mut mb = self.mb.lock().expect("mailbox lock");
        if !in_ctx && !force {
            while !mb.closed && mb.queue.len() >= self.cap {
                mb.blocked_senders += 1;
                mb = self.not_full.wait(mb).expect("mailbox lock");
            }
        }
        if mb.closed {
            return Err(SendClosed);
        }
        mb.queue.push_back(msg);
        let schedule = mb.state == RunState::Idle;
        if schedule {
            mb.state = RunState::Scheduled;
        }
        let over = in_ctx && mb.queue.len() >= self.cap;
        drop(mb);
        if schedule {
            self.shared.schedule(Arc::clone(self), ctx_worker());
        }
        if over {
            // Record the over-full destination; the producer suspends on
            // it once its slice ends. Self-sends are exempt (the actor is
            // the one draining this mailbox).
            CURRENT.with(|c| {
                if let Some(ctx) = c.borrow_mut().as_mut() {
                    if !Arc::ptr_eq(&ctx.actor, self)
                        && !ctx.blocked.iter().any(|a| Arc::ptr_eq(a, self))
                    {
                        ctx.blocked.push(Arc::clone(self));
                    }
                }
            });
        }
        Ok(())
    }

    /// Pops one message. Returns the message, the waiters to resume when
    /// the pop crossed back under capacity, and the disconnect flag.
    ///
    /// Blocked external senders are woken only once the queue has drained
    /// to half its capacity, so a closed-loop feeder refills half a mailbox
    /// per wake instead of trading one context switch per message with the
    /// consumer at the capacity edge. The notify claims every counted
    /// sender; one that has to wait again counts itself again.
    fn pop(&self) -> (Option<WorkerMsg>, Vec<Arc<Actor>>, bool) {
        let mut mb = self.mb.lock().expect("mailbox lock");
        let msg = mb.queue.pop_front();
        let mut waiters = Vec::new();
        if msg.is_some() && mb.queue.len() + 1 == self.cap {
            // Crossed from at-capacity to under-capacity: hand the credit
            // to suspended producers.
            waiters = std::mem::take(&mut mb.waiters);
        }
        let notify = mb.blocked_senders > 0 && mb.queue.len() <= self.cap / 2;
        if notify {
            mb.blocked_senders = 0;
        }
        let disconnected = mb.disconnected;
        drop(mb);
        if notify {
            self.not_full.notify_all();
        }
        (msg, waiters, disconnected)
    }
}

/// A timer-heap deadline for one actor, ordered by `(deadline, seq)`.
struct TimerEntry {
    at: Instant,
    seq: u64,
    actor: Arc<Actor>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The shared deadline min-heap.
struct TimerHeap {
    heap: BinaryHeap<Reverse<TimerEntry>>,
    seq: u64,
}

/// State shared by all pool workers, senders and actors.
struct PoolShared {
    /// Global FIFO of runnable actors (external injections).
    injector: Mutex<VecDeque<Arc<Actor>>>,
    /// Per-worker deques: owner pushes/pops the back, thieves steal the
    /// front.
    locals: Vec<Mutex<VecDeque<Arc<Actor>>>>,
    /// Workers parked (or announcing that they are about to park) on
    /// `idle_cv`. Raised under `idle`.
    parked: AtomicUsize,
    /// Held by a parking worker from its announcement until it waits, so
    /// a wake that takes it cannot fall between the re-scan and the wait.
    idle: Mutex<()>,
    idle_cv: Condvar,
    timers: Mutex<TimerHeap>,
    /// Earliest heap deadline as nanoseconds since `origin` ([`NO_TIMER`]
    /// when empty), so workers check for due timers without the heap lock.
    next_due: AtomicU64,
    origin: Instant,
    /// Actors not yet retired; `join` waits for zero.
    live: Mutex<usize>,
    done: Condvar,
    shutdown: AtomicBool,
    obs: Arc<SchedInstruments>,
}

impl PoolShared {
    fn new(workers: usize, obs: Arc<SchedInstruments>) -> Self {
        PoolShared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            parked: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            timers: Mutex::new(TimerHeap {
                heap: BinaryHeap::new(),
                seq: 0,
            }),
            next_due: AtomicU64::new(NO_TIMER),
            origin: Instant::now(),
            live: Mutex::new(0),
            done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            obs,
        }
    }

    /// Queues a runnable actor — onto the scheduling worker's own deque
    /// when called from a pool slice (locality), onto the global injector
    /// otherwise — and wakes one parked worker if any is parked.
    fn schedule(&self, actor: Arc<Actor>, me: Option<usize>) {
        match me {
            Some(me) => self.locals[me].lock().expect("deque lock").push_back(actor),
            None => self
                .injector
                .lock()
                .expect("injector lock")
                .push_back(actor),
        }
        self.wake_if_parked();
    }

    /// Wakes one parked worker, if any, without taking the idle lock when
    /// none is. The fence pairs with the one in `worker_loop`'s park path:
    /// either this load sees the parker's announcement, or the parker's
    /// re-scan sees what was pushed before it.
    fn wake_if_parked(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.idle.lock().expect("idle lock"));
            self.idle_cv.notify_one();
        }
    }

    /// Whether any deque holds a runnable actor (the park re-check).
    fn has_runnable(&self) -> bool {
        !self.injector.lock().expect("injector lock").is_empty()
            || self
                .locals
                .iter()
                .any(|l| !l.lock().expect("deque lock").is_empty())
    }

    /// Resumes suspended actors whose awaited credit arrived.
    fn resume(&self, waiters: Vec<Arc<Actor>>, me: Option<usize>) {
        for actor in waiters {
            let schedule = {
                let mut mb = actor.mb.lock().expect("mailbox lock");
                if mb.state == RunState::Suspended {
                    mb.state = RunState::Scheduled;
                    true
                } else {
                    // Already rescheduled through another mailbox's credit
                    // (or retired); stale registrations are no-ops.
                    false
                }
            };
            if schedule {
                self.obs.resumes.inc();
                self.schedule(actor, me);
            }
        }
    }

    /// `at` as nanoseconds since the pool started.
    fn since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Registers the end of `actor`'s rest.
    fn register_timer(&self, at: Instant, actor: Arc<Actor>) {
        {
            let mut t = self.timers.lock().expect("timer lock");
            t.seq += 1;
            let seq = t.seq;
            t.heap.push(Reverse(TimerEntry { at, seq, actor }));
            self.next_due
                .fetch_min(self.since_origin(at), Ordering::SeqCst);
        }
        // A parked worker may be sleeping past the new deadline: wake one
        // so it re-parks against the updated heap minimum.
        self.wake_if_parked();
    }

    /// Pops the earliest entry if it is due at `now`.
    fn pop_due(&self, now: Instant) -> Option<Arc<Actor>> {
        let mut t = self.timers.lock().expect("timer lock");
        let due = matches!(t.heap.peek(), Some(Reverse(e)) if e.at <= now);
        let actor = if due {
            t.heap.pop().map(|e| e.0.actor)
        } else {
            None
        };
        let next = t
            .heap
            .peek()
            .map_or(NO_TIMER, |e| self.since_origin(e.0.at));
        self.next_due.store(next, Ordering::SeqCst);
        actor
    }

    /// Schedules every resting actor whose rest is over; returns the count.
    /// Without a due deadline this is one atomic load (and a clock read
    /// when the heap is not empty), so workers call it before every slice.
    fn fire_due_timers(&self, me: usize) -> usize {
        let due = self.next_due.load(Ordering::SeqCst);
        if due == NO_TIMER {
            return 0;
        }
        let now = Instant::now();
        if self.since_origin(now) < due {
            return 0;
        }
        let mut fired = 0;
        while let Some(actor) = self.pop_due(now) {
            let schedule = {
                let mut mb = actor.mb.lock().expect("mailbox lock");
                // Only a rest's own end reschedules the actor: an entry
                // for an actor in any other state, or due before its
                // current rest ends, is stale.
                let fire =
                    !mb.closed && matches!(mb.state, RunState::Resting(until) if until <= now);
                if fire {
                    mb.state = RunState::Scheduled;
                }
                fire
            };
            if schedule {
                self.obs.timer_fires.inc();
                self.schedule(actor, Some(me));
                fired += 1;
            }
        }
        fired
    }

    fn next_timer(&self) -> Option<Instant> {
        let due = self.next_due.load(Ordering::SeqCst);
        (due != NO_TIMER).then(|| self.origin + Duration::from_nanos(due))
    }

    fn retire_one(&self) {
        let mut live = self.live.lock().expect("live lock");
        *live -= 1;
        if *live == 0 {
            self.done.notify_all();
        }
    }
}

/// A minimal xorshift generator for victim selection — deterministic per
/// worker, no shared state.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift((seed.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The work-stealing actor pool. One per deployment.
pub struct Pool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Starts `threads` pool workers reporting through `obs`.
    pub(crate) fn start(threads: usize, obs: Arc<SchedInstruments>) -> Arc<Pool> {
        let n = threads.max(1);
        obs.workers.set(n as u64);
        let shared = Arc::new(PoolShared::new(n, obs));
        let handles = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sdg-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(Pool {
            shared,
            threads: Mutex::new(handles),
        })
    }

    /// Registers `worker` as a pool actor with mailbox capacity `cap` and
    /// returns its sending half.
    pub(crate) fn spawn_actor(&self, worker: Worker, cap: usize) -> PoolSender {
        *self.shared.live.lock().expect("live lock") += 1;
        PoolSender {
            actor: new_actor(&self.shared, cap, Some(worker)),
        }
    }

    /// Waits until every actor has retired, then stops and joins the pool
    /// workers. Called by `Deployment::shutdown` after `Stop` fan-out.
    pub(crate) fn join(&self) {
        {
            let mut live = self.shared.live.lock().expect("live lock");
            while *live > 0 {
                // The timeout only guards a hypothetically missed notify;
                // retirement always signals `done`.
                let (guard, _) = self
                    .shared
                    .done
                    .wait_timeout(live, Duration::from_millis(50))
                    .expect("live lock");
                live = guard;
            }
        }
        self.stop_workers();
    }

    fn stop_workers(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Take the idle lock so no worker can re-park between the flag
        // store and the broadcast.
        drop(self.shared.idle.lock().expect("idle lock"));
        self.shared.idle_cv.notify_all();
        for handle in self.threads.lock().expect("thread list").drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // A deployment dropped without `shutdown()` abandons queued work,
        // but the pool workers themselves must still exit.
        self.stop_workers();
    }
}

fn new_actor(shared: &Arc<PoolShared>, cap: usize, worker: Option<Worker>) -> Arc<Actor> {
    Arc::new(Actor {
        mb: Mutex::new(MailboxInner {
            queue: VecDeque::new(),
            state: RunState::Idle,
            senders: 1,
            closed: false,
            disconnected: false,
            waiters: Vec::new(),
            blocked_senders: 0,
        }),
        not_full: Condvar::new(),
        cap: cap.max(1),
        worker: Mutex::new(worker),
        shared: Arc::clone(shared),
    })
}

/// Main loop of one pool worker.
fn worker_loop(shared: &Arc<PoolShared>, me: usize) {
    let mut rng = XorShift::new(me as u64);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Due timers go first: a pool that always finds work would
        // otherwise never reach them.
        shared.fire_due_timers(me);
        if let Some(actor) = find_task(shared, me, &mut rng) {
            run_actor(shared, me, actor);
            continue;
        }
        // Park: announce, then re-scan. A push that read `parked` before
        // the announcement skipped its wake, so the re-scan must see it; a
        // later push wakes this worker, and holding `idle` until the wait
        // keeps that wake from landing before it.
        let idle = shared.idle.lock().expect("idle lock");
        if shared.shutdown.load(Ordering::Acquire) {
            continue;
        }
        shared.parked.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if shared.has_runnable() {
            shared.parked.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let wait = shared
            .next_timer()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(MAX_PARK)
            .min(MAX_PARK);
        shared.obs.parks.inc();
        let (idle, _) = shared.idle_cv.wait_timeout(idle, wait).expect("idle lock");
        shared.parked.fetch_sub(1, Ordering::SeqCst);
        drop(idle);
    }
}

/// Finds the next runnable actor: own deque (newest), then the injector,
/// then randomized stealing of the oldest work from other workers.
fn find_task(shared: &PoolShared, me: usize, rng: &mut XorShift) -> Option<Arc<Actor>> {
    if let Some(actor) = shared.locals[me].lock().expect("deque lock").pop_back() {
        return Some(actor);
    }
    if let Some(actor) = shared.injector.lock().expect("injector lock").pop_front() {
        return Some(actor);
    }
    let n = shared.locals.len();
    if n > 1 {
        for _ in 0..2 * n {
            let victim = (rng.next() as usize) % n;
            if victim == me {
                continue;
            }
            if let Some(actor) = shared.locals[victim]
                .lock()
                .expect("deque lock")
                .pop_front()
            {
                shared.obs.steals.inc();
                return Some(actor);
            }
        }
    }
    None
}

/// Runs one actor slice: drain up to [`RUN_SLICE`] messages, then hand the
/// actor back to the scheduler in the appropriate state.
fn run_actor(shared: &Arc<PoolShared>, me: usize, actor: Arc<Actor>) {
    {
        let mut mb = actor.mb.lock().expect("mailbox lock");
        if mb.closed {
            // A stale deque or timer entry for a retired actor.
            mb.state = RunState::Idle;
            return;
        }
        debug_assert_eq!(mb.state, RunState::Scheduled);
        mb.state = RunState::Running;
    }
    let Some(mut worker) = actor.worker.lock().expect("worker slot").take() else {
        actor.mb.lock().expect("mailbox lock").state = RunState::Idle;
        return;
    };
    shared.obs.polls.inc();
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(ActorCtx {
            actor: Arc::clone(&actor),
            blocked: Vec::new(),
            me,
        });
    });
    let mut stopped = false;
    let mut processed = 0usize;
    loop {
        let blocked = CURRENT.with(|c| c.borrow().as_ref().is_some_and(|x| !x.blocked.is_empty()));
        if blocked || worker.owes_rest() {
            break;
        }
        let (msg, waiters, disconnected) = actor.pop();
        if !waiters.is_empty() {
            shared.resume(waiters, Some(me));
        }
        match msg {
            None => {
                // The queue is drained: retire once every sender dropped.
                stopped = disconnected;
                break;
            }
            Some(msg) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.step(msg))) {
                    Ok(true) => {
                        stopped = true;
                        break;
                    }
                    Ok(false) => {
                        processed += 1;
                        if processed >= RUN_SLICE {
                            break;
                        }
                    }
                    Err(payload) => {
                        // The actor dies: report the caught panic, drop the
                        // worker, and retire the mailbox so producers see
                        // disconnect instead of a wedged queue — the pool
                        // worker itself survives to run other actors.
                        let probe = worker.panic_probe();
                        CURRENT.with(|c| {
                            c.borrow_mut().take();
                        });
                        drop(worker);
                        probe.report(payload.as_ref());
                        retire(shared, &actor, Some(me));
                        return;
                    }
                }
            }
        }
    }
    let ctx = CURRENT
        .with(|c| c.borrow_mut().take())
        .expect("actor ctx set for the slice");
    if stopped {
        drop(worker);
        retire(shared, &actor, Some(me));
        return;
    }
    // Owed service time is served through the shared timer heap. The
    // worker goes back before any state transition so whichever pool
    // thread runs the actor next finds it in place.
    let rest = if ctx.blocked.is_empty() {
        worker.take_rest()
    } else {
        None
    };
    *actor.worker.lock().expect("worker slot") = Some(worker);
    if !ctx.blocked.is_empty() {
        // No rest while suspended: the resumed slice rests any owed
        // service time.
        suspend(shared, me, actor, ctx.blocked);
        return;
    }
    if let Some(rest) = rest {
        // Rest instead of sleeping the pool thread. The entry is
        // registered only after the actor is observably Resting, so the
        // fire path cannot miss it; pushes meanwhile only enqueue.
        let until = Instant::now() + rest;
        actor.mb.lock().expect("mailbox lock").state = RunState::Resting(until);
        shared.register_timer(until, actor);
        return;
    }
    let schedule = {
        let mut mb = actor.mb.lock().expect("mailbox lock");
        if mb.queue.is_empty() && !mb.disconnected {
            mb.state = RunState::Idle;
            false
        } else {
            // More input arrived during the slice, or the disconnect
            // drain still has to observe the empty queue.
            mb.state = RunState::Scheduled;
            true
        }
    };
    if schedule {
        shared.schedule(actor, Some(me));
    }
}

/// Suspends `actor` on its over-full destinations (credit wait).
fn suspend(shared: &Arc<PoolShared>, me: usize, actor: Arc<Actor>, blocked: Vec<Arc<Actor>>) {
    actor.mb.lock().expect("mailbox lock").state = RunState::Suspended;
    let mut registered = 0usize;
    for dest in blocked {
        let mut dm = dest.mb.lock().expect("mailbox lock");
        // Re-check under the destination's lock: a drained (or retired)
        // destination owes no credit. A still-full one holds our
        // registration until a pop crosses back under capacity — the same
        // lock serialises that pop against this check, so the wakeup
        // cannot be missed.
        if !dm.closed && dm.queue.len() >= dest.cap {
            dm.waiters.push(Arc::clone(&actor));
            registered += 1;
        }
    }
    if registered == 0 {
        // Every destination drained while the slice was finishing.
        let schedule = {
            let mut mb = actor.mb.lock().expect("mailbox lock");
            if mb.state == RunState::Suspended {
                mb.state = RunState::Scheduled;
                true
            } else {
                false
            }
        };
        if schedule {
            shared.schedule(actor, Some(me));
        }
    } else {
        shared.obs.suspends.inc();
    }
}

/// Retires an actor: marks the mailbox closed, drops whatever is still
/// queued, releases blocked senders and suspended producers, and signals
/// `join`.
fn retire(shared: &Arc<PoolShared>, actor: &Arc<Actor>, me: Option<usize>) {
    let (waiters, notify) = {
        let mut mb = actor.mb.lock().expect("mailbox lock");
        mb.closed = true;
        mb.state = RunState::Idle;
        mb.queue.clear();
        let notify = std::mem::take(&mut mb.blocked_senders) > 0;
        (std::mem::take(&mut mb.waiters), notify)
    };
    if notify {
        actor.not_full.notify_all();
    }
    shared.resume(waiters, me);
    shared.retire_one();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bare actor shell for mailbox-protocol tests: a pool of `workers`
    /// deques with no threads, and one actor without a worker.
    fn shell(workers: usize, cap: usize) -> (Arc<PoolShared>, Arc<Actor>) {
        let shared = Arc::new(PoolShared::new(
            workers,
            Arc::new(SchedInstruments::default()),
        ));
        *shared.live.lock().unwrap() = 1;
        let actor = new_actor(&shared, cap, None);
        (shared, actor)
    }

    /// A thread standing in for a parked pool worker: it announces itself
    /// in `parked` under the idle lock and waits on `idle_cv` for up to
    /// 10 s. Returns once it is parked; joining yields whether it was woken
    /// (notified with an actor runnable) rather than timed out.
    fn parked_stand_in(shared: &Arc<PoolShared>) -> JoinHandle<bool> {
        let parker = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            let mut idle = parker.idle.lock().unwrap();
            parker.parked.fetch_add(1, Ordering::SeqCst);
            let woken = loop {
                let (guard, res) = parker
                    .idle_cv
                    .wait_timeout(idle, Duration::from_secs(10))
                    .unwrap();
                idle = guard;
                if res.timed_out() {
                    break false;
                }
                if parker.has_runnable() {
                    break true;
                }
            };
            parker.parked.fetch_sub(1, Ordering::SeqCst);
            drop(idle);
            woken
        });
        // `parked` is raised under the idle lock, which the stand-in only
        // releases by waiting: once a wake can take the lock, it is
        // waiting.
        while shared.parked.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        handle
    }

    fn marker(corr: u64) -> WorkerMsg {
        WorkerMsg::Item(crate::item::Item {
            edge: sdg_common::ids::EdgeId(1),
            src_replica: 0,
            ts: corr + 1,
            corr,
            expect: 1,
            payload: Arc::new(sdg_common::value::Record::with_capacity(0)),
            submitted_at: None,
        })
    }

    #[test]
    fn mailbox_preserves_fifo_order() {
        let (_shared, actor) = shell(1, 16);
        for i in 0..5u64 {
            actor.push(marker(i), true).unwrap();
        }
        for i in 0..5u64 {
            let (msg, _, _) = actor.pop();
            match msg {
                Some(WorkerMsg::Item(item)) => assert_eq!(item.corr, i),
                other => panic!("expected item, got {other:?}"),
            }
        }
        let (none, _, _) = actor.pop();
        assert!(none.is_none());
    }

    #[test]
    fn push_schedules_an_idle_actor_exactly_once() {
        let (shared, actor) = shell(1, 16);
        actor.push(WorkerMsg::Stop, true).unwrap();
        actor.push(WorkerMsg::Stop, true).unwrap();
        // One injection for two pushes: the second saw `Scheduled`.
        assert_eq!(shared.injector.lock().unwrap().len(), 1);
        assert_eq!(actor.mb.lock().unwrap().state, RunState::Scheduled);
    }

    #[test]
    fn closed_mailbox_rejects_sends_like_a_disconnected_channel() {
        let (shared, actor) = shell(1, 16);
        retire(&shared, &actor, None);
        assert_eq!(actor.push(WorkerMsg::Stop, false), Err(SendClosed));
        assert_eq!(actor.push(WorkerMsg::Stop, true), Err(SendClosed));
        assert_eq!(*shared.live.lock().unwrap(), 0);
    }

    #[test]
    fn pop_crossing_capacity_returns_waiters_once() {
        let (shared, actor) = shell(1, 2);
        let (_, producer) = shell(1, 2);
        producer.mb.lock().unwrap().state = RunState::Suspended;
        for _ in 0..3 {
            actor.push(WorkerMsg::Stop, true).unwrap();
        }
        actor.mb.lock().unwrap().waiters.push(Arc::clone(&producer));
        // len 3 → 2: still at capacity, no credit yet.
        let (_, waiters, _) = actor.pop();
        assert!(waiters.is_empty());
        // len 2 → 1: crossed under capacity, credit handed out.
        let (_, waiters, _) = actor.pop();
        assert_eq!(waiters.len(), 1);
        shared.resume(waiters, None);
        assert_eq!(producer.mb.lock().unwrap().state, RunState::Scheduled);
        assert_eq!(shared.obs.resumes.get(), 1);
        // Subsequent pops find no stale registrations.
        let (_, waiters, _) = actor.pop();
        assert!(waiters.is_empty());
    }

    #[test]
    fn blocked_external_sender_wakes_once_the_mailbox_is_half_drained() {
        let (_shared, actor) = shell(1, 4);
        for corr in 0..4 {
            actor.push(marker(corr), true).unwrap();
        }
        let sender = Arc::clone(&actor);
        let handle = std::thread::spawn(move || sender.push(marker(4), false));
        while actor.mb.lock().unwrap().blocked_senders == 0 {
            std::thread::yield_now();
        }
        // 4 → 3: room for one, but the sender stays blocked (and counted)
        // until the mailbox is half drained.
        assert!(actor.pop().0.is_some());
        assert_eq!(actor.mb.lock().unwrap().blocked_senders, 1);
        // 3 → 2: half drained with a sender counted as blocked — the pop
        // must notify, or the join below never returns.
        assert!(actor.pop().0.is_some());
        assert_eq!(handle.join().unwrap(), Ok(()));
        assert_eq!(actor.mb.lock().unwrap().blocked_senders, 0);
        let corrs: Vec<u64> = std::iter::from_fn(|| actor.pop().0)
            .map(|m| match m {
                WorkerMsg::Item(item) => item.corr,
                other => panic!("expected an item, got {other:?}"),
            })
            .collect();
        assert_eq!(corrs, vec![2, 3, 4]);
    }

    #[test]
    fn resume_skips_actors_already_rescheduled() {
        let (shared, actor) = shell(1, 2);
        let (_, producer) = shell(1, 2);
        producer.mb.lock().unwrap().state = RunState::Scheduled;
        shared.resume(vec![Arc::clone(&producer)], None);
        assert_eq!(shared.obs.resumes.get(), 0);
        assert_eq!(producer.mb.lock().unwrap().state, RunState::Scheduled);
        drop(actor);
    }

    #[test]
    fn last_sender_drop_disconnects_and_schedules_the_drain() {
        let (shared, actor) = shell(1, 4);
        let tx = PoolSender {
            actor: Arc::clone(&actor),
        };
        let tx2 = tx.clone();
        drop(tx);
        assert!(!actor.mb.lock().unwrap().disconnected);
        drop(tx2);
        let mb = actor.mb.lock().unwrap();
        assert!(mb.disconnected);
        assert_eq!(mb.state, RunState::Scheduled);
        drop(mb);
        assert_eq!(shared.injector.lock().unwrap().len(), 1);
    }

    #[test]
    fn timer_heap_fires_in_deadline_order() {
        let (shared, a) = shell(1, 4);
        let b = new_actor(&shared, 4, None);
        let now = Instant::now();
        let later = now + Duration::from_millis(200);
        a.mb.lock().unwrap().state = RunState::Resting(now);
        b.mb.lock().unwrap().state = RunState::Resting(later);
        shared.register_timer(later, Arc::clone(&b));
        shared.register_timer(now, Arc::clone(&a));
        // Only `a`'s rest is over, so firing schedules it alone.
        let fired = shared.fire_due_timers(0);
        assert_eq!(fired, 1);
        assert_eq!(a.mb.lock().unwrap().state, RunState::Scheduled);
        assert_eq!(b.mb.lock().unwrap().state, RunState::Resting(later));
        assert_eq!(shared.next_timer(), Some(later));
        assert_eq!(shared.obs.timer_fires.get(), 1);
    }

    #[test]
    fn due_timer_skips_actors_that_are_not_resting() {
        for state in [RunState::Idle, RunState::Suspended] {
            let (shared, a) = shell(1, 4);
            a.mb.lock().unwrap().state = state;
            shared.register_timer(Instant::now(), Arc::clone(&a));
            assert_eq!(shared.fire_due_timers(0), 0);
            assert_eq!(a.mb.lock().unwrap().state, state);
            assert_eq!(shared.next_timer(), None);
        }
    }

    #[test]
    fn resting_actor_is_rescheduled_only_once_its_rest_is_due() {
        let (shared, a) = shell(1, 4);
        let far = Instant::now() + Duration::from_secs(3600);
        a.mb.lock().unwrap().state = RunState::Resting(far);
        // A push while resting only enqueues.
        a.push(marker(0), true).unwrap();
        assert_eq!(a.mb.lock().unwrap().state, RunState::Resting(far));
        assert!(shared.injector.lock().unwrap().is_empty());
        // A stale (due) entry must not cut the rest short.
        shared.register_timer(Instant::now(), Arc::clone(&a));
        assert_eq!(shared.fire_due_timers(0), 0);
        assert_eq!(a.mb.lock().unwrap().state, RunState::Resting(far));
        // The rest's own entry, once due, reschedules the actor.
        let over = Instant::now();
        a.mb.lock().unwrap().state = RunState::Resting(over);
        shared.register_timer(over, Arc::clone(&a));
        assert_eq!(shared.fire_due_timers(0), 1);
        assert_eq!(a.mb.lock().unwrap().state, RunState::Scheduled);
        assert_eq!(shared.locals[0].lock().unwrap().len(), 1);
    }

    #[test]
    fn timer_entries_order_by_deadline_then_seq() {
        let (_, a) = shell(1, 1);
        let t = Instant::now();
        let early = TimerEntry {
            at: t,
            seq: 2,
            actor: Arc::clone(&a),
        };
        let late = TimerEntry {
            at: t + Duration::from_millis(1),
            seq: 1,
            actor: Arc::clone(&a),
        };
        let tie = TimerEntry {
            at: t,
            seq: 3,
            actor: Arc::clone(&a),
        };
        let twin = TimerEntry {
            at: t,
            seq: 2,
            actor: a,
        };
        assert!(early < late);
        assert!(early < tie);
        assert!(early == twin);
    }

    #[test]
    fn xorshift_is_deterministic_and_covers_victims() {
        let mut a = XorShift::new(3);
        let mut b = XorShift::new(3);
        let mut seen = [false; 4];
        for _ in 0..64 {
            let v = a.next();
            assert_eq!(v, b.next());
            seen[(v % 4) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all victims probed: {seen:?}");
    }

    #[test]
    fn schedule_prefers_the_local_deque() {
        let (shared, actor) = shell(1, 4);
        shared.schedule(Arc::clone(&actor), Some(0));
        assert_eq!(shared.locals[0].lock().unwrap().len(), 1);
        assert!(shared.injector.lock().unwrap().is_empty());
        // The local push still wakes a parked worker to steal it: see
        // `local_push_wakes_a_parked_worker`.
    }

    #[test]
    fn local_push_wakes_a_parked_worker() {
        let (shared, actor) = shell(1, 4);
        let parked = parked_stand_in(&shared);
        shared.schedule(actor, Some(0));
        assert!(parked.join().unwrap(), "the parked worker slept on");
    }

    #[test]
    fn injector_push_wakes_a_parked_worker_while_another_is_awake() {
        // Two workers, one parked: the pool is not fully parked, yet the
        // runnable actor must not wait for the awake one.
        let (shared, actor) = shell(2, 4);
        let parked = parked_stand_in(&shared);
        shared.schedule(actor, None);
        assert!(parked.join().unwrap(), "the parked worker slept on");
    }
}
