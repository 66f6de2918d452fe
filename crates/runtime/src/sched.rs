//! The work-stealing actor pool: the scheduler that runs every TE instance.
//!
//! An *actor* is a FIFO mailbox plus the one [`Worker`] it runs, which
//! hosts a recovery unit's TE instances: every TE instance that accesses
//! one SE instance (paper §3.3 colocates them), or one stateless TE
//! instance alone. Actors are multiplexed onto a fixed
//! pool of `RuntimeConfig::sched_threads` OS threads (by default one per
//! available core), so a deployment costs a few threads however many
//! replicas the reconfiguration plane adds:
//!
//! - **Serial mailboxes.** At most one pool worker runs an actor at a
//!   time, so per-instance ordering and dedupe semantics are those of one
//!   serial consumer. One mutex guards both the queue and the actor's run
//!   state, so a push can never race an idle transition into a lost
//!   wakeup. A slice takes a run of messages under one lock and steps
//!   them from a local batch; a slice that stops early puts what it did
//!   not step back at the front, in the lock that changes its run state.
//!   Taken but unstepped messages still count against the capacity and
//!   as queued for the heartbeat, whose epoch counts steps.
//! - **One mailbox per SE instance.** An SE group's tasks share one route,
//!   whose instances hold one [`PoolSender`] per actor; a producer's lane
//!   names the TE it feeds by its slot in the worker, and the mailbox
//!   keeps every message with that slot. The TEs of one SE instance
//!   therefore never run at once (no pool thread waits on a sibling's
//!   state lock), and what one producer sends to any of them is processed
//!   in the order it was sent: a `put(k)` then a `get(k)` from one ingest
//!   handle reads the put.
//! - **Work stealing.** Runnable actors sit in per-worker local deques
//!   (owner pops newest) or a global injector; an idle worker takes its
//!   own work first, then the injector, then steals the *oldest* work from
//!   randomly probed victims. Idle workers park on a condvar.
//! - **Wake protocol.** A worker that finds no work spins a few
//!   microseconds (`SPIN_ROUNDS`) before it parks, re-scanning only when
//!   the pool's push count moves; it is not counted as parked while it
//!   spins, so a push in that gap pays no wake. Any push that makes an
//!   actor runnable — onto a local deque or the injector, from a timer
//!   fire or a credit resume — wakes one parked worker if any is parked,
//!   and a parked worker has no other timeout than the earliest timer
//!   (`park_timeout`). A push reads the atomic parked count and takes the
//!   idle lock only when it is non-zero; a parking worker announces itself
//!   in that count under the idle lock and then re-scans the deques, so it
//!   either sees the push or the push sees it — and the lock makes the
//!   wake land after it is waiting.
//! - **Credit-based backpressure.** A send from inside an actor never
//!   blocks the pool thread: the message is pushed unconditionally and, if
//!   the destination is at capacity, the *producer actor* suspends after
//!   its slice, registering itself as a waiter on each over-full mailbox.
//!   The first take or slice end that finds the mailbox's unstepped
//!   messages back under capacity reschedules its waiters. Suspension
//!   only ever propagates upstream (consumers never wait on producers),
//!   so when the actors form a DAG the sinks always drain and, by
//!   induction over reverse topological order, every suspended actor is
//!   eventually resumed — no deadlock. A lane that closes a cycle of
//!   actors (an SE group feeding itself through another task, or an
//!   iteration) sends without credit ([`PoolSender::force_send`]), which
//!   keeps the credit graph acyclic. External threads (ingest, control
//!   plane) block on the mailbox condvar instead, like a bounded channel.
//! - **Timer heap.** One shared min-heap holds the ends of synthetic
//!   service-time rests: an actor that owes `RuntimeConfig::work_ns`
//!   service time is `Resting` on the heap instead of sleeping a pool
//!   thread, so the simulated cluster's capacity grows with its instances,
//!   not with the pool size. Workers fire due entries before every slice
//!   and bound their park time by the earliest deadline.
//! - **Outputs per slice.** The worker keeps what its TEs emit, in the
//!   order they ran, and hands it to the sink in one batch when the slice
//!   ends, before the actor's run state changes, so a quiet actor has
//!   nothing held back (see [`Worker`]).
//!
//! `Stop` retires the actor with its worker; dropping the last
//! [`PoolSender`] (the scale-in/recovery slot swap) lets the actor drain
//! what is queued and then retire, like a consumer observing channel
//! disconnect. A panic in any hosted TE kills the actor: its recovery
//! unit is the actor anyway. Sends to a retired actor fail with
//! [`SendClosed`].

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdg_common::obs::SchedInstruments;

use crate::fault::XorShift64;
use crate::worker::{SendClosed, Worker, WorkerMsg};

/// Messages an actor processes per activation before rescheduling itself:
/// long enough to amortise wakeup cost over a batch drain, short enough
/// that one busy mailbox cannot monopolise a pool worker.
const RUN_SLICE: usize = 128;

/// Rounds of a spin hint an idle pool worker makes, watching the push
/// count, before it parks. A round costs ~17 ns on a 2-core Xeon VM, so
/// the spin lasts ~1.1 µs, about the gap between two pushes of a
/// closed-loop feeder, and an idle pool parks at once. A longer spin
/// starves the other threads of a small host: 256 rounds tripled the
/// median client latency of a paced KV load on 2 cores. Spinning keeps
/// the core: a `yield_now` round hands it to any other runnable thread for
/// up to a scheduler slice, during which a push or a due timer finds the
/// worker neither parked nor looking.
const SPIN_ROUNDS: usize = 64;

/// Synthetic service time is rested in slices of at least this much: a
/// shorter timer wait overshoots by the timer slack, which would distort
/// the modelled service rate.
const REST_QUANTUM: Duration = Duration::from_millis(1);

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
    /// Messages with the slot of the hosted TE they are for.
    queue: VecDeque<(usize, WorkerMsg)>,
    /// Messages queued per slot: each hosted task's share of `queue`.
    queued: Vec<usize>,
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
    /// External senders blocked on `not_full` since the last notify; takes
    /// notify only when one is waiting.
    blocked_senders: usize,
    /// Messages slices have taken out of `queue`, less those put back
    /// unstepped. [`Actor::steps`] trails it by the messages the running
    /// slice holds.
    taken: u64,
}

/// One actor scheduled on the pool: a serial mailbox plus the [`Worker`]
/// it runs (present until the actor retires).
struct Actor {
    mb: Mutex<MailboxInner>,
    /// Signals external (non-actor) senders blocked on a full mailbox.
    not_full: Condvar,
    /// Mailbox capacity (`RuntimeConfig::channel_capacity`). In-actor and
    /// forced sends may overfill past it; the overfill is repaid through
    /// producer suspension.
    cap: usize,
    /// The worker, taken out by the pool thread running a slice.
    worker: Mutex<Option<Worker>>,
    /// Messages stepped so far: the supervisor's heartbeat epoch. Only the
    /// slice running the actor writes it (a load and a store, no
    /// read-modify-write: the mailbox lock orders one slice after the
    /// next), so a slice stalled mid-batch shows a stalled epoch.
    steps: AtomicU64,
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

/// Whether this thread is running an actor slice: a wait here would hold
/// a pool thread.
pub(crate) fn in_actor() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Sending half of an actor mailbox. Each message names the hosted TE it
/// is for by its slot. When the last clone drops, the mailbox disconnects
/// and the actor drains what is queued, then retires.
pub struct PoolSender {
    actor: Arc<Actor>,
}

impl PoolSender {
    /// Delivers `msg` to the TE in `slot`. From inside a pool slice this
    /// never blocks the pool thread: the message is pushed unconditionally
    /// and an over-full destination suspends the producer actor after its
    /// slice. External threads block on the mailbox condvar, like a bounded
    /// channel send.
    pub fn send(&self, slot: usize, msg: WorkerMsg) -> Result<(), SendClosed> {
        self.actor.push(slot, msg, false)
    }

    /// Delivers `msg` without waiting for credit: an external thread does
    /// not wait for space, and a producer actor does not suspend on a full
    /// destination. The flush of a paused route's staged sends needs it:
    /// it holds the route's stage lock, which a pool thread sending into
    /// the route may be waiting on, so waiting for credit could wait on
    /// itself. Recovery replay runs under the same pause, a victim's or
    /// shutdown's `Stop` must land whatever the mailbox holds, and a lane
    /// that closes a cycle of actors must not make two producers wait on
    /// each other's credit.
    pub fn force_send(&self, slot: usize, msg: WorkerMsg) -> Result<(), SendClosed> {
        self.actor.push(slot, msg, true)
    }

    /// Messages not yet stepped, for every hosted TE: those queued and
    /// those the running slice has taken (join-shortest-queue dispatch:
    /// they all wait in one queue).
    pub fn len(&self) -> usize {
        self.actor
            .unstepped(&self.actor.mb.lock().expect("mailbox lock"))
    }

    /// Messages queued for the TE in `slot`: its task's share of the
    /// mailbox (queue-depth gauges, the scaling monitor's fill). The
    /// running slice's batch has left it.
    pub(crate) fn queued(&self, slot: usize) -> usize {
        self.actor.mb.lock().expect("mailbox lock").queued[slot]
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mailbox's progress, read under one lock: messages stepped so
    /// far, messages not yet stepped (queued, or taken by the running
    /// slice and still held), and whether the actor holds a pool thread
    /// right now. A message taken but not stepped is no progress, so an
    /// actor stalled mid-batch with an emptied mailbox still has work
    /// waiting. The supervisor's hang detection only suspects `Running`
    /// actors: `Idle`, `Scheduled`, `Suspended` and `Resting` actors
    /// legitimately sit on a stalled step count while queued behind busy
    /// workers, awaiting send credit, or serving synthetic service time.
    pub(crate) fn progress(&self) -> (u64, usize, bool) {
        let mb = self.actor.mb.lock().expect("mailbox lock");
        let (steps, held) = self.actor.held(&mb);
        (steps, mb.queue.len() + held, mb.state == RunState::Running)
    }

    /// Whether the actor is done with every message sent to it so far: its
    /// mailbox is empty and it does not hold a pool thread. Both are read
    /// under one mailbox lock, and an actor is `Running` from before its
    /// first take until its slice ends (having put back what it did not
    /// step), so an item held in a slice's batch or mid-`handle`
    /// (stalled, blocked, or sending) is never quiet. Drain barriers ask
    /// this.
    pub(crate) fn is_quiet(&self) -> bool {
        let mb = self.actor.mb.lock().expect("mailbox lock");
        mb.queue.is_empty() && mb.state != RunState::Running
    }

    /// Whether the actor has retired. An instance still in its task's
    /// route retires only by failing: a stopped victim leaves the route
    /// first.
    pub(crate) fn is_closed(&self) -> bool {
        self.actor.mb.lock().expect("mailbox lock").closed
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
    fn push(self: &Arc<Self>, slot: usize, msg: WorkerMsg, force: bool) -> Result<(), SendClosed> {
        let in_ctx = in_actor();
        let mut mb = self.mb.lock().expect("mailbox lock");
        if !in_ctx && !force {
            while !mb.closed && self.full(&mb) {
                mb.blocked_senders += 1;
                mb = self.not_full.wait(mb).expect("mailbox lock");
            }
        }
        if mb.closed {
            return Err(SendClosed);
        }
        mb.queue.push_back((slot, msg));
        mb.queued[slot] += 1;
        let schedule = mb.state == RunState::Idle;
        if schedule {
            mb.state = RunState::Scheduled;
        }
        let over = in_ctx && !force && self.full(&mb);
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

    /// Moves up to `max` messages, in order, from the mailbox to the
    /// slice's empty `batch` under one lock (swapping the two buffers when
    /// that is the whole queue), adjusting the per-slot counts, after
    /// handing out the credit the slice's steps so far made
    /// ([`Actor::release`]). Returns the waiters to resume and the
    /// disconnect flag.
    fn take(
        &self,
        max: usize,
        batch: &mut VecDeque<(usize, WorkerMsg)>,
    ) -> (Vec<Arc<Actor>>, bool) {
        debug_assert!(batch.is_empty());
        let mut mb = self.mb.lock().expect("mailbox lock");
        let credit = self.release(&mut mb);
        let n = mb.queue.len().min(max);
        let MailboxInner { queue, queued, .. } = &mut *mb;
        if n == queue.len() {
            // The whole queue: trade buffers instead of moving messages,
            // so a push waits on this lock as little as possible.
            std::mem::swap(queue, batch);
        } else {
            batch.extend(queue.drain(..n));
        }
        for (slot, _) in batch.iter() {
            queued[*slot] -= 1;
        }
        mb.taken += n as u64;
        let disconnected = mb.disconnected;
        drop(mb);
        (self.notify(credit), disconnected)
    }

    /// Ends a slice under one lock: puts the messages it took but did not
    /// step back at the front of the mailbox, in order, then sets the run
    /// state `next` picks, then hands out the credit the slice's steps
    /// made. Returns the new state and the waiters to resume.
    fn end_slice(
        &self,
        batch: &mut VecDeque<(usize, WorkerMsg)>,
        next: impl FnOnce(&MailboxInner) -> RunState,
    ) -> (RunState, Vec<Arc<Actor>>) {
        let mut mb = self.mb.lock().expect("mailbox lock");
        self.put_back(&mut mb, batch);
        mb.state = next(&mb);
        let state = mb.state;
        let credit = self.release(&mut mb);
        drop(mb);
        (state, self.notify(credit))
    }

    /// Returns `batch` to the front of the mailbox, in order.
    fn put_back(&self, mb: &mut MailboxInner, batch: &mut VecDeque<(usize, WorkerMsg)>) {
        mb.taken -= batch.len() as u64;
        for (slot, msg) in batch.drain(..).rev() {
            mb.queued[slot] += 1;
            mb.queue.push_front((slot, msg));
        }
    }

    /// The credit steps made, read at a take or a slice's end, when the
    /// slice holds no message. Suspended producers register only while
    /// the actor has `cap` or more messages unstepped, so once it has fewer
    /// they all get their credit, once. Blocked external senders are woken
    /// only once half the capacity is free, so a closed-loop feeder refills
    /// half a mailbox per wake instead of trading one context switch per
    /// message with the consumer at the capacity edge. The notify claims
    /// every counted sender; one that has to wait again counts itself
    /// again.
    fn release(&self, mb: &mut MailboxInner) -> (Vec<Arc<Actor>>, bool) {
        let unstepped = self.unstepped(mb);
        let waiters = if unstepped < self.cap {
            std::mem::take(&mut mb.waiters)
        } else {
            Vec::new()
        };
        let notify = mb.blocked_senders > 0 && unstepped <= self.cap / 2;
        if notify {
            mb.blocked_senders = 0;
        }
        (waiters, notify)
    }

    /// Wakes the blocked external senders `release` claimed, after the
    /// lock is dropped, and passes on its waiters.
    fn notify(&self, (waiters, notify): (Vec<Arc<Actor>>, bool)) -> Vec<Arc<Actor>> {
        if notify {
            self.not_full.notify_all();
        }
        waiters
    }

    /// Counts one stepped message. Only the running slice calls this.
    fn stepped(&self) {
        let steps = self.steps.load(Ordering::Relaxed) + 1;
        self.steps.store(steps, Ordering::Relaxed);
    }

    /// Messages stepped so far, and those the running slice has taken but
    /// not stepped, read under `mb`. A step follows its take in the
    /// slice, and the lock held here orders that take before this read,
    /// so the step count never exceeds `taken`.
    fn held(&self, mb: &MailboxInner) -> (u64, usize) {
        let steps = self.steps.load(Ordering::Relaxed);
        (steps, (mb.taken - steps) as usize)
    }

    /// Whether the messages sent and not yet stepped reach the capacity.
    /// The running slice holds at most [`RUN_SLICE`], so a queue that far
    /// short of `cap` needs no read of the step count, which the slice
    /// writes at every step from another core.
    fn full(&self, mb: &MailboxInner) -> bool {
        mb.queue.len() + RUN_SLICE >= self.cap && self.unstepped(mb) >= self.cap
    }

    /// Messages sent and not yet stepped: those queued and those the
    /// running slice holds. The mailbox's capacity bounds this count, so a
    /// batch taken out of the queue makes no room until it is stepped.
    fn unstepped(&self, mb: &MailboxInner) -> usize {
        mb.queue.len() + self.held(mb).1
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
    /// Runnable pushes so far. A spinning worker re-scans the deques only
    /// when it moves, so it takes no deque lock a push needs in between.
    /// `Relaxed`: it publishes nothing (the deque lock orders the push),
    /// and a move the spinner misses is caught by the park re-scan.
    pushes: AtomicU64,
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
            pushes: AtomicU64::new(0),
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
        self.pushes.fetch_add(1, Ordering::Relaxed);
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

    /// Registers one actor running `worker` with mailbox capacity `cap`
    /// and returns its sender.
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

/// An actor running `worker`, with its one sender counted (one slot for a
/// test shell without a worker).
fn new_actor(shared: &Arc<PoolShared>, cap: usize, worker: Option<Worker>) -> Arc<Actor> {
    let slots = worker.as_ref().map_or(1, |w| w.tes.len());
    Arc::new(Actor {
        mb: Mutex::new(MailboxInner {
            queue: VecDeque::new(),
            queued: vec![0; slots],
            state: RunState::Idle,
            senders: 1,
            closed: false,
            disconnected: false,
            waiters: Vec::new(),
            blocked_senders: 0,
            taken: 0,
        }),
        not_full: Condvar::new(),
        cap: cap.max(1),
        worker: Mutex::new(worker),
        steps: AtomicU64::new(0),
        shared: Arc::clone(shared),
    })
}

/// Main loop of one pool worker.
fn worker_loop(shared: &Arc<PoolShared>, me: usize) {
    // Deterministic per worker, spread so neighbouring workers probe apart.
    let mut rng = XorShift64::new((me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // The slice's batch, reused by every slice this worker runs.
    let mut batch = VecDeque::with_capacity(RUN_SLICE);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        if let Some(actor) = spin_for_task(shared, me, &mut rng) {
            run_actor(shared, me, actor, &mut batch);
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
        shared.obs.parks.inc();
        let idle = match park_timeout(shared.next_timer(), Instant::now()) {
            Some(wait) => {
                shared
                    .idle_cv
                    .wait_timeout(idle, wait)
                    .expect("idle lock")
                    .0
            }
            None => shared.idle_cv.wait(idle).expect("idle lock"),
        };
        shared.parked.fetch_sub(1, Ordering::SeqCst);
        drop(idle);
    }
}

/// Finds work for the worker, spinning up to [`SPIN_ROUNDS`] rounds before
/// it parks. Each round fires due timers first (a pool that always finds
/// work would otherwise never reach them), then looks for work if the push
/// count moved since the last look; the first round always looks. A
/// spinning worker is not counted in `parked`, so a push meanwhile finds
/// it awake and pays no futex wake.
fn spin_for_task(shared: &PoolShared, me: usize, rng: &mut XorShift64) -> Option<Arc<Actor>> {
    let mut seen = None;
    for _ in 0..SPIN_ROUNDS {
        shared.fire_due_timers(me);
        let pushes = shared.pushes.load(Ordering::Relaxed);
        if seen != Some(pushes) {
            seen = Some(pushes);
            if let Some(actor) = find_task(shared, me, rng) {
                return Some(actor);
            }
        }
        std::hint::spin_loop();
    }
    None
}

/// How long a parked worker waits before it re-checks on its own: until
/// the earliest timer when one is pending, else (`None`) until woken. Every
/// runnable push, timer registration, credit resume and shutdown wakes a
/// parked worker, so nothing else is waited for.
fn park_timeout(next_timer: Option<Instant>, now: Instant) -> Option<Duration> {
    next_timer.map(|at| at.saturating_duration_since(now))
}

/// Finds the next runnable actor: own deque (newest), then the injector,
/// then randomized stealing of the oldest work from other workers.
fn find_task(shared: &PoolShared, me: usize, rng: &mut XorShift64) -> Option<Arc<Actor>> {
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

/// Runs one actor slice: take up to [`RUN_SLICE`] messages into `batch`
/// under one mailbox lock (again if they run out first), step each by the
/// worker's TE of its slot, put back what a slice that stops early did not
/// step, then hand the actor back to the scheduler in the appropriate
/// state. `batch` is empty on entry and on return.
fn run_actor(
    shared: &Arc<PoolShared>,
    me: usize,
    actor: Arc<Actor>,
    batch: &mut VecDeque<(usize, WorkerMsg)>,
) {
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
        if blocked || worker.work_debt >= REST_QUANTUM {
            break;
        }
        if batch.is_empty() {
            let (waiters, disconnected) = actor.take(RUN_SLICE - processed, batch);
            if !waiters.is_empty() {
                shared.resume(waiters, Some(me));
            }
            if batch.is_empty() {
                // The queue is drained: retire once every sender dropped.
                stopped = disconnected;
                break;
            }
        }
        let (slot, msg) = batch.pop_front().expect("a non-empty batch");
        let step = || worker.step(slot, msg);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(step));
        actor.stepped();
        match result {
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
                // The actor dies with its worker: report the caught panic,
                // drop the worker, and retire the mailbox so producers see
                // disconnect instead of a wedged queue — the pool thread
                // itself survives to run other actors. The items before
                // the panic applied their state, and a replay's dedupe
                // will not emit them again: their outputs leave before the
                // worker is dropped.
                let probe = worker.panic_probe(slot);
                CURRENT.with(|c| {
                    c.borrow_mut().take();
                });
                worker.flush_outputs();
                drop(worker);
                probe.report(payload.as_ref());
                actor.put_back(&mut actor.mb.lock().expect("mailbox lock"), batch);
                retire(shared, &actor, Some(me));
                return;
            }
        }
    }
    // The slice's outputs leave before any run-state change: a quiet actor
    // (`PoolSender::is_quiet`) has put every output it emitted in the sink.
    worker.flush_outputs();
    let ctx = CURRENT
        .with(|c| c.borrow_mut().take())
        .expect("actor ctx set for the slice");
    if stopped {
        // `retire` drops whatever is queued, what the slice holds included.
        actor.put_back(&mut actor.mb.lock().expect("mailbox lock"), batch);
        drop(worker);
        retire(shared, &actor, Some(me));
        return;
    }
    // Owed service time is served through the shared timer heap; none
    // while suspended (the resumed slice rests it). The worker goes back
    // before any state transition so whichever pool thread runs the actor
    // next finds it in place.
    let rest = (ctx.blocked.is_empty() && worker.work_debt >= REST_QUANTUM)
        .then(|| std::mem::take(&mut worker.work_debt));
    *actor.worker.lock().expect("worker slot") = Some(worker);
    // A slice that stopped early (credit, a rest) puts back what it took
    // but did not step in the same lock as its state change, so a quiet
    // actor holds no message.
    let (next, waiters) = actor.end_slice(batch, |mb| {
        if !ctx.blocked.is_empty() {
            RunState::Suspended
        } else if let Some(rest) = rest {
            // Rest instead of sleeping the pool thread.
            RunState::Resting(Instant::now() + rest)
        } else if mb.queue.is_empty() && !mb.disconnected {
            RunState::Idle
        } else {
            // More input arrived during the slice, or the disconnect
            // drain still has to observe the empty queue.
            RunState::Scheduled
        }
    });
    shared.resume(waiters, Some(me));
    match next {
        RunState::Suspended => suspend(shared, me, actor, ctx.blocked),
        // The entry is registered only after the actor is observably
        // Resting, so the fire path cannot miss it; pushes meanwhile only
        // enqueue.
        RunState::Resting(until) => shared.register_timer(until, actor),
        RunState::Scheduled => shared.schedule(actor, Some(me)),
        RunState::Idle | RunState::Running => {}
    }
}

/// Registers the `Suspended` `actor` on its over-full destinations (credit
/// wait), or reschedules it if none is full any more.
fn suspend(shared: &Arc<PoolShared>, me: usize, actor: Arc<Actor>, blocked: Vec<Arc<Actor>>) {
    let mut registered = 0usize;
    for dest in blocked {
        let mut dm = dest.mb.lock().expect("mailbox lock");
        // Re-check under the destination's lock: a drained (or retired)
        // destination owes no credit. A still-full one holds our
        // registration until one of its takes or slice ends finds it back
        // under capacity — the same lock serialises that release against
        // this check, and a destination with `cap` messages unstepped is
        // running or scheduled, so it reaches one: the wakeup cannot be
        // missed.
        if !dm.closed && dest.full(&dm) {
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
        mb.queued.fill(0);
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
    use crate::fault::{FailureHub, FaultAction, FaultTrigger, RecoveryUnit, WorkerFault};
    use crate::worker::{OutputEvent, PreparedCode, Te};

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
            route: None,
            submitted_at: None,
        })
    }

    /// A task that emits every input once.
    struct EmitInput;

    impl sdg_graph::model::NativeTask for EmitInput {
        fn process(
            &self,
            input: &sdg_common::value::Record,
            ctx: &mut dyn sdg_graph::model::TaskContext,
        ) -> sdg_common::error::SdgResult<()> {
            ctx.emit(input.clone());
            Ok(())
        }
    }

    /// A task that sends a marker to another actor, then emits its input:
    /// from inside a slice, a send into a full mailbox suspends the slice.
    struct SendThenEmit(PoolSender);

    impl sdg_graph::model::NativeTask for SendThenEmit {
        fn process(
            &self,
            input: &sdg_common::value::Record,
            ctx: &mut dyn sdg_graph::model::TaskContext,
        ) -> sdg_common::error::SdgResult<()> {
            self.0.send(0, marker(0)).expect("destination open");
            ctx.emit(input.clone());
            Ok(())
        }
    }

    /// A worker hosting a TE per name in `names`, each emitting every
    /// input into `sink`, with `fault` armed on the first one's `nth` item.
    fn emit_worker(
        names: &[&str],
        fault: Option<(FaultAction, u64)>,
        sink: crossbeam::channel::Sender<OutputEvent>,
        obs: &Arc<sdg_common::obs::MetricsRegistry>,
    ) -> Worker {
        task_worker(names, Arc::new(EmitInput), fault, sink, obs)
    }

    /// [`emit_worker`] with every TE running `task`.
    fn task_worker(
        names: &[&str],
        task: Arc<dyn sdg_graph::model::NativeTask>,
        fault: Option<(FaultAction, u64)>,
        sink: crossbeam::channel::Sender<OutputEvent>,
        obs: &Arc<sdg_common::obs::MetricsRegistry>,
    ) -> Worker {
        let te = |(slot, &name): (usize, &&str)| Te {
            task: sdg_common::ids::TaskId(slot as u32),
            name: name.into(),
            code: PreparedCode::Native(Arc::clone(&task)),
            scratch: crate::compile::Scratch::new(),
            outs: Vec::new(),
            pending_gathers: Default::default(),
            gather_var: None,
            work_ns: 0,
            obs: obs.task(name).shard(),
            fault: fault.filter(|_| slot == 0).map(|(action, nth)| {
                Arc::new(FaultTrigger::new(&WorkerFault {
                    task: name.into(),
                    replica: 0,
                    nth,
                    action,
                }))
            }),
        };
        Worker {
            tes: names.iter().enumerate().map(te).collect(),
            unit: RecoveryUnit {
                unit: 0,
                replica: 0,
            },
            cell: None,
            sink,
            pending_outputs: Vec::new(),
            speed: 1.0,
            alive: Arc::new(AtomicBool::new(true)),
            work_debt: Duration::ZERO,
            hub: Arc::new(FailureHub {
                obs: Arc::clone(obs),
                supervisor: None,
            }),
        }
    }

    /// An actor whose worker emits every input, with `fault` armed on its
    /// `nth` item, and `items` items queued with `submitted_at` stamps:
    /// the pool shell, the actor and the sink's receiving end.
    fn emitter(
        fault: Option<(FaultAction, u64)>,
        items: u64,
        submitted_at: Option<Instant>,
    ) -> (
        Arc<PoolShared>,
        Arc<Actor>,
        crossbeam::channel::Receiver<OutputEvent>,
    ) {
        let (shared, actor) = shell(1, 256);
        let (sink, rx) = crossbeam::channel::unbounded();
        let obs = Arc::new(sdg_common::obs::MetricsRegistry::new());
        *actor.worker.lock().unwrap() = Some(emit_worker(&["emit"], fault, sink, &obs));
        for corr in 0..items {
            let mut msg = marker(corr);
            if let WorkerMsg::Item(item) = &mut msg {
                item.submitted_at = submitted_at;
            }
            actor.push(0, msg, true).unwrap();
        }
        (shared, actor, rx)
    }

    /// The corrs of the items queued in `actor`'s mailbox, front first.
    fn queued_corrs(actor: &Actor) -> Vec<u64> {
        let mb = actor.mb.lock().unwrap();
        mb.queue.iter().map(|(_, m)| corr_of(m)).collect()
    }

    fn corr_of(msg: &WorkerMsg) -> u64 {
        match msg {
            WorkerMsg::Item(item) => item.corr,
            other => panic!("expected an item, got {other:?}"),
        }
    }

    /// Everything in the sink, as `(corr, latency)`.
    fn sunk(rx: &crossbeam::channel::Receiver<OutputEvent>) -> Vec<(u64, Option<Duration>)> {
        std::iter::from_fn(|| rx.try_recv().ok())
            .map(|e| (e.corr, e.latency))
            .collect()
    }

    #[test]
    fn a_parked_worker_waits_for_the_earliest_timer_or_else_for_a_wake() {
        let now = Instant::now();
        assert_eq!(park_timeout(None, now), None);
        let at = now + Duration::from_millis(7);
        assert_eq!(park_timeout(Some(at), now), Some(Duration::from_millis(7)));
        // A timer already due: re-check at once.
        assert_eq!(park_timeout(Some(now), at), Some(Duration::ZERO));
    }

    #[test]
    fn a_slice_puts_its_outputs_in_the_sink_before_any_state_change() {
        let n = RUN_SLICE as u64 + 2;
        let (shared, actor, rx) = emitter(None, n, None);
        // A full slice reschedules the actor with the rest still queued;
        // the slice's outputs are in the sink, in order.
        run_actor(&shared, 0, Arc::clone(&actor), &mut VecDeque::new());
        assert_eq!(actor.mb.lock().unwrap().state, RunState::Scheduled);
        let corrs: Vec<u64> = sunk(&rx).into_iter().map(|(c, _)| c).collect();
        assert_eq!(corrs, (0..RUN_SLICE as u64).collect::<Vec<_>>());
        // The last slice leaves the actor idle, hence quiet, with nothing
        // held back.
        run_actor(&shared, 0, Arc::clone(&actor), &mut VecDeque::new());
        let tx = PoolSender { actor };
        assert!(tx.is_quiet());
        let corrs: Vec<u64> = sunk(&rx).into_iter().map(|(c, _)| c).collect();
        assert_eq!(corrs, vec![n - 2, n - 1]);
    }

    #[test]
    fn each_message_is_stepped_by_the_te_of_its_slot_and_outputs_leave_in_order() {
        let shared = Arc::new(PoolShared::new(1, Arc::new(SchedInstruments::default())));
        let (sink, rx) = crossbeam::channel::unbounded();
        let obs = Arc::new(sdg_common::obs::MetricsRegistry::new());
        let worker = emit_worker(&["a", "b"], None, sink, &obs);
        let tx = PoolSender {
            actor: new_actor(&shared, 16, Some(worker)),
        };
        for (corr, slot) in [(0, 0), (1, 1), (2, 0)] {
            tx.force_send(slot, marker(corr)).unwrap();
        }
        assert_eq!((tx.len(), tx.queued(0), tx.queued(1)), (3, 2, 1));
        run_actor(&shared, 0, Arc::clone(&tx.actor), &mut VecDeque::new());
        let snap = obs.snapshot();
        let processed = |t| snap.task(t).unwrap().processed;
        assert_eq!((processed("a"), processed("b")), (2, 1));
        assert!(tx.queued(0) == 0 && tx.queued(1) == 0 && tx.is_quiet());
        // The outputs of both TEs leave in the order their items ran.
        let corrs: Vec<u64> = sunk(&rx).into_iter().map(|(c, _)| c).collect();
        assert_eq!(corrs, vec![0, 1, 2]);
    }

    #[test]
    fn a_panic_mid_slice_loses_no_output_of_the_items_before_it() {
        let (shared, actor, rx) = emitter(Some((FaultAction::Panic, 4)), 6, None);
        run_actor(&shared, 0, Arc::clone(&actor), &mut VecDeque::new());
        assert!(actor.mb.lock().unwrap().closed, "the actor retired");
        // Items 0–2 applied before the panic on the fourth: their outputs
        // reached the sink although the worker was dropped.
        let corrs: Vec<u64> = sunk(&rx).into_iter().map(|(c, _)| c).collect();
        assert_eq!(corrs, vec![0, 1, 2]);
    }

    #[test]
    fn a_stall_does_not_hold_back_the_outputs_before_it() {
        let stall = Duration::from_millis(200);
        let (shared, actor, rx) = emitter(
            Some((FaultAction::Stall(stall), 3)),
            4,
            Some(Instant::now()),
        );
        run_actor(&shared, 0, Arc::clone(&actor), &mut VecDeque::new());
        // Latency is stamped when an output reaches the sink: the two items
        // before the stalled one left before the stall, the rest after it.
        let out = sunk(&rx);
        assert_eq!(
            out.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        for (corr, latency) in out {
            let latency = latency.expect("every item carries its ingest time");
            assert_eq!(latency < stall, corr < 2, "output {corr} after {latency:?}");
        }
    }

    #[test]
    fn mailbox_preserves_fifo_order_across_takes_and_put_backs() {
        let (_shared, actor) = shell(1, 16);
        for i in 0..5u64 {
            actor.push(0, marker(i), true).unwrap();
        }
        let mut batch = VecDeque::new();
        actor.take(3, &mut batch);
        assert_eq!(queued_corrs(&actor), vec![3, 4]);
        // One stepped; the other two go back in front of the rest.
        assert_eq!(corr_of(&batch.pop_front().unwrap().1), 0);
        actor.stepped();
        actor.mb.lock().unwrap().state = RunState::Running;
        let (state, _) = actor.end_slice(&mut batch, |_| RunState::Scheduled);
        assert_eq!(state, RunState::Scheduled);
        assert!(batch.is_empty());
        assert_eq!(queued_corrs(&actor), vec![1, 2, 3, 4]);
        assert_eq!(actor.mb.lock().unwrap().queued, vec![4]);
        actor.take(RUN_SLICE, &mut batch);
        let corrs: Vec<u64> = batch.iter().map(|(_, m)| corr_of(m)).collect();
        assert_eq!(corrs, vec![1, 2, 3, 4]);
        batch.clear();
        actor.take(RUN_SLICE, &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn progress_counts_stepped_messages_and_holds_taken_ones_as_queued() {
        let (_shared, actor) = shell(1, 4);
        let tx = PoolSender {
            actor: Arc::clone(&actor),
        };
        assert_eq!(tx.progress(), (0, 0, false));
        actor.push(0, marker(0), true).unwrap();
        actor.push(0, marker(1), true).unwrap();
        assert_eq!(tx.progress(), (0, 2, false));
        actor.mb.lock().unwrap().state = RunState::Running;
        let mut batch = VecDeque::new();
        actor.take(RUN_SLICE, &mut batch);
        // Both taken in one lock, neither stepped: no progress, and both
        // still wait (dispatch sees them too).
        assert_eq!(batch.len(), 2);
        assert_eq!(tx.progress(), (0, 2, true));
        assert_eq!((tx.len(), tx.queued(0)), (2, 0));
        batch.pop_front();
        actor.stepped();
        assert_eq!(tx.progress(), (1, 1, true));
        batch.pop_front();
        actor.stepped();
        actor.take(RUN_SLICE, &mut batch);
        actor.take(RUN_SLICE, &mut batch);
        assert!(batch.is_empty());
        assert_eq!(tx.progress(), (2, 0, true), "an empty take is no progress");
    }

    #[test]
    fn a_hang_mid_batch_shows_a_stalled_epoch_with_work_waiting() {
        let stall = Duration::from_millis(300);
        let (shared, actor, rx) = emitter(Some((FaultAction::Stall(stall), 2)), 4, None);
        let tx = PoolSender {
            actor: Arc::clone(&actor),
        };
        let runner = std::thread::spawn(move || {
            run_actor(&shared, 0, actor, &mut VecDeque::new());
        });
        // The slice took all four in one lock and stepped the first; the
        // second stalls with the mailbox empty.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rx.try_recv().is_err() {
            assert!(Instant::now() < deadline, "the first output never left");
            std::thread::yield_now();
        }
        assert!(tx.actor.mb.lock().unwrap().queue.is_empty());
        // What the supervisor flags: a `Running` actor whose epoch does not
        // move while messages wait for it — the stalled one included.
        let first = tx.progress();
        assert_eq!(first, (1, 3, true));
        assert!(!tx.is_quiet(), "a held message is not quiet");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(tx.progress(), first);
        runner.join().unwrap();
        assert_eq!(tx.progress(), (4, 0, false));
        assert!(tx.is_quiet());
    }

    #[test]
    fn a_slice_suspended_for_credit_puts_back_what_it_did_not_step() {
        let shared = Arc::new(PoolShared::new(1, Arc::new(SchedInstruments::default())));
        // The destination holds one message at most, and holds one already.
        let dest = new_actor(&shared, 1, None);
        dest.push(0, marker(100), true).unwrap();
        let to = PoolSender {
            actor: Arc::clone(&dest),
        };
        let (sink, rx) = crossbeam::channel::unbounded();
        let obs = Arc::new(sdg_common::obs::MetricsRegistry::new());
        let worker = task_worker(&["send"], Arc::new(SendThenEmit(to)), None, sink, &obs);
        let actor = new_actor(&shared, 16, Some(worker));
        let tx = PoolSender {
            actor: Arc::clone(&actor),
        };
        for corr in 0..4 {
            tx.force_send(0, marker(corr)).unwrap();
        }
        shared.injector.lock().unwrap().clear();
        let mut batch = VecDeque::new();
        let mut order = Vec::new();
        for slice in 1..=4u64 {
            run_actor(&shared, 0, Arc::clone(&actor), &mut batch);
            assert!(batch.is_empty());
            // Each slice steps one item, whose send finds the destination
            // full: the slice suspends, and the items it took but did not
            // step are back at the front, in order.
            order.extend(sunk(&rx).into_iter().map(|(c, _)| c));
            assert_eq!(order.len() as u64, slice);
            assert_eq!(queued_corrs(&actor), (slice..4).collect::<Vec<_>>());
            assert_eq!(tx.progress(), (slice, 4 - slice as usize, false));
            assert_eq!(actor.mb.lock().unwrap().state, RunState::Suspended);
            // Draining the destination crosses back under capacity once and
            // resumes the producer exactly once.
            let mut drained = VecDeque::new();
            dest.take(RUN_SLICE, &mut drained);
            for _ in drained.drain(..) {
                dest.stepped();
            }
            let (_, waiters) = dest.end_slice(&mut drained, |_| RunState::Idle);
            assert_eq!(waiters.len(), 1);
            shared.resume(waiters, None);
            assert_eq!(shared.obs.resumes.get(), slice);
            assert!(shared.injector.lock().unwrap().pop_front().is_some());
            assert!(shared.injector.lock().unwrap().is_empty());
        }
        assert_eq!(order, vec![0, 1, 2, 3], "FIFO across slices");
        // Resumed with nothing left: the next slice idles it.
        run_actor(&shared, 0, Arc::clone(&actor), &mut batch);
        assert!(tx.is_quiet());
        // Break the test's cycle (the worker holds a sender to `dest`).
        drop(actor.worker.lock().unwrap().take());
    }

    #[test]
    fn a_slice_that_rests_puts_back_what_it_did_not_step() {
        let (shared, actor, rx) = emitter(None, 5, None);
        let rest = REST_QUANTUM;
        if let Some(worker) = actor.worker.lock().unwrap().as_mut() {
            worker.tes[0].work_ns = rest.as_nanos() as u64;
        }
        let tx = PoolSender {
            actor: Arc::clone(&actor),
        };
        shared.injector.lock().unwrap().clear();
        let mut batch = VecDeque::new();
        let mut order = Vec::new();
        for slice in 1..=5u64 {
            run_actor(&shared, 0, Arc::clone(&actor), &mut batch);
            assert!(batch.is_empty());
            // One item owes a full quantum: the slice rests after it with
            // the rest back at the front of the mailbox, in order.
            order.extend(sunk(&rx).into_iter().map(|(c, _)| c));
            assert_eq!(order.len() as u64, slice);
            assert_eq!(queued_corrs(&actor), (slice..5).collect::<Vec<_>>());
            assert_eq!(tx.progress(), (slice, 5 - slice as usize, false));
            let until = match actor.mb.lock().unwrap().state {
                RunState::Resting(until) => until,
                other => panic!("expected a rest, got {other:?}"),
            };
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            assert_eq!(shared.fire_due_timers(0), 1);
            assert!(shared.locals[0].lock().unwrap().pop_back().is_some());
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4], "FIFO across slices");
        run_actor(&shared, 0, Arc::clone(&actor), &mut batch);
        assert!(tx.is_quiet());
    }

    #[test]
    fn push_schedules_an_idle_actor_exactly_once() {
        let (shared, actor) = shell(1, 16);
        actor.push(0, WorkerMsg::Stop, true).unwrap();
        actor.push(0, WorkerMsg::Stop, true).unwrap();
        // One injection for two pushes: the second saw `Scheduled`.
        assert_eq!(shared.injector.lock().unwrap().len(), 1);
        assert_eq!(actor.mb.lock().unwrap().state, RunState::Scheduled);
    }

    #[test]
    fn closed_mailbox_rejects_sends_like_a_disconnected_channel() {
        let (shared, actor) = shell(1, 16);
        let tx = PoolSender {
            actor: Arc::clone(&actor),
        };
        assert!(!tx.is_closed());
        retire(&shared, &actor, None);
        assert!(tx.is_closed() && tx.is_quiet(), "a drain never waits on it");
        assert_eq!(actor.push(0, WorkerMsg::Stop, false), Err(SendClosed));
        assert_eq!(actor.push(0, WorkerMsg::Stop, true), Err(SendClosed));
        assert_eq!(*shared.live.lock().unwrap(), 0);
    }

    #[test]
    fn steps_crossing_capacity_return_waiters_once() {
        let (shared, actor) = shell(1, 2);
        let (_, producer) = shell(1, 2);
        producer.mb.lock().unwrap().state = RunState::Suspended;
        for _ in 0..5 {
            actor.push(0, WorkerMsg::Stop, true).unwrap();
        }
        actor.mb.lock().unwrap().waiters.push(Arc::clone(&producer));
        let mut batch = VecDeque::new();
        let step = |n: usize, batch: &mut VecDeque<_>| {
            for _ in 0..n {
                batch.pop_front().unwrap();
                actor.stepped();
            }
        };
        // Five unstepped; a take makes no room, three steps leave two: still
        // at capacity, no credit at the next take.
        let (waiters, _) = actor.take(3, &mut batch);
        assert!(waiters.is_empty());
        step(3, &mut batch);
        let (waiters, _) = actor.take(RUN_SLICE, &mut batch);
        assert!(waiters.is_empty());
        // Two steps cross under capacity: the slice's end hands the credit
        // out once for the whole batch.
        step(2, &mut batch);
        let (_, waiters) = actor.end_slice(&mut batch, |_| RunState::Idle);
        assert_eq!(waiters.len(), 1);
        shared.resume(waiters, None);
        assert_eq!(producer.mb.lock().unwrap().state, RunState::Scheduled);
        assert_eq!(shared.obs.resumes.get(), 1);
        // A slice that puts four back is at capacity again; the next
        // crossing hands credit to whoever registered since, and only to
        // them.
        for _ in 0..4 {
            actor.push(0, WorkerMsg::Stop, true).unwrap();
        }
        let (_, again) = shell(1, 2);
        again.mb.lock().unwrap().state = RunState::Suspended;
        actor.mb.lock().unwrap().waiters.push(Arc::clone(&again));
        actor.take(RUN_SLICE, &mut batch);
        step(1, &mut batch);
        let (_, waiters) = actor.end_slice(&mut batch, |_| RunState::Scheduled);
        assert!(waiters.is_empty(), "three put back are still at capacity");
        assert_eq!(actor.mb.lock().unwrap().queue.len(), 3);
        actor.take(RUN_SLICE, &mut batch);
        step(2, &mut batch);
        let (_, waiters) = actor.end_slice(&mut batch, |_| RunState::Scheduled);
        assert_eq!(actor.mb.lock().unwrap().queue.len(), 1);
        assert_eq!(waiters.len(), 1);
        assert!(Arc::ptr_eq(&waiters[0], &again));
        shared.resume(waiters, None);
        assert_eq!(shared.obs.resumes.get(), 2);
        // Later releases find no stale registrations.
        actor.push(0, WorkerMsg::Stop, true).unwrap();
        actor.take(RUN_SLICE, &mut batch);
        step(1, &mut batch);
        let (_, waiters) = actor.end_slice(&mut batch, |_| RunState::Idle);
        assert!(waiters.is_empty());
    }

    #[test]
    fn blocked_external_sender_wakes_once_the_mailbox_is_half_drained() {
        let (_shared, actor) = shell(1, 4);
        for corr in 0..4 {
            actor.push(0, marker(corr), true).unwrap();
        }
        let sender = Arc::clone(&actor);
        let handle = std::thread::spawn(move || sender.push(0, marker(4), false));
        while actor.mb.lock().unwrap().blocked_senders == 0 {
            std::thread::yield_now();
        }
        let mut batch = VecDeque::new();
        let step = |batch: &mut VecDeque<(usize, WorkerMsg)>| {
            let (_, msg) = batch.pop_front().unwrap();
            actor.stepped();
            corr_of(&msg)
        };
        // A take makes no room: the batch is still unstepped.
        actor.take(RUN_SLICE, &mut batch);
        assert_eq!(actor.mb.lock().unwrap().blocked_senders, 1);
        // 4 → 3: room for one, but the sender stays blocked (and counted)
        // until the mailbox is half drained.
        assert_eq!(step(&mut batch), 0);
        actor.put_back(&mut actor.mb.lock().unwrap(), &mut batch);
        actor.take(RUN_SLICE, &mut batch);
        assert_eq!(actor.mb.lock().unwrap().blocked_senders, 1);
        // 3 → 2: half drained with a sender counted as blocked — the slice's
        // end must notify, or the join below never returns.
        assert_eq!(step(&mut batch), 1);
        actor.end_slice(&mut batch, |_| RunState::Scheduled);
        assert_eq!(handle.join().unwrap(), Ok(()));
        assert_eq!(actor.mb.lock().unwrap().blocked_senders, 0);
        actor.take(RUN_SLICE, &mut batch);
        let corrs: Vec<u64> =
            std::iter::from_fn(|| (!batch.is_empty()).then(|| step(&mut batch))).collect();
        assert_eq!(corrs, vec![2, 3, 4]);
    }

    #[test]
    fn an_actor_is_quiet_only_with_an_empty_mailbox_and_no_pool_thread() {
        let (_shared, actor) = shell(1, 4);
        let tx = PoolSender {
            actor: Arc::clone(&actor),
        };
        assert!(tx.is_quiet());
        actor.push(0, marker(0), true).unwrap();
        assert!(!tx.is_quiet(), "a queued item");
        // A worker took the item and is still handling it.
        actor.mb.lock().unwrap().state = RunState::Running;
        actor.take(RUN_SLICE, &mut VecDeque::new());
        assert!(!tx.is_quiet(), "an item mid-handle");
        for after in [
            RunState::Idle,
            RunState::Suspended,
            RunState::Resting(Instant::now()),
        ] {
            actor.mb.lock().unwrap().state = after;
            assert!(tx.is_quiet(), "{after:?}");
        }
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
        a.push(0, marker(0), true).unwrap();
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
    fn a_push_while_a_worker_spins_needs_no_wake_and_an_idle_pool_parks() {
        let (shared, actor) = shell(1, 4);
        let mut rng = XorShift64::new(1);
        // Spinning with nothing runnable ends empty-handed, never counted
        // as parked.
        assert!(spin_for_task(&shared, 0, &mut rng).is_none());
        assert_eq!(shared.parked.load(Ordering::SeqCst), 0);
        // A push meanwhile sees no parked worker, so it wakes nobody, and
        // the spin finds the actor.
        actor.push(0, marker(0), true).unwrap();
        let found = spin_for_task(&shared, 0, &mut rng).expect("the spin finds the push");
        assert!(Arc::ptr_eq(&found, &actor));
        assert_eq!(shared.obs.parks.get(), 0);
        // A pool with nothing to do still parks once its spin ends.
        let sched = Arc::new(SchedInstruments::default());
        let pool = Pool::start(1, Arc::clone(&sched));
        let deadline = Instant::now() + Duration::from_secs(10);
        while sched.parks.get() == 0 {
            assert!(Instant::now() < deadline, "an idle pool parks");
            std::thread::yield_now();
        }
        drop(pool);
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
