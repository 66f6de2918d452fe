//! TE instance workers: the pipelined processing loops.
//!
//! Each TE instance is one serial consumer of a bounded mailbox: a
//! cooperative actor multiplexed onto the deployment's work-stealing pool
//! (see [`crate::sched`]). Producers dispatch directly into consumer
//! mailboxes (no central scheduler), so a full mailbox applies
//! backpressure upstream — this is the paper's fully pipelined execution
//! (§3.1).

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use parking_lot::{Mutex, RwLock};
use sdg_checkpoint::buffer::OutputBuffer;
use sdg_checkpoint::cell::StateCell;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, TaskId};
use sdg_common::obs::TaskShard;
use sdg_common::time::ScalarTs;
use sdg_common::value::{Record, Value};
use sdg_graph::model::{Dispatch, NativeTask, TaskCode, TaskContext};
use sdg_ir::eval::Effects;
use sdg_ir::te_compiled::CompiledTe;
use sdg_state::partition::KeyLayout;

use crate::compile::{run_compiled, Scratch};
use crate::fault::{FailureHub, FaultAction, FaultTrigger, PanicProbe};
use crate::item::{lane, route_hash, Item};
use crate::sched::{self, PoolSender};

/// Synthetic service time is rested in slices of at least this much: a
/// shorter timer wait overshoots by the timer slack, which would distort
/// the modelled service rate.
const REST_QUANTUM: Duration = Duration::from_millis(1);

/// Messages delivered to a worker.
#[derive(Debug)]
pub enum WorkerMsg {
    /// A data item to process.
    Item(Item),
    /// Graceful stop.
    Stop,
}

/// Error returned by [`PoolSender::send`]: the consumer actor retired,
/// like a send into a disconnected channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendClosed;

/// Key of one upstream output buffer: `(edge, producer replica, consumer
/// replica)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferKey {
    /// Dataflow edge (or ingest lane edge).
    pub edge: EdgeId,
    /// Producer replica.
    pub src: u32,
    /// Consumer replica the item was sent to.
    pub dst: u32,
}

/// A shared handle to one upstream output buffer.
type BufferHandle = Arc<Mutex<OutputBuffer>>;

/// The registry maps live under one lock so they can never disagree.
#[derive(Debug, Default)]
struct RegistryMaps {
    by_key: HashMap<BufferKey, BufferHandle>,
    /// Secondary index: the buffers feeding each `(edge, consumer replica)`,
    /// as `(src, buffer)` pairs in creation order. Keeps the recovery and
    /// trim paths O(producers of one consumer) instead of a linear scan
    /// over every buffer in the deployment.
    by_consumer: HashMap<(EdgeId, u32), Vec<(u32, BufferHandle)>>,
    /// The last timestamp emitted on each `(edge, producer replica)` lane.
    clocks: HashMap<(EdgeId, u32), Arc<AtomicU64>>,
}

/// Registry of all upstream output buffers in a deployment, and of every
/// lane's clock.
///
/// Only the lanes into a task that accesses state log here (the
/// deployment decides which, in `Inner::logs_into`): each buffer is read
/// by its consumer's recovery and trimmed by its consumer's checkpoints,
/// so every logged item has a reader.
#[derive(Debug, Default)]
pub struct BufferRegistry {
    maps: Mutex<RegistryMaps>,
    /// Aggregate bytes across all buffers, maintained incrementally by the
    /// buffers themselves (see [`OutputBuffer::with_shared`]): the
    /// backpressure gauge reads one atomic instead of locking every buffer.
    bytes: Arc<AtomicUsize>,
}

impl BufferRegistry {
    /// Returns (creating on demand) the buffer for `key`.
    pub fn get(&self, key: BufferKey) -> Arc<Mutex<OutputBuffer>> {
        let mut maps = self.maps.lock();
        if let Some(buf) = maps.by_key.get(&key) {
            return Arc::clone(buf);
        }
        let buf = Arc::new(Mutex::new(OutputBuffer::with_shared(Arc::clone(
            &self.bytes,
        ))));
        maps.by_key.insert(key, Arc::clone(&buf));
        maps.by_consumer
            .entry((key.edge, key.dst))
            .or_default()
            .push((key.src, Arc::clone(&buf)));
        buf
    }

    /// Returns (creating on demand) the clock of the `(edge, src)` lane:
    /// the last timestamp any instance of producer replica `src` emitted
    /// on `edge`, 0 before the first.
    ///
    /// Every incarnation of the producer shares the one clock, so a
    /// respawned instance resumes past its predecessor's last timestamp
    /// whether or not a buffer still holds it: reusing a timestamp would
    /// make the consumer's dedupe drop the new item.
    pub fn lane_clock(&self, edge: EdgeId, src: u32) -> Arc<AtomicU64> {
        Arc::clone(self.maps.lock().clocks.entry((edge, src)).or_default())
    }

    /// Returns all buffers feeding consumer replica `dst` on `edge`.
    pub fn buffers_into(&self, edge: EdgeId, dst: u32) -> Vec<(u32, Arc<Mutex<OutputBuffer>>)> {
        self.maps
            .lock()
            .by_consumer
            .get(&(edge, dst))
            .cloned()
            .unwrap_or_default()
    }

    /// Total buffered bytes across all buffers. O(1): the buffers mirror
    /// every accounting change into one shared atomic, so the periodic
    /// gauge refresh never contends on per-buffer locks.
    pub fn total_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// One TE instance in its task's [`Route`]: the mailbox producers send
/// into, and what the supervisor and the scale paths read about it.
pub(crate) struct Instance {
    pub(crate) tx: PoolSender,
    /// The worker's liveness flag ([`Worker::alive`]).
    pub(crate) alive: Arc<AtomicBool>,
    /// The cluster node hosting the instance.
    pub(crate) node: u32,
}

/// How producers reach one task: its instances in replica order, and the
/// sends staged while a control operation holds the route paused.
///
/// Inside a pool slice a send never waits for a pause: it stages, and the
/// [`Paused`] guard flushes the stage when it is dropped. External threads
/// (ingest, `quiesce`, the monitor, the supervisor) wait in
/// [`Route::read`], as they wait on a full mailbox.
#[derive(Default)]
pub(crate) struct Route {
    slots: RwLock<Vec<Instance>>,
    /// Sends made into the paused route from inside a pool slice.
    staged: Mutex<Vec<(Arc<Lane>, Outgoing)>>,
}

impl Route {
    /// Shared access to the instances, blocking while the route is paused.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Vec<Instance>> {
        self.slots.read()
    }

    /// Pauses the route: no send reaches an instance until the guard drops.
    pub(crate) fn write(&self) -> Paused<'_> {
        Paused {
            route: self,
            slots: Some(self.slots.write()),
        }
    }
}

/// A paused [`Route`], dereferencing to its instances.
///
/// Dropping it flushes every send staged meanwhile, routed by the
/// instances as they then stand, so a staged send follows a scale's new
/// count and is stamped above everything a recovery replayed. The stage
/// lock is held until the write guard is gone: a sender that failed to
/// read the route and then takes the stage lock either reads the released
/// route or stages for the next pause's flush.
pub(crate) struct Paused<'a> {
    route: &'a Route,
    slots: Option<RwLockWriteGuard<'a, Vec<Instance>>>,
}

impl Deref for Paused<'_> {
    type Target = Vec<Instance>;

    fn deref(&self) -> &Vec<Instance> {
        self.slots.as_ref().expect("held until drop")
    }
}

impl DerefMut for Paused<'_> {
    fn deref_mut(&mut self) -> &mut Vec<Instance> {
        self.slots.as_mut().expect("held until drop")
    }
}

impl Drop for Paused<'_> {
    fn drop(&mut self) {
        let mut staged = self.route.staged.lock();
        let slots = self.slots.take().expect("held until drop");
        for (lane, out) in staged.drain(..) {
            // An error leaves the item in its lane's log: the consumer
            // failed, and its recovery replays it.
            let _ = lane.deliver(&slots, out, &mut Vec::new(), PoolSender::force_send);
        }
        drop(slots);
    }
}

/// One send of a producer lane, projected and keyed, not yet stamped.
struct Outgoing {
    payload: Arc<Record>,
    /// The partition hash, for partitioned dispatch ([`route_hash`]).
    key: Option<u64>,
    corr: u64,
    /// The fragment count of the item that caused it (gather edges).
    expect: u32,
    submitted_at: Option<Instant>,
}

/// Producer replica `src`'s lane on `edge`: how its sends spread over the
/// consumer's instances, and the clock and log that stamp and keep them.
struct Lane {
    edge: EdgeId,
    src: u32,
    dispatch: Dispatch,
    /// The lane's clock in the registry ([`BufferRegistry::lane_clock`]),
    /// so the next incarnation of this replica resumes past its last
    /// timestamp.
    clock: Arc<AtomicU64>,
    /// The upstream-backup registry, when the lane logs: checkpointing is
    /// on and the consumer accesses state.
    buffers: Option<Arc<BufferRegistry>>,
}

impl Lane {
    /// Stamps `out` with the lane's next timestamp, routes it over `slots`
    /// by the dispatch rule — [`KeyLayout::instance`] of the partition
    /// hash, which the item carries on to its stripe, the shortest queue
    /// (ties go round-robin by timestamp), the gather instance, or all n —
    /// and logs and `push`es it to each destination. `cache` holds this
    /// lane's buffer handles.
    fn deliver(
        &self,
        slots: &[Instance],
        out: Outgoing,
        cache: &mut Vec<Option<BufferHandle>>,
        push: fn(&PoolSender, WorkerMsg) -> Result<(), SendClosed>,
    ) -> SdgResult<()> {
        let n = slots.len();
        if n == 0 {
            return Err(SdgError::Runtime(format!(
                "edge {} has no consumer instances",
                self.edge
            )));
        }
        let ts = self.tick();
        let (dsts, expect) = match &self.dispatch {
            Dispatch::Partitioned { .. } => {
                let hash = out.key.expect("a partitioned send carries its key");
                let idx = KeyLayout::instance(hash, n);
                (idx..idx + 1, 1)
            }
            Dispatch::OneToAny => {
                let idx = shortest_queue(slots, ts as usize);
                (idx..idx + 1, 1)
            }
            // The gather consumer is a single instance. The fragment count
            // equals the fan-out of the broadcast that fed this producer,
            // which travelled on the input item.
            Dispatch::AllToOne { .. } => (0..1, out.expect),
            Dispatch::OneToAll => (0..n, n as u32),
        };
        for dst in dsts {
            // A broadcast shares one allocation: every destination's item
            // and log entry is a refcount bump on the same record.
            if let Some(buffers) = &self.buffers {
                if cache.len() <= dst {
                    cache.resize(dst + 1, None);
                }
                let buf = cache[dst].get_or_insert_with(|| {
                    buffers.get(BufferKey {
                        edge: self.edge,
                        src: self.src,
                        dst: dst as u32,
                    })
                });
                buf.lock()
                    .push_live(ts, out.corr, expect, Arc::clone(&out.payload));
            }
            let item = Item {
                edge: self.edge,
                src_replica: self.src,
                ts,
                corr: out.corr,
                expect,
                payload: Arc::clone(&out.payload),
                route: out.key,
                submitted_at: out.submitted_at,
            };
            push(&slots[dst].tx, WorkerMsg::Item(item))
                .map_err(|_| SdgError::Runtime("consumer channel closed".into()))?;
        }
        Ok(())
    }

    /// Advances the lane's clock. A relaxed load and store, no
    /// read-modify-write: one writer at a time, the producer under the
    /// route's read guard or a flush under its write guard, and the lock
    /// orders them. The next incarnation of the producer reads the clock
    /// after the control path that spawns it has synchronised with this
    /// one's death.
    fn tick(&self) -> ScalarTs {
        let ts = self.clock.load(Ordering::Relaxed) + 1;
        self.clock.store(ts, Ordering::Relaxed);
        ts
    }
}

/// Join-shortest-queue from `start`: slow (straggler) instances naturally
/// receive less work; ties fall back to round-robin.
fn shortest_queue(slots: &[Instance], start: usize) -> usize {
    let n = slots.len();
    let (mut idx, mut best) = (start % n, usize::MAX);
    for off in 0..n {
        let candidate = (start + off) % n;
        let depth = slots[candidate].tx.len();
        if depth < best {
            best = depth;
            idx = candidate;
        }
        if depth == 0 {
            break;
        }
    }
    idx
}

/// One outgoing edge of a worker, with its dispatch machinery. Every item
/// is logged and sent the moment it is produced, or staged while the
/// consumer's route is paused.
pub struct OutEdge {
    lane: Arc<Lane>,
    /// Live variables to project onto the edge.
    live_vars: Vec<String>,
    route: Arc<Route>,
    /// Cached buffer handles per destination (the registry hands out one
    /// `Arc` per key for the deployment's lifetime, so caching is safe and
    /// removes the registry lock from the steady-state send path).
    buf_cache: Vec<Option<BufferHandle>>,
    /// Cached projection: positions of `live_vars` within the last payload
    /// shape seen, revalidated per item by name.
    proj_idx: Option<Vec<usize>>,
}

impl OutEdge {
    /// Builds the dispatcher of producer replica `src` on `edge` into
    /// `route`. Its timestamps continue the lane's clock in `buffers`,
    /// whether or not it logs; `buffered` logs every item there, which the
    /// deployment asks only of a lane whose consumer's recovery replays
    /// it.
    pub(crate) fn new(
        edge: EdgeId,
        src: u32,
        dispatch: Dispatch,
        live_vars: Vec<String>,
        route: Arc<Route>,
        buffers: Arc<BufferRegistry>,
        buffered: bool,
    ) -> Self {
        OutEdge {
            lane: Arc::new(Lane {
                edge,
                src,
                dispatch,
                clock: buffers.lane_clock(edge, src),
                buffers: buffered.then_some(buffers),
            }),
            live_vars,
            route,
            buf_cache: Vec::new(),
            proj_idx: None,
        }
    }

    /// Projects `payload` onto the edge's live set.
    ///
    /// Fast paths: an empty live set forwards everything, and a payload
    /// whose fields already equal the live set (the common case for
    /// compiled TEs, which build outputs from the sorted live-variable
    /// list) is *shared* — a refcount bump, no per-field work at all.
    /// Otherwise a narrowed record is built copy-on-write: field positions
    /// are cached from the previous item and revalidated by name, falling
    /// back to a scanning projection when the shape changed or a live
    /// variable is absent.
    fn project(&mut self, payload: &Arc<Record>) -> Arc<Record> {
        if self.live_vars.is_empty() || payload.fields_match(&self.live_vars) {
            return Arc::clone(payload);
        }
        if let Some(idx) = &self.proj_idx {
            if idx.len() == self.live_vars.len() {
                let mut out = Record::with_capacity(idx.len());
                let mut valid = true;
                for (want, &pos) in self.live_vars.iter().zip(idx) {
                    match payload.at(pos) {
                        Some((name, value)) if &**name == want.as_str() => {
                            out.push_unchecked(Arc::clone(name), value.clone());
                        }
                        _ => {
                            valid = false;
                            break;
                        }
                    }
                }
                if valid {
                    return Arc::new(out);
                }
            }
        }
        let mut idx = Vec::with_capacity(self.live_vars.len());
        for name in &self.live_vars {
            match payload.position(name) {
                Some(pos) => idx.push(pos),
                None => {
                    // A live variable is absent (e.g. gather fragments):
                    // don't cache partial shapes.
                    self.proj_idx = None;
                    return Arc::new(payload.project(&self.live_vars));
                }
            }
        }
        let mut out = Record::with_capacity(idx.len());
        for &pos in &idx {
            let (name, value) = payload
                .at(pos)
                .expect("position() returned in-bounds index");
            out.push_unchecked(Arc::clone(name), value.clone());
        }
        self.proj_idx = Some(idx);
        Arc::new(out)
    }

    /// Dispatches `payload` by the edge's rule.
    ///
    /// Inside a pool slice a paused route is never waited on: the send is
    /// staged with the route and flushed when the pause ends. The second
    /// read under the stage lock closes the race with that flush, which
    /// holds the stage lock until the route is released.
    pub fn send(
        &mut self,
        payload: &Arc<Record>,
        corr: u64,
        upstream_expect: u32,
        submitted_at: Option<Instant>,
    ) -> SdgResult<()> {
        let payload = self.project(payload);
        let key = route_hash(&self.lane.dispatch, &payload)?;
        let out = Outgoing {
            key,
            payload,
            corr,
            expect: upstream_expect,
            submitted_at,
        };
        let route = &*self.route;
        let slots = match route.slots.try_read() {
            Some(slots) => slots,
            None if sched::in_actor() => {
                let mut staged = route.staged.lock();
                match route.slots.try_read() {
                    Some(slots) => slots,
                    None => {
                        staged.push((Arc::clone(&self.lane), out));
                        return Ok(());
                    }
                }
            }
            None => route.slots.read(),
        };
        self.lane
            .deliver(&slots, out, &mut self.buf_cache, PoolSender::send)
    }
}

/// An event on the SDG's external output.
#[derive(Debug, Clone)]
pub struct OutputEvent {
    /// Correlation id of the originating request.
    pub corr: u64,
    /// Emitted value.
    pub value: Value,
    /// Client-visible latency: from ingest until the output reached the
    /// sink, stamped when the emitting instance hands its slice's outputs
    /// over (absent for replayed duplicates).
    pub latency: Option<Duration>,
}

/// A task's executable payload after deploy-time preparation.
///
/// Translated (StateLang) code is lowered once per task into slot-addressed
/// form and shared by every instance via `Arc` — the engine analogue of the
/// paper's per-TE bytecode generation.
#[derive(Clone)]
pub enum PreparedCode {
    /// Forward the input unchanged.
    Passthrough,
    /// Slot-compiled TE, executed against a reused register file.
    Compiled(Arc<CompiledTe>),
    /// Handwritten native task.
    Native(Arc<dyn NativeTask>),
}

impl PreparedCode {
    /// Prepares `code` for execution, compiling translated code; every
    /// instance of the task shares the result.
    pub fn prepare(code: &TaskCode) -> PreparedCode {
        match code {
            TaskCode::Passthrough => PreparedCode::Passthrough,
            TaskCode::Native(task) => PreparedCode::Native(Arc::clone(task)),
            TaskCode::Interpreted(te) => PreparedCode::Compiled(Arc::new(CompiledTe::compile(te))),
        }
    }
}

/// One TE instance: its code, state, edges and instruments. The pool
/// scheduler drives it one mailbox message at a time.
pub struct Worker {
    /// Task name (diagnostics).
    pub name: String,
    /// Replica index of this instance.
    pub replica: u32,
    /// Executable payload, prepared at deploy time.
    pub code: PreparedCode,
    /// Reused register file + helper-frame pool for the compiled engine.
    pub scratch: Scratch,
    /// Local SE instance, when the task has an access edge.
    pub cell: Option<Arc<StateCell>>,
    /// Outgoing edges.
    pub outs: Vec<OutEdge>,
    /// External output sink.
    pub sink: Sender<OutputEvent>,
    /// Outputs emitted since the last [`Worker::flush_outputs`], each with
    /// its request's ingest time.
    pub(crate) pending_outputs: Vec<(OutputEvent, Option<Instant>)>,
    /// Gather state for all-to-one input edges: `corr → fragments by
    /// producer replica`.
    pub pending_gathers: HashMap<u64, HashMap<u32, Item>>,
    /// Collect variable of the inbound gather edge, if any.
    pub gather_var: Option<String>,
    /// Synthetic per-item CPU cost in nanoseconds (scaled by node speed).
    pub work_ns: u64,
    /// Hosting node's speed factor.
    pub speed: f64,
    /// Cleared when the hosting node "fails": the worker then discards
    /// items, simulating loss of in-flight data.
    pub alive: Arc<AtomicBool>,
    /// This instance's own instruments, folded into its task's row at
    /// snapshot: items in/out, processed, errors, gather waits, service
    /// time, latency.
    pub obs: TaskShard,
    /// Accumulated synthetic service time not yet rested: the pool rests
    /// the actor on its timer heap once this reaches 1 ms.
    pub work_debt: Duration,
    /// Owning task id (failure reports name the instance precisely).
    pub task: TaskId,
    /// Armed injection point from the deployment's fault plan, if any.
    pub fault: Option<Arc<FaultTrigger>>,
    /// Where the pool's panic boundary reports caught panics.
    pub hub: Arc<FailureHub>,
}

impl Worker {
    /// Processes one message; returns `true` when the instance must stop.
    ///
    /// The pool actor ([`crate::sched`]) calls this once per mailbox
    /// message.
    pub(crate) fn step(&mut self, msg: WorkerMsg) -> bool {
        match msg {
            WorkerMsg::Stop => true,
            WorkerMsg::Item(item) => {
                // On a simulated dead node, in-flight items are lost.
                if self.alive.load(Ordering::Acquire) {
                    self.handle(item);
                }
                false
            }
        }
    }

    /// Whether enough synthetic service time accrued to rest it.
    pub(crate) fn owes_rest(&self) -> bool {
        self.work_debt >= REST_QUANTUM
    }

    /// Takes the accrued service time once it is worth a rest.
    pub(crate) fn take_rest(&mut self) -> Option<Duration> {
        self.owes_rest()
            .then(|| std::mem::take(&mut self.work_debt))
    }

    /// Hands every output emitted since the last flush to the sink in one
    /// batch: one lock on the sink channel and at most one wake of a
    /// waiting client, where a send per emit would pay both per output.
    /// One clock read stamps every output's latency and its latency
    /// sample, so latency runs from ingest until the output reaches the
    /// sink.
    ///
    /// The pool flushes at the end of every slice, before any run-state
    /// change, so a quiet instance has no output held back; and before it
    /// drops a worker that panicked, whose earlier items in the slice
    /// already applied their state and will not emit again on replay.
    pub(crate) fn flush_outputs(&mut self) {
        if self.pending_outputs.is_empty() {
            return;
        }
        let now = Instant::now();
        for (event, submitted_at) in &mut self.pending_outputs {
            event.latency = submitted_at.map(|t| now.saturating_duration_since(t));
            if let Some(l) = event.latency {
                self.obs.record_latency(l.as_nanos() as u64);
            }
        }
        // Fails only once the deployment dropped its receiver.
        let _ = self
            .sink
            .send_batch(self.pending_outputs.drain(..).map(|(event, _)| event));
    }

    /// Everything a scheduler boundary needs to report this worker's
    /// death after the unwind consumed it.
    pub(crate) fn panic_probe(&self) -> PanicProbe {
        PanicProbe {
            task: self.task,
            replica: self.replica,
            label: format!("{}#{}", self.name, self.replica),
            hub: Arc::clone(&self.hub),
        }
    }

    fn handle(&mut self, item: Item) {
        // Injected faults fire before the item is touched: nothing is
        // half-processed, no gauge is incremented, and the item itself is
        // already in its upstream output buffer, so recovery replays it
        // to the replacement instance.
        if let Some(action) = self.fault.as_ref().and_then(|t| t.poll()) {
            match action {
                FaultAction::Panic => panic!(
                    "injected fault: {}#{} fails on this item",
                    self.name, self.replica
                ),
                FaultAction::Stall(dur) => {
                    // The items before this one in the slice are done:
                    // their outputs do not wait out the stall.
                    self.flush_outputs();
                    std::thread::sleep(dur);
                    if !self.alive.load(Ordering::Acquire) {
                        // The supervisor declared us hung and recovered
                        // around us while we slept; the item replays to
                        // the replacement, so touching it here would
                        // double-apply it.
                        return;
                    }
                }
            }
        }
        self.obs.add_items_in(1);
        // Gather barriers assemble one logical item from `expect` fragments.
        let item = match &self.gather_var {
            Some(var) => match Self::assemble(&mut self.pending_gathers, item, var) {
                Some(merged) => merged,
                None => {
                    // Barrier still waiting on sibling fragments.
                    self.obs.add_gather_waits(1);
                    return;
                }
            },
            None => item,
        };
        let t0 = Instant::now();
        let r = self.process(&item);
        self.obs.record_service(t0.elapsed().as_nanos() as u64);
        if r.is_err() {
            self.obs.add_errors(1);
        }
    }

    /// Collects a gather fragment into `pending` (the worker's
    /// `pending_gathers`); returns the merged item once all arrived.
    fn assemble(
        pending: &mut HashMap<u64, HashMap<u32, Item>>,
        item: Item,
        collect_var: &str,
    ) -> Option<Item> {
        let corr = item.corr;
        let expect = item.expect.max(1) as usize;
        let slot = pending.entry(corr).or_default();
        slot.insert(item.src_replica, item);
        if slot.len() < expect {
            return None;
        }
        let mut fragments = pending.remove(&corr)?;
        // Deterministic order: by producer replica.
        let mut replicas: Vec<u32> = fragments.keys().copied().collect();
        replicas.sort_unstable();
        let first = replicas[0];
        let base = fragments.remove(&first)?;
        let mut collected: Vec<Value> = Vec::with_capacity(replicas.len());
        collected.push(
            base.payload
                .get(collect_var)
                .cloned()
                .unwrap_or(Value::Null),
        );
        let mut submitted_at = base.submitted_at;
        for r in &replicas[1..] {
            let frag = fragments.remove(r)?;
            collected.push(
                frag.payload
                    .get(collect_var)
                    .cloned()
                    .unwrap_or(Value::Null),
            );
            submitted_at = submitted_at.or(frag.submitted_at);
        }
        // Copy-on-write: the base fragment's record is usually uniquely
        // owned here (its producer already dropped it), so `make_mut`
        // mutates in place; a shared record is cloned once.
        let mut payload = base.payload;
        Arc::make_mut(&mut payload).set(collect_var, Value::List(collected));
        Some(Item {
            edge: base.edge,
            src_replica: first,
            ts: base.ts,
            corr: base.corr,
            expect: 1,
            payload,
            route: base.route,
            submitted_at,
        })
    }

    fn process(&mut self, item: &Item) -> SdgResult<()> {
        if self.work_ns > 0 {
            // Accrue the modelled service time; the pool rests the actor
            // on its timer heap once a quantum is owed (see `take_rest`),
            // so a slow simulated node never holds a pool thread.
            self.work_debt +=
                Duration::from_nanos((self.work_ns as f64 / self.speed.max(0.01)) as u64);
        }
        // Stateless passthrough: no state to read, no duplicates to filter —
        // forward the input record by refcount instead of deep-cloning it
        // through the execution engine.
        if self.cell.is_none() && matches!(self.code, PreparedCode::Passthrough) {
            self.obs.add_processed(1);
            self.obs.add_items_out(self.outs.len() as u64);
            for out in &mut self.outs {
                out.send(&item.payload, item.corr, item.expect, item.submitted_at)?;
            }
            return Ok(());
        }
        // Split the borrows up front: the state-cell closures need the code
        // (shared) and the scratch (exclusive) while `self.cell` is held.
        let code = &self.code;
        let scratch = &mut self.scratch;
        let replica = self.replica;
        let effects = match &self.cell {
            Some(cell) => {
                let lane = lane(item.edge, item.src_replica);
                // A striped cell is fed only by edges partitioned on the
                // access key (`deploy::cell_layout`), so the hash the item
                // was routed by picks the stripe holding exactly the keys
                // it may touch.
                match cell.apply_routed(lane, item.ts, item.route, |store| {
                    execute_prepared(code, &item.payload, Some(store), replica, scratch)
                }) {
                    None => {
                        // Duplicate from a replay: already applied.
                        self.obs.add_processed(1);
                        return Ok(());
                    }
                    Some(r) => r?,
                }
            }
            None => execute_prepared(code, &item.payload, None, replica, scratch)?,
        };
        self.obs.add_processed(1);
        self.obs.add_emits(effects.emits.len() as u64);
        // Stamped and sent when the slice ends (`flush_outputs`).
        self.pending_outputs
            .extend(effects.emits.into_iter().map(|value| {
                let event = OutputEvent {
                    corr: item.corr,
                    value,
                    latency: None,
                };
                (event, item.submitted_at)
            }));
        self.obs
            .add_items_out((effects.forwards.len() * self.outs.len()) as u64);
        for record in effects.forwards {
            // One refcounted allocation per forwarded record, shared by
            // every outgoing edge (and its output-buffer log entry).
            let payload = Arc::new(record);
            for out in &mut self.outs {
                out.send(&payload, item.corr, item.expect, item.submitted_at)?;
            }
        }
        Ok(())
    }
}

/// Executes prepared code against one input, reusing `scratch` on the
/// compiled path.
pub fn execute_prepared(
    code: &PreparedCode,
    input: &Record,
    state: Option<&mut sdg_state::store::StateStore>,
    replica: u32,
    scratch: &mut Scratch,
) -> SdgResult<Effects> {
    match code {
        PreparedCode::Passthrough => Ok(Effects {
            forwards: vec![input.clone()],
            emits: Vec::new(),
        }),
        PreparedCode::Compiled(te) => run_compiled(te, input, state, scratch),
        PreparedCode::Native(task) => run_native(task.as_ref(), input, state, replica),
    }
}

fn run_native(
    task: &dyn NativeTask,
    input: &Record,
    state: Option<&mut sdg_state::store::StateStore>,
    replica: u32,
) -> SdgResult<Effects> {
    let mut ctx = NativeCtx {
        state,
        effects: Effects::default(),
        replica,
    };
    task.process(input, &mut ctx)?;
    Ok(ctx.effects)
}

struct NativeCtx<'a> {
    state: Option<&'a mut sdg_state::store::StateStore>,
    effects: Effects,
    replica: u32,
}

impl TaskContext for NativeCtx<'_> {
    fn state(&mut self) -> Option<&mut sdg_state::store::StateStore> {
        self.state.as_deref_mut()
    }

    fn emit(&mut self, record: Record) {
        // Native emissions carry the record's `value` field, or the whole
        // record as a list when absent.
        let value = record
            .get("value")
            .cloned()
            .unwrap_or_else(|| Value::List(record.iter().map(|(_, v)| v.clone()).collect()));
        self.effects.emits.push(value);
    }

    fn forward(&mut self, record: Record) {
        self.effects.forwards.push(record);
    }

    fn replica(&self) -> u32 {
        self.replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::record;

    #[test]
    fn buffer_registry_creates_and_trims() {
        let reg = BufferRegistry::default();
        let key = BufferKey {
            edge: EdgeId(1),
            src: 0,
            dst: 2,
        };
        let small = Arc::new(record! {"a" => Value::Int(1)});
        let large = Arc::new(record! {"a" => Value::str("a longer payload")});
        reg.get(key).lock().push_live(1, 0, 1, Arc::clone(&small));
        reg.get(key).lock().push_live(2, 0, 1, Arc::clone(&large));
        let (small, large) = (small.approx_size() + 16, large.approx_size() + 16);
        assert_eq!(reg.total_bytes(), small + large);
        let into = reg.buffers_into(EdgeId(1), 2);
        assert_eq!(into.len(), 1);
        assert_eq!(into[0].0, 0);
        into[0].1.lock().trim(1);
        assert_eq!(reg.total_bytes(), large);
        assert!(reg.buffers_into(EdgeId(1), 9).is_empty());
    }

    #[test]
    fn registry_total_bytes_matches_per_buffer_walk() {
        // The O(1) aggregate must agree with a from-scratch walk over
        // every buffer after a mix of pushes and trims.
        let reg = BufferRegistry::default();
        let keys: Vec<BufferKey> = (0..4)
            .map(|i| BufferKey {
                edge: EdgeId(1),
                src: i,
                dst: i % 2,
            })
            .collect();
        for (n, key) in keys.iter().enumerate() {
            let buf = reg.get(*key);
            for t in 1..=(n as u64 + 3) {
                let payload =
                    record! {"a" => Value::List(vec![Value::Int(0); t as usize * (n + 1)])};
                buf.lock().push_live(t, 0, 1, Arc::new(payload));
            }
        }
        reg.get(keys[0]).lock().trim(2);
        let walk: usize = keys
            .iter()
            .map(|k| reg.get(*k).lock().buffered_bytes())
            .sum();
        assert_eq!(reg.total_bytes(), walk);
        for key in &keys {
            reg.get(*key).lock().trim(u64::MAX);
        }
        assert_eq!(reg.total_bytes(), 0);
    }

    #[test]
    fn passthrough_execute_forwards_input() {
        let rec = record! {"a" => Value::Int(1)};
        let fx = execute_prepared(
            &PreparedCode::Passthrough,
            &rec,
            None,
            0,
            &mut Scratch::default(),
        )
        .unwrap();
        assert_eq!(fx.forwards, vec![rec]);
        assert!(fx.emits.is_empty());
    }

    #[test]
    fn native_ctx_emit_prefers_value_field() {
        struct Echo;
        impl sdg_graph::model::NativeTask for Echo {
            fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
                ctx.emit(input.clone());
                ctx.forward(input.clone());
                assert_eq!(ctx.replica(), 3);
                Ok(())
            }
        }
        let code = PreparedCode::Native(Arc::new(Echo));
        let rec = record! {"value" => Value::Int(42), "other" => Value::Int(1)};
        let fx = execute_prepared(&code, &rec, None, 3, &mut Scratch::default()).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(42)]);
        assert_eq!(fx.forwards.len(), 1);
    }
}
