//! TE instance workers: the pipelined processing loops.
//!
//! Each TE instance is one serial consumer of a bounded mailbox: a
//! cooperative actor multiplexed onto the deployment's work-stealing pool
//! (see [`crate::sched`]). Producers dispatch directly into consumer
//! mailboxes (no central scheduler), so a full mailbox applies
//! backpressure upstream — this is the paper's fully pipelined execution
//! (§3.1).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use parking_lot::{Mutex, RwLock};
use sdg_checkpoint::buffer::OutputBuffer;
use sdg_checkpoint::cell::StateCell;
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, TaskId};
use sdg_common::metrics::Histogram;
use sdg_common::obs::TaskInstruments;
use sdg_common::time::ScalarTs;
use sdg_common::value::{Record, Value};
use sdg_graph::model::{Dispatch, NativeTask, TaskCode, TaskContext};
use sdg_ir::eval::Effects;
use sdg_ir::te_compiled::CompiledTe;

use crate::compile::{run_compiled, Scratch};
use crate::fault::{FailureHub, FaultAction, FaultTrigger, PanicProbe};
use crate::item::{lane, Item};
use crate::sched::PoolSender;

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

/// The shared list of consumer-instance mailboxes for one task.
pub type Targets = Arc<RwLock<Vec<PoolSender>>>;

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

/// Registry of all upstream output buffers in a deployment.
#[derive(Debug, Default)]
pub struct BufferRegistry {
    maps: Mutex<RegistryMaps>,
    /// Aggregate bytes across all buffers, maintained incrementally by the
    /// buffers themselves (see [`OutputBuffer::with_shared`]): the
    /// backpressure gauge reads one atomic instead of locking every buffer.
    bytes: Arc<AtomicUsize>,
    /// Maximum items kept per buffer for consumers that never checkpoint
    /// (stateless tasks); bounds the upstream-backup horizon.
    pub stateless_cap: usize,
}

impl BufferRegistry {
    /// Creates a registry with the given stateless-consumer cap.
    pub fn new(stateless_cap: usize) -> Self {
        BufferRegistry {
            maps: Mutex::new(RegistryMaps::default()),
            bytes: Arc::new(AtomicUsize::new(0)),
            stateless_cap,
        }
    }

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

    /// Trims the buffer feeding `(edge, src → dst)` below `watermark`.
    pub fn trim(&self, key: BufferKey, watermark: u64) {
        let buf = self.maps.lock().by_key.get(&key).cloned();
        if let Some(buf) = buf {
            buf.lock().trim(watermark);
        }
    }

    /// Total buffered bytes across all buffers. O(1): the buffers mirror
    /// every accounting change into one shared atomic, so the periodic
    /// gauge refresh never contends on per-buffer locks.
    pub fn total_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// One outgoing edge of a worker, with its dispatch machinery. Every item
/// is logged and sent the moment it is produced.
pub struct OutEdge {
    /// Edge id.
    pub edge: EdgeId,
    /// Dispatch semantics.
    pub dispatch: Dispatch,
    /// Live variables to project onto the edge.
    pub live_vars: Vec<String>,
    /// Consumer instance senders (shared; scaling mutates it).
    pub targets: Targets,
    /// The clock of `(edge, this producer replica)` in the registry
    /// ([`BufferRegistry::lane_clock`]), so the next incarnation of this
    /// replica resumes past its last timestamp.
    clock: Arc<AtomicU64>,
    /// Round-robin cursor for one-to-any dispatch.
    pub rr: usize,
    /// Buffer registry for upstream backup.
    pub buffers: Arc<BufferRegistry>,
    /// Whether to record items in output buffers (fault tolerance on).
    pub buffered: bool,
    /// Cached buffer handles per destination (the registry hands out one
    /// `Arc` per key for the deployment's lifetime, so caching is safe and
    /// removes the registry lock from the steady-state send path).
    buf_cache: Vec<Option<Arc<Mutex<OutputBuffer>>>>,
    /// Cached projection: positions of `live_vars` within the last payload
    /// shape seen, revalidated per item by name.
    proj_idx: Option<Vec<usize>>,
}

impl OutEdge {
    /// Builds the dispatcher of producer replica `src` on `edge`; its
    /// timestamps continue the lane's clock.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        edge: EdgeId,
        src: u32,
        dispatch: Dispatch,
        live_vars: Vec<String>,
        targets: Targets,
        rr: usize,
        buffers: Arc<BufferRegistry>,
        buffered: bool,
    ) -> Self {
        OutEdge {
            edge,
            dispatch,
            live_vars,
            targets,
            clock: buffers.lane_clock(edge, src),
            rr,
            buffers,
            buffered,
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

    /// Dispatches `payload` according to the edge semantics.
    pub fn send(
        &mut self,
        src_replica: u32,
        payload: &Arc<Record>,
        corr: u64,
        upstream_expect: u32,
        submitted_at: Option<Instant>,
    ) -> SdgResult<()> {
        let projected = self.project(payload);
        let targets_arc = Arc::clone(&self.targets);
        let targets = targets_arc.read();
        let n = targets.len();
        if n == 0 {
            return Err(SdgError::Runtime(format!(
                "edge {} has no consumer instances",
                self.edge
            )));
        }
        match &self.dispatch {
            Dispatch::Partitioned { key } => {
                let key_value = projected.require(key)?.to_key()?;
                let idx = (key_value.stable_hash() % n as u64) as usize;
                self.send_one(&targets, idx, src_replica, projected, corr, 1, submitted_at)
            }
            Dispatch::OneToAny => {
                // Join-shortest-queue: slow (straggler) instances naturally
                // receive less work; ties fall back to round-robin.
                let start = self.rr % n;
                self.rr = self.rr.wrapping_add(1);
                let mut idx = start;
                let mut best = usize::MAX;
                for off in 0..n {
                    let candidate = (start + off) % n;
                    let depth = targets[candidate].len();
                    if depth < best {
                        best = depth;
                        idx = candidate;
                    }
                    if depth == 0 {
                        break;
                    }
                }
                self.send_one(&targets, idx, src_replica, projected, corr, 1, submitted_at)
            }
            Dispatch::AllToOne { .. } => {
                // The gather consumer is a single instance. The fragment
                // count equals the fan-out of the broadcast that fed this
                // producer, which travelled on the input item.
                self.send_one(
                    &targets,
                    0,
                    src_replica,
                    projected,
                    corr,
                    upstream_expect,
                    submitted_at,
                )
            }
            Dispatch::OneToAll => {
                let ts = self.tick();
                let expect = n as u32;
                for idx in 0..n {
                    // Broadcast shares one allocation: every destination's
                    // item (and its output-buffer log entry) is a refcount
                    // bump on the same record.
                    let item = Item {
                        edge: self.edge,
                        src_replica,
                        ts,
                        corr,
                        expect,
                        payload: Arc::clone(&projected),
                        submitted_at,
                    };
                    self.enqueue(&targets, idx, item)?;
                }
                Ok(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_one(
        &mut self,
        targets: &[PoolSender],
        idx: usize,
        src_replica: u32,
        payload: Arc<Record>,
        corr: u64,
        expect: u32,
        submitted_at: Option<Instant>,
    ) -> SdgResult<()> {
        let ts = self.tick();
        let item = Item {
            edge: self.edge,
            src_replica,
            ts,
            corr,
            expect,
            payload,
            submitted_at,
        };
        self.enqueue(targets, idx, item)
    }

    /// Advances the lane's clock. A relaxed load and store, no
    /// read-modify-write: only this instance writes the clock, and the next
    /// incarnation reads it after the control path that spawns it has
    /// synchronised with this one's death.
    fn tick(&mut self) -> ScalarTs {
        let ts = self.clock.load(Ordering::Relaxed) + 1;
        self.clock.store(ts, Ordering::Relaxed);
        ts
    }

    /// Logs one timestamped item and sends it to destination `idx`.
    fn enqueue(&mut self, targets: &[PoolSender], idx: usize, item: Item) -> SdgResult<()> {
        if self.buffered {
            // The log entry shares the item's allocation.
            self.buffer_for(item.src_replica, idx).lock().push_live(
                item.ts,
                item.corr,
                item.expect,
                Arc::clone(&item.payload),
            );
        }
        targets[idx]
            .send(WorkerMsg::Item(item))
            .map_err(|_| SdgError::Runtime("consumer channel closed".into()))
    }

    fn buffer_for(&mut self, src: u32, dst: usize) -> Arc<Mutex<OutputBuffer>> {
        if self.buf_cache.len() <= dst {
            self.buf_cache.resize(dst + 1, None);
        }
        if let Some(buf) = &self.buf_cache[dst] {
            return Arc::clone(buf);
        }
        let buf = self.buffers.get(BufferKey {
            edge: self.edge,
            src,
            dst: dst as u32,
        });
        self.buf_cache[dst] = Some(Arc::clone(&buf));
        buf
    }
}

/// An event on the SDG's external output.
#[derive(Debug, Clone)]
pub struct OutputEvent {
    /// Correlation id of the originating request.
    pub corr: u64,
    /// Emitted value.
    pub value: Value,
    /// Client-visible latency (absent for replayed duplicates).
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
    /// Prepares `code` for execution.
    ///
    /// `compile` resolves a task's compiled form; deployments pass a
    /// memoising closure so all replicas of a task share one
    /// [`CompiledTe`].
    pub fn prepare(
        code: &TaskCode,
        compile: impl FnOnce(&sdg_ir::te::TeProgram) -> Arc<CompiledTe>,
    ) -> PreparedCode {
        match code {
            TaskCode::Passthrough => PreparedCode::Passthrough,
            TaskCode::Native(task) => PreparedCode::Native(Arc::clone(task)),
            TaskCode::Interpreted(te) => PreparedCode::Compiled(compile(te)),
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
    /// Record field carrying the state access key, for keyed (partitioned)
    /// access. Used to route each item to the lock stripe owning its key
    /// when the cell is striped.
    pub route_key: Option<String>,
    /// Outgoing edges.
    pub outs: Vec<OutEdge>,
    /// External output sink.
    pub sink: Sender<OutputEvent>,
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
    /// Per-task instruments, shared with the deployment's registry: items
    /// in/out, processed, errors, gather waits, service time, latency.
    pub obs: Arc<TaskInstruments>,
    /// Deployment-wide end-to-end latency histogram.
    pub e2e: Arc<Histogram>,
    /// Dedupe switch: duplicate filtering needs a cell; stateless tasks
    /// pass everything through.
    pub dedupe: bool,
    /// Global count of in-flight items, used by scale/drain barriers.
    pub in_flight: Arc<AtomicU64>,
    /// Accumulated synthetic service time not yet rested: the pool rests
    /// the actor on its timer heap once this reaches 1 ms.
    pub work_debt: Duration,
    /// Owning task id (failure reports name the instance precisely).
    pub task: TaskId,
    /// Heartbeat epoch, bumped once per step and scanned by the
    /// supervisor for hang detection.
    pub heartbeat: Arc<AtomicU64>,
    /// Armed injection point from the deployment's fault plan, if any.
    pub fault: Option<Arc<FaultTrigger>>,
    /// Where the pool's panic boundary reports caught panics. Absent only
    /// for bare workers built by unit tests.
    pub hub: Option<Arc<FailureHub>>,
}

impl Worker {
    /// Processes one message; returns `true` when the instance must stop.
    ///
    /// The pool actor ([`crate::sched`]) calls this once per mailbox
    /// message.
    pub(crate) fn step(&mut self, msg: WorkerMsg) -> bool {
        self.heartbeat.fetch_add(1, Ordering::Release);
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

    /// Everything a scheduler boundary needs to report this worker's
    /// death after the unwind consumed it.
    pub(crate) fn panic_probe(&self) -> PanicProbe {
        PanicProbe {
            task: self.task,
            replica: self.replica,
            label: format!("{}#{}", self.name, self.replica),
            hub: self.hub.clone(),
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
        self.obs.items_in.inc();
        // Gather barriers assemble one logical item from `expect` fragments.
        let item = if let Some(var) = self.gather_var.clone() {
            match self.assemble(item, &var) {
                Some(merged) => merged,
                None => {
                    // Barrier still waiting on sibling fragments.
                    self.obs.gather_waits.inc();
                    return;
                }
            }
        } else {
            item
        };
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let t0 = Instant::now();
        let r = self.process(&item);
        self.obs.service.record(t0.elapsed().as_nanos() as u64);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        if r.is_err() {
            self.obs.errors.inc();
        }
    }

    /// Collects fragments; returns the merged item once all arrived.
    fn assemble(&mut self, item: Item, collect_var: &str) -> Option<Item> {
        let corr = item.corr;
        let expect = item.expect.max(1) as usize;
        let slot = self.pending_gathers.entry(corr).or_default();
        slot.insert(item.src_replica, item);
        if slot.len() < expect {
            return None;
        }
        let mut fragments = self.pending_gathers.remove(&corr)?;
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
            self.obs.processed.inc();
            self.obs.items_out.add(self.outs.len() as u64);
            for out in &mut self.outs {
                out.send(
                    self.replica,
                    &item.payload,
                    item.corr,
                    item.expect,
                    item.submitted_at,
                )?;
            }
            return Ok(());
        }
        // Striped cells route each item to the stripe owning its access
        // key; the route hash equals the key's partition hash, so an item
        // lands on the stripe holding exactly the keys it may touch.
        let route = match (&self.cell, &self.route_key) {
            (Some(cell), Some(key)) if cell.stripe_count() > 1 => item
                .payload
                .get(key)
                .and_then(|v| v.to_key().ok())
                .map(|k| k.stable_hash()),
            _ => None,
        };
        // Split the borrows up front: the state-cell closures need the code
        // (shared) and the scratch (exclusive) while `self.cell` is held.
        let code = &self.code;
        let scratch = &mut self.scratch;
        let replica = self.replica;
        let effects = match (&self.cell, self.dedupe) {
            (Some(cell), true) => {
                let lane = lane(item.edge, item.src_replica);
                match cell.apply_routed(lane, item.ts, route, |store| {
                    execute_prepared(code, &item.payload, Some(store), replica, scratch)
                }) {
                    None => {
                        // Duplicate from a replay: already applied.
                        self.obs.processed.inc();
                        return Ok(());
                    }
                    Some(r) => r?,
                }
            }
            (Some(cell), false) => cell.with_routed(route, |inner| {
                execute_prepared(
                    code,
                    &item.payload,
                    Some(&mut inner.store),
                    replica,
                    scratch,
                )
            })?,
            (None, _) => execute_prepared(code, &item.payload, None, replica, scratch)?,
        };
        self.obs.processed.inc();
        self.obs.emits.add(effects.emits.len() as u64);
        for value in effects.emits {
            let latency = item.submitted_at.map(|t| t.elapsed());
            if let Some(l) = latency {
                let ns = l.as_nanos() as u64;
                self.obs.latency.record(ns);
                self.e2e.record(ns);
            }
            let event = OutputEvent {
                corr: item.corr,
                value,
                latency,
            };
            let _ = self.sink.send(event);
        }
        self.obs
            .items_out
            .add((effects.forwards.len() * self.outs.len()) as u64);
        for record in effects.forwards {
            // One refcounted allocation per forwarded record, shared by
            // every outgoing edge (and its output-buffer log entry).
            let payload = Arc::new(record);
            for out in &mut self.outs {
                out.send(
                    self.replica,
                    &payload,
                    item.corr,
                    item.expect,
                    item.submitted_at,
                )?;
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
    task.process(input.clone(), &mut ctx)?;
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
        let reg = BufferRegistry::new(1000);
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
        reg.trim(key, 1);
        assert_eq!(reg.total_bytes(), large);
        assert!(reg.buffers_into(EdgeId(1), 9).is_empty());
    }

    #[test]
    fn registry_total_bytes_matches_per_buffer_walk() {
        // The O(1) aggregate must agree with a from-scratch walk over
        // every buffer after a mix of pushes, trims and caps.
        let reg = BufferRegistry::new(1000);
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
        reg.get(keys[1]).lock().cap(1);
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
            fn process(&self, input: Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
                ctx.emit(input.clone());
                ctx.forward(input);
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
