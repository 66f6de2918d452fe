//! Layer probes: calls into one layer's public functions, below the
//! deployment, on records sampled from the workload.
//!
//! A probe isolates a layer from the threads, mailboxes and barriers above
//! it, so a change in a layer's own cost shows here even when the
//! end-to-end number hides it behind a different bottleneck. Probes run in
//! the traced run only, each inside a span.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use sdg_checkpoint::backup::BackupStore;
use sdg_checkpoint::cell::StateCell;
use sdg_checkpoint::coordinator::{take_checkpoint_with, CheckpointOptions};
use sdg_checkpoint::recovery::{restore_chain, RestoreOptions};
use sdg_common::codec::{decode_from_slice, encode_to_vec};
use sdg_common::ids::{EdgeId, InstanceId, StateId, TaskId};
use sdg_common::time::VectorTs;
use sdg_common::value::{Key, Record, Value};
use sdg_graph::model::{Dispatch, Sdg, TaskCode, TaskKind};
use sdg_ir::parser::parse_program;
use sdg_ir::te_compiled::CompiledTe;
use sdg_runtime::compile::{run_compiled, Scratch};
use sdg_state::matrix::SparseMatrix;
use sdg_state::partition::PartitionDim;
use sdg_state::store::{StateStore, StateType};
use sdg_state::table::KeyedTable;
use sdg_translate::translate;

use crate::gen::Rng;
use crate::run::Layers;
use crate::spec::{Kind, Spec};
use crate::trace::{Recorder, Tracer};
use crate::workload::{err, runtime_config, source_of, stream, Batch, Model, Res};

/// Span names of the probes.
mod span {
    pub const FRONTEND: &str = "probe.frontend";
    pub const CODEC: &str = "probe.codec";
    pub const TE: &str = "probe.te";
    pub const STATE: &str = "probe.state";
    pub const CELL: &str = "probe.cell";
    pub const CHECKPOINT: &str = "probe.checkpoint";
}

/// Repetitions of the short probes; each repetition is one sample and the
/// metric reports their median.
const REPS: usize = 15;

fn ns_per(t0: Instant, ops: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `(entry, record)` pairs in submit order.
type Requests = Vec<(&'static str, Record)>;

fn requests_of(batch: Batch) -> Requests {
    batch.entries.into_iter().zip(batch.payloads).collect()
}

/// Wordcount lines as the `addWord` requests its counting stage sees.
fn words_of(requests: Requests) -> Requests {
    let mut out = Vec::new();
    for (_, rec) in requests {
        let Some(Value::Str(line)) = rec.get("line") else {
            continue;
        };
        for w in line.split_whitespace() {
            let mut r = Record::with_capacity(2);
            r.set("w", Value::str(w));
            r.set("n", Value::Int(1));
            out.push(("addWord", r));
        }
    }
    out
}

/// A translated program with every TE compiled and one unpartitioned
/// store per state: the TE engine without the runtime around it.
struct Engine {
    sdg: Sdg,
    compiled: HashMap<TaskId, CompiledTe>,
    stores: HashMap<StateId, StateStore>,
    scratch: Scratch,
}

impl Engine {
    fn new(source: &str) -> Res<Engine> {
        let sdg = translate(&parse_program(source).map_err(err)?).map_err(err)?;
        let compiled = sdg
            .tasks
            .iter()
            .filter_map(|t| match &t.code {
                TaskCode::Interpreted(te) => Some((t.id, CompiledTe::compile(te))),
                _ => None,
            })
            .collect();
        let stores = sdg
            .states
            .iter()
            .map(|s| (s.id, StateStore::new(s.ty)))
            .collect();
        Ok(Engine {
            sdg,
            compiled,
            stores,
            scratch: Scratch::new(),
        })
    }

    /// Runs `input` through `entry`'s chain of TEs up to (not across) a
    /// gather barrier; returns how many TE executions that took.
    fn run(&mut self, entry: &str, input: &Record) -> Res<usize> {
        let first = self
            .sdg
            .tasks
            .iter()
            .find(|t| matches!(&t.kind, TaskKind::Entry { method } if method == entry))
            .ok_or_else(|| format!("no entry `{entry}`"))?
            .id;
        let mut pending = vec![(first, input.clone())];
        let mut executed = 0;
        while let Some((task, rec)) = pending.pop() {
            let decl = self.sdg.task(task).map_err(err)?;
            let Some(te) = self.compiled.get(&task) else {
                continue;
            };
            let state = decl
                .access
                .as_ref()
                .and_then(|a| self.stores.get_mut(&a.state));
            let fx = run_compiled(te, &rec, state, &mut self.scratch).map_err(err)?;
            executed += 1;
            black_box(&fx.emits);
            for out in fx.forwards {
                for flow in self.sdg.flows_from(task) {
                    if !matches!(flow.dispatch, Dispatch::AllToOne { .. }) {
                        pending.push((flow.to, out.clone()));
                    }
                }
            }
        }
        Ok(executed)
    }
}

/// Parse and translate of the workload's StateLang source.
fn frontend(spec: &Spec, layers: &mut Layers) -> Res<()> {
    let source = source_of(spec.kind);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let prog = parse_program(black_box(source)).map_err(err)?;
        layers.put("ir.parse_ms", t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        black_box(translate(&prog).map_err(err)?);
        layers.put("translate.translate_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}

/// Wire codec on the workload's request records.
fn codec(requests: &Requests, layers: &mut Layers) -> Res<()> {
    for _ in 0..REPS {
        let t0 = Instant::now();
        let encoded: Vec<Vec<u8>> = requests.iter().map(|(_, r)| encode_to_vec(r)).collect();
        layers.put("codec.encode_ns_per_item", ns_per(t0, requests.len()));
        let bytes: usize = encoded.iter().map(Vec::len).sum();
        layers.put(
            "codec.bytes_per_item",
            bytes as f64 / requests.len().max(1) as f64,
        );
        let t0 = Instant::now();
        for bytes in &encoded {
            black_box(decode_from_slice::<Record>(bytes).map_err(err)?);
        }
        layers.put("codec.decode_ns_per_item", ns_per(t0, encoded.len()));
    }
    Ok(())
}

/// Compiled-TE execution of the sampled requests against stores holding
/// the preload. Returns the engine, whose stores the checkpoint probe
/// reuses.
fn te_exec(
    source: &str,
    preload: &Requests,
    requests: &Requests,
    layers: &mut Layers,
) -> Res<Engine> {
    let mut engine = Engine::new(source)?;
    for (entry, rec) in preload {
        engine.run(entry, rec)?;
    }
    let t0 = Instant::now();
    let mut executed = 0;
    for (entry, rec) in requests {
        executed += engine.run(entry, rec)?;
    }
    layers.put("te.exec_ns_per_item", ns_per(t0, executed));
    Ok(engine)
}

/// One state operation of the workload, as `(route key, write)`.
enum Op {
    TablePut(Key, Value),
    /// Wordcount's read-modify-write increment.
    TableInc(Key),
    MatrixSet(i64, i64, f64),
}

impl Op {
    fn route(&self) -> Key {
        match self {
            Op::TablePut(k, _) | Op::TableInc(k) => k.clone(),
            Op::MatrixSet(row, _, _) => Key::Int(*row),
        }
    }

    fn apply(&self, store: &mut StateStore) {
        match self {
            Op::TablePut(k, v) => {
                if let Ok(t) = store.as_table() {
                    t.put(k.clone(), v.clone());
                }
            }
            Op::TableInc(k) => {
                if let Ok(t) = store.as_table() {
                    t.update(k.clone(), |v| {
                        Value::Int(v.and_then(|x| x.as_int().ok()).unwrap_or(0) + 1)
                    });
                }
            }
            Op::MatrixSet(r, c, v) => {
                if let Ok(m) = store.as_matrix() {
                    m.set(*r, *c, *v);
                }
            }
        }
    }
}

/// The state operations the sampled requests perform, with the workload's
/// key distribution. A KV `get` is probed as a write of the same key (the
/// cell, lock and hash path is the same); CF's `getRec` touches no cell
/// of the target state's writers and is left out.
fn ops_of(kind: Kind, requests: &Requests) -> Vec<Op> {
    let int = |r: &Record, f: &str| r.get(f).and_then(|v| v.as_int().ok()).unwrap_or(0);
    let filler = match kind {
        Kind::Kv { value_bytes, .. } => Value::str("x".repeat(value_bytes)),
        _ => Value::Null,
    };
    requests
        .iter()
        .filter_map(|(entry, r)| match kind {
            Kind::Kv { .. } => Some(Op::TablePut(
                Key::Int(int(r, "k")),
                r.get("v").cloned().unwrap_or_else(|| filler.clone()),
            )),
            Kind::Cf { .. } if *entry == "addRating" => Some(Op::MatrixSet(
                int(r, "user"),
                int(r, "item"),
                int(r, "rating") as f64,
            )),
            Kind::Cf { .. } => None,
            Kind::Wc { .. } => r.get("w").and_then(|w| w.to_key().ok()).map(Op::TableInc),
        })
        .collect()
}

fn state_type(kind: Kind) -> StateType {
    match kind {
        Kind::Cf { .. } => StateType::Matrix,
        _ => StateType::Table,
    }
}

/// Raw `KeyedTable` / `SparseMatrix` writes and reads, no cell around
/// them.
fn state_ops(ops: &[Op], layers: &mut Layers) {
    for _ in 0..REPS {
        let mut table = KeyedTable::new();
        let mut matrix = SparseMatrix::new();
        let t0 = Instant::now();
        for op in ops {
            match op {
                Op::TablePut(k, v) => {
                    table.put(k.clone(), v.clone());
                }
                Op::TableInc(k) => table.update(k.clone(), |v| {
                    Value::Int(v.and_then(|x| x.as_int().ok()).unwrap_or(0) + 1)
                }),
                Op::MatrixSet(r, c, v) => matrix.set(*r, *c, *v),
            }
        }
        layers.put("state.put_ns", ns_per(t0, ops.len()));
        let t0 = Instant::now();
        for op in ops {
            match op {
                Op::TablePut(k, _) | Op::TableInc(k) => {
                    black_box(table.get(k));
                }
                Op::MatrixSet(r, _, _) => {
                    black_box(matrix.row(*r));
                }
            }
        }
        layers.put("state.get_ns", ns_per(t0, ops.len()));
    }
}

/// `StateCell::apply_routed` on a cell striped like a deployed one, from
/// `threads` threads at once; each thread is its own input lane and
/// applies every op. Returns the mean nanoseconds per op and thread.
fn cell_apply(kind: Kind, ops: &[Op], threads: usize) -> f64 {
    let stripes = runtime_config().state_stripes;
    let cell = StateCell::new_striped(state_type(kind), stripes, PartitionDim::Row, None);
    let routes: Vec<u64> = ops.iter().map(|op| op.route().stable_hash()).collect();
    let gate = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|lane| {
                let (cell, routes, gate) = (&cell, &routes, &gate);
                s.spawn(move || {
                    gate.wait();
                    let t0 = Instant::now();
                    for (i, op) in ops.iter().enumerate() {
                        cell.apply_routed(
                            EdgeId(lane as u32),
                            i as u64 + 1,
                            Some(routes[i]),
                            |store| op.apply(store),
                        );
                    }
                    ns_per(t0, ops.len())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread does not panic"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / threads as f64
}

/// Checkpoint persist and restore of a quiet cell holding the preloaded
/// target state, through in-memory backup stores.
fn checkpoint(store: StateStore, layers: &mut Layers) -> Res<()> {
    let cfg = runtime_config();
    let cell = StateCell::from_store_striped(
        store,
        VectorTs::new(),
        cfg.state_stripes,
        PartitionDim::Row,
        None,
    )
    .map_err(err)?;
    let stores: Vec<Arc<BackupStore>> = (0..cfg.checkpoint.backup_fanout.max(2))
        .map(|_| Arc::new(BackupStore::in_memory()))
        .collect();
    let instance = InstanceId::new(TaskId(0), 0);
    for seq in 1..=5 {
        let t0 = Instant::now();
        let set = take_checkpoint_with(
            &cell,
            instance,
            seq,
            Vec::new,
            &stores,
            &cfg.checkpoint,
            None,
            CheckpointOptions::default(),
        )
        .map_err(err)?;
        let mb = set.state_bytes as f64 / 1e6;
        layers.put("ckpt.persist_mb_per_s", mb / t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(restore_chain(&[set], &stores, 1, RestoreOptions::default()).map_err(err)?);
        layers.put("recovery.restore_mb_per_s", mb / t0.elapsed().as_secs_f64());
    }
    Ok(())
}

fn scoped<R>(rec: &mut Recorder, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
    rec.scope(name, parent, |_, _| f())
}

/// Runs every probe of `spec` and adds its samples to `layers`.
pub fn run_all(
    spec: &Spec,
    seed: u64,
    tracer: &Tracer,
    parent: u32,
    layers: &mut Layers,
) -> Res<()> {
    let mut rec = tracer.recorder(true);
    let mut model = Model::new(spec, seed);
    let mut rng = Rng::new(seed, stream::PROBE);
    let mut preload = requests_of(model.preload());
    let mut requests = requests_of(model.mixed(spec.probe_samples, &mut rng, 0));

    scoped(&mut rec, span::FRONTEND, parent, || frontend(spec, layers))?;
    scoped(&mut rec, span::CODEC, parent, || codec(&requests, layers))?;
    if matches!(spec.kind, Kind::Wc { .. }) {
        preload = words_of(preload);
        requests = words_of(requests);
    }
    let mut engine = scoped(&mut rec, span::TE, parent, || {
        te_exec(source_of(spec.kind), &preload, &requests, layers)
    })?;
    let ops = ops_of(spec.kind, &requests);
    scoped(&mut rec, span::STATE, parent, || state_ops(&ops, layers));
    scoped(&mut rec, span::CELL, parent, || {
        for _ in 0..REPS {
            layers.put("cell.apply_ns_1t", cell_apply(spec.kind, &ops, 1));
            layers.put("cell.apply_ns_2t", cell_apply(spec.kind, &ops, 2));
        }
    });
    // The first declared state is the workload's target state (`kv`,
    // `userItem`, `counts`).
    let target = engine
        .sdg
        .states
        .first()
        .map(|s| s.id)
        .ok_or("program has no state")?;
    let store = engine
        .stores
        .remove(&target)
        .ok_or("target store missing")?;
    scoped(&mut rec, span::CHECKPOINT, parent, || {
        checkpoint(store, layers)
    })
}
