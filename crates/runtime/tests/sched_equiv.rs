//! Property-based scheduler equivalence: a multi-worker pool (stealing,
//! concurrent actors) must be observably identical to a one-worker pool,
//! where every actor runs on one thread in turn.
//!
//! Programs are generated as StateLang source (arithmetic, control flow,
//! bounded loops, helper calls, Table state accesses), deployed as a
//! two-stage pipeline (entry → stateful compute), and driven with the same
//! input stream on a one-worker pool (`sched_threads: 1`, the reference)
//! and a four-worker pool. For every generated program and stream, both
//! must produce identical emitted outputs, identical final state, and
//! identical error counts — including across a checkpoint and a mid-stream
//! fail/recover.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sdg_common::ids::StateId;
use sdg_common::record;
use sdg_common::value::Value;
use sdg_graph::model::{
    AccessMode, Dispatch, Distribution, SdgBuilder, StateAccessEdge, TaskCode, TaskKind,
};
use sdg_ir::ast::Method;
use sdg_ir::parser::parse_program;
use sdg_ir::te::TeProgram;
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::deploy::Deployment;
use sdg_runtime::reconfig::ReconfigRequest;
use sdg_state::partition::PartitionDim;
use sdg_state::store::StateType;

/// Variables the generator assigns to.
const VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];
/// Input fields bound before execution.
const INPUTS: [&str; 3] = ["n0", "n1", "n2"];

fn leaf_expr() -> BoxedStrategy<String> {
    prop_oneof![
        (-20i64..20).prop_map(|i| format!("({i})")),
        prop::sample::select(VARS.to_vec()).prop_map(str::to_owned),
        prop::sample::select(INPUTS.to_vec()).prop_map(str::to_owned),
    ]
    .boxed()
}

/// Key expression for Table accesses. Partitioned deployments route items
/// by `n0` and may stripe each partition's cell by the same hash, under
/// the (trusted) key-locality contract that a TE only touches the key it
/// was routed by — so `keyed` generators pin every state access to `n0`.
/// Single-instance Local deployments have no such contract and use
/// arbitrary key expressions.
fn key_expr(depth: u32, keyed: bool) -> BoxedStrategy<String> {
    if keyed {
        Just("n0".to_owned()).boxed()
    } else {
        int_expr(depth, false)
    }
}

fn int_expr(depth: u32, keyed: bool) -> BoxedStrategy<String> {
    if depth == 0 {
        return leaf_expr();
    }
    let sub = int_expr(depth - 1, keyed);
    let key = key_expr(depth - 1, keyed);
    prop_oneof![
        3 => leaf_expr(),
        2 => (sub.clone(), prop::sample::select(vec!["+", "-", "*", "/", "%"]), sub.clone())
            .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("hlp({a}, {b})")),
        1 => key.clone().prop_map(|k| format!("t.inc({k}, 1)")),
        1 => key.clone().prop_map(|k| format!("t.get({k})")),
        1 => Just("t.size()".to_owned()),
    ]
    .boxed()
}

fn cond_expr(depth: u32, keyed: bool) -> BoxedStrategy<String> {
    let sub = int_expr(depth, keyed);
    let key = key_expr(depth, keyed);
    prop_oneof![
        (
            sub.clone(),
            prop::sample::select(vec!["<", "<=", ">", ">=", "==", "!="]),
            sub.clone()
        )
            .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
        key.prop_map(|k| format!("t.contains({k})")),
    ]
    .boxed()
}

/// One statement; `loop_depth` names a dedicated bounded-loop counter so
/// generated `while` loops always terminate.
fn stmt(depth: u32, loop_depth: u32, keyed: bool) -> BoxedStrategy<String> {
    let assign = (prop::sample::select(VARS.to_vec()), int_expr(2, keyed))
        .prop_map(|(v, e)| format!("{v} = {e};"));
    if depth == 0 {
        return assign.boxed();
    }
    let body = block(depth - 1, loop_depth, keyed);
    let loop_body = block(depth - 1, loop_depth + 1, keyed);
    prop_oneof![
        4 => assign,
        2 => (cond_expr(1, keyed), body.clone(), block(depth - 1, loop_depth, keyed))
            .prop_map(|(c, t, e)| format!("if ({c}) {{ {t} }} else {{ {e} }}")),
        2 => (1u32..4, loop_body.clone()).prop_map(move |(n, b)| {
            let w = format!("w{loop_depth}");
            format!("let {w} = 0; while ({w} < {n}) {{ {w} = {w} + 1; {b} }}")
        }),
        1 => int_expr(2, keyed).prop_map(|e| format!("emit {e};")),
        1 => (key_expr(1, keyed), int_expr(1, keyed))
            .prop_map(|(k, v)| format!("t.put({k}, {v});")),
        1 => key_expr(1, keyed).prop_map(|k| format!("t.remove({k});")),
    ]
    .boxed()
}

fn block(depth: u32, loop_depth: u32, keyed: bool) -> BoxedStrategy<String> {
    prop::collection::vec(stmt(depth, loop_depth, keyed), 1..4)
        .prop_map(|stmts| stmts.join(" "))
        .boxed()
}

/// A whole generated program: a Table state field, one helper, and a body.
fn program(keyed: bool) -> BoxedStrategy<String> {
    block(2, 0, keyed)
        .prop_map(|body| {
            format!(
                "Table t;\n\
                 int hlp(int a, int b) {{ if (a < b) {{ return a + b; }} return a - b; }}\n\
                 void main(int n0, int n1, int n2) {{ {body} }}"
            )
        })
        .boxed()
}

fn te_of(src: &str) -> TeProgram {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("generated bad syntax: {e}\n{src}"));
    let entry = prog
        .methods
        .iter()
        .find(|m| m.name == "main")
        .expect("main exists")
        .clone();
    let helpers: HashMap<String, Method> = prog
        .methods
        .iter()
        .filter(|m| m.name != "main")
        .map(|m| (m.name.clone(), m.clone()))
        .collect();
    TeProgram::new(entry.name, entry.body, Arc::new(helpers), Vec::new())
}

/// The reference pool size: every actor runs on the same thread in turn.
const REFERENCE: usize = 1;
/// The pool size compared against it.
const WORKERS: usize = 4;

/// Deploys the generated program as a two-stage pipeline on a pool of
/// `workers` threads: a passthrough entry forwarding over a dataflow edge
/// into a stateful compute task, so the actor-to-actor dispatch path is on
/// the critical path (not just external submits).
fn deploy_generated(
    src: &str,
    workers: usize,
    partitions: usize,
    ft: bool,
) -> (Deployment, StateId) {
    let mut b = SdgBuilder::new();
    let (dist, mode, dispatch) = if partitions > 1 {
        (
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
            AccessMode::Partitioned {
                key: "n0".into(),
                dim: PartitionDim::Row,
            },
            Dispatch::Partitioned { key: "n0".into() },
        )
    } else {
        (Distribution::Local, AccessMode::Local, Dispatch::OneToAny)
    };
    let t = b.add_state("t", StateType::Table, dist);
    let gen = b.add_task(
        "gen",
        TaskKind::Entry {
            method: "main".into(),
        },
        TaskCode::Passthrough,
        None,
    );
    let apply = b.add_task(
        "apply",
        TaskKind::Compute,
        TaskCode::Interpreted(te_of(src)),
        Some(StateAccessEdge {
            state: t,
            mode,
            writes: true,
        }),
    );
    b.connect(
        gen,
        apply,
        dispatch,
        vec!["n0".into(), "n1".into(), "n2".into()],
    );
    let sdg = b.build().unwrap();
    let mut cfg = RuntimeConfig {
        sched_threads: workers,
        ..Default::default()
    };
    cfg.se_instances.insert(t, partitions);
    if ft {
        cfg.checkpoint.enabled = true;
        cfg.checkpoint.interval = Duration::from_secs(3600); // Manual only.
    }
    (Deployment::start(sdg, cfg).unwrap(), t)
}

fn submit_all(d: &Deployment, inputs: &[[i64; 3]]) {
    for i in inputs {
        d.submit(
            "main",
            record! {
                "n0" => Value::Int(i[0]),
                "n1" => Value::Int(i[1]),
                "n2" => Value::Int(i[2]),
            },
        )
        .unwrap();
    }
}

/// Final state of every `t` replica, as sorted key/value wire entries.
fn state_of(d: &Deployment, t: StateId) -> Vec<(Vec<u8>, Vec<u8>)> {
    let instances = d
        .metrics()
        .state_by_id(t)
        .map_or(0, |s| s.instances as usize);
    let mut entries = Vec::new();
    for replica in 0..instances {
        d.with_state(t, replica as u32, |s| {
            for e in s.export_entries() {
                entries.push((e.key, e.value));
            }
        })
        .unwrap();
    }
    entries.sort();
    entries
}

/// Drains every already-emitted output event value.
fn drain_emits(d: &Deployment) -> Vec<Value> {
    let mut out = Vec::new();
    while let Ok(ev) = d.outputs().try_recv() {
        out.push(ev.value);
    }
    out
}

/// What one run observed: emitted values, final state, errors.
#[derive(Debug, PartialEq)]
struct Observed {
    emits: Vec<Value>,
    state: Vec<(Vec<u8>, Vec<u8>)>,
    errors: u64,
}

fn run_once(src: &str, workers: usize, inputs: &[[i64; 3]]) -> Observed {
    let (d, t) = deploy_generated(src, workers, 1, false);
    submit_all(&d, inputs);
    assert!(
        d.quiesce(Duration::from_secs(30)),
        "drain on {workers} pool workers"
    );
    let observed = Observed {
        emits: drain_emits(&d),
        state: state_of(&d, t),
        errors: d.stats().errors,
    };
    d.shutdown();
    observed
}

/// Same, with a checkpoint and a fail/recover injected mid-stream. Emits
/// are sorted (two partitions interleave; replay re-emits are filtered by
/// neither side, identically) and the restored state is asserted
/// byte-identical to the pre-failure state within the run itself.
fn run_with_recovery(src: &str, workers: usize, inputs: &[[i64; 3]]) -> Observed {
    let (d, t) = deploy_generated(src, workers, 2, true);
    let mid = inputs.len() / 2;
    submit_all(&d, &inputs[..mid]);
    assert!(d.quiesce(Duration::from_secs(30)));
    d.reconfigure(ReconfigRequest::Checkpoint).unwrap();
    submit_all(&d, &inputs[mid..]);
    assert!(d.quiesce(Duration::from_secs(30)));
    let before = state_of(&d, t);
    let emits = drain_emits(&d);
    d.reconfigure(ReconfigRequest::FailAndRecover {
        state: t,
        replica: 0,
    })
    .unwrap();
    assert!(d.quiesce(Duration::from_secs(30)));
    assert_eq!(
        state_of(&d, t),
        before,
        "recovery on {workers} pool workers must restore byte-identical state:\n{src}"
    );
    let observed = Observed {
        emits,
        state: before,
        errors: d.stats().errors,
    };
    d.shutdown();
    observed
}

/// The scaling monitor must work over pool actors: queue depths come from
/// mailbox lengths, scale-out spawns actors, and idle scale-in retires them
/// through the drain barriers. Four resting instances on two workers: the
/// 3 ms service time rests on the timer heap instead of holding a worker.
#[test]
fn pool_monitor_scales_out_and_back_in() {
    use sdg_runtime::config::ScalingConfig;
    let prog = sdg_ir::parser::parse_program("void work(int x) { emit x * 2; }").unwrap();
    let sdg = sdg_translate::translate(&prog).unwrap();
    let task = sdg.task_by_name("work_0").unwrap().id;
    let mut cfg = RuntimeConfig {
        sched_threads: 2, // Oversubscribed once the monitor scales out.
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
    for n in 0..200i64 {
        d.submit("work", record! {"x" => Value::Int(n)}).unwrap();
    }
    assert!(d.quiesce(Duration::from_secs(30)));
    assert!(d.stats().scale_outs > 0, "burst must trigger scale-out");
    let sched = d.metrics().sched;
    assert!(
        sched.workers == 2 && sched.polls > 0,
        "the burst must have run on the pool: {sched:?}"
    );
    assert_eq!(
        d.metrics().task_by_id(task).unwrap().processed,
        200,
        "all items processed despite scaling"
    );

    // Idle now: the monitor retires the extra actors one tick at a time.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let instances = |d: &Deployment| {
        d.metrics()
            .task_by_id(task)
            .map_or(0, |t| t.instances as usize)
    };
    while instances(&d) > 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        instances(&d),
        1,
        "idle task must shrink back to min_instances"
    );
    assert!(d.stats().scale_ins > 0);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-replica pipeline: the serial mailbox must make the
    /// four-worker run indistinguishable from the one-worker run — same
    /// emit sequence (order included), same final state, same error count.
    #[test]
    fn multi_worker_pool_matches_one_worker_on_serial_pipeline(
        src in program(false),
        inputs in prop::collection::vec(prop::array::uniform3(-10i64..10), 1..24),
    ) {
        let reference = run_once(src.as_str(), REFERENCE, &inputs);
        let pool = run_once(src.as_str(), WORKERS, &inputs);
        prop_assert_eq!(&reference, &pool, "pool sizes diverged for:\n{}", src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Two partitions, checkpoint + fail/recover mid-stream: replay and
    /// duplicate filtering must land both pool sizes on the same state.
    #[test]
    fn multi_worker_pool_matches_one_worker_across_recovery(
        src in program(true),
        inputs in prop::collection::vec(prop::array::uniform3(-10i64..10), 8..32),
    ) {
        let mut reference = run_with_recovery(src.as_str(), REFERENCE, &inputs);
        let mut pool = run_with_recovery(src.as_str(), WORKERS, &inputs);
        // Two partitions interleave emits nondeterministically (on any
        // pool size): compare as sorted multisets.
        reference.emits.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        pool.emits.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        prop_assert_eq!(&reference, &pool, "pool sizes diverged across recovery for:\n{}", src);
    }
}
