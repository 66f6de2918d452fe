//! Iterative computation through dataflow cycles (§3.1).
//!
//! "Cycles specify iterative computation. With cycles in the dataflow,
//! SDGs do not provide coordination during iteration by default" — each
//! item loops through the pipeline until its condition is met. This test
//! builds a native iterative-doubling graph with a cycle and checks both
//! the execution and the §3.3 allocation rule (SEs accessed in a cycle are
//! colocated).

use std::sync::Arc;
use std::time::Duration;

use sdg_common::error::SdgResult;
use sdg_common::record;
use sdg_common::value::{Key, Record, Value};
use sdg_graph::alloc::allocate;
use sdg_graph::model::{
    AccessMode, Dispatch, Distribution, NativeTask, SdgBuilder, StateAccessEdge, TaskCode,
    TaskContext, TaskKind,
};
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::deploy::Deployment;
use sdg_state::store::StateType;

/// Doubles the value and counts loop iterations in its local table.
struct DoubleTask;

impl NativeTask for DoubleTask {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let v = input.require("v")?.as_int()?;
        let limit = input.require("limit")?.as_int()?;
        let table = ctx.state().expect("double task has state").as_table()?;
        table.update(Key::str("steps"), |prev| {
            Value::Int(prev.map(|p| p.as_int().unwrap_or(0)).unwrap_or(0) + 1)
        });
        let mut out = Record::with_capacity(2);
        out.set("v", Value::Int(v * 2));
        out.set("limit", Value::Int(limit));
        ctx.forward(out);
        Ok(())
    }
}

/// Emits finished values; loops unfinished ones back around the cycle.
struct CheckTask;

impl NativeTask for CheckTask {
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()> {
        let v = input.require("v")?.as_int()?;
        let limit = input.require("limit")?.as_int()?;
        if v >= limit {
            let mut done = Record::with_capacity(1);
            done.set("value", Value::Int(v));
            ctx.emit(done);
        } else {
            ctx.forward(input.clone());
        }
        Ok(())
    }
}

fn build() -> (sdg_graph::model::Sdg, sdg_common::ids::StateId) {
    let mut b = SdgBuilder::new();
    let counters = b.add_state("counters", StateType::Table, Distribution::Local);
    let seed = b.add_task(
        "seed",
        TaskKind::Entry {
            method: "double_until".into(),
        },
        TaskCode::Passthrough,
        None,
    );
    let double = b.add_task(
        "double",
        TaskKind::Compute,
        TaskCode::Native(Arc::new(DoubleTask)),
        Some(StateAccessEdge {
            state: counters,
            mode: AccessMode::Local,
            writes: true,
        }),
    );
    let check = b.add_task(
        "check",
        TaskKind::Compute,
        TaskCode::Native(Arc::new(CheckTask)),
        None,
    );
    b.connect(
        seed,
        double,
        Dispatch::OneToAny,
        vec!["v".into(), "limit".into()],
    );
    b.connect(
        double,
        check,
        Dispatch::OneToAny,
        vec!["v".into(), "limit".into()],
    );
    // The iteration cycle: unfinished items go around again.
    b.connect(
        check,
        double,
        Dispatch::OneToAny,
        vec!["v".into(), "limit".into()],
    );
    (b.build().expect("valid cyclic SDG"), counters)
}

#[test]
fn cycles_iterate_until_convergence() {
    let (sdg, counters) = build();
    let d = Deployment::start(sdg, RuntimeConfig::default()).unwrap();

    // 1 must double 10 times to reach 1024.
    d.submit(
        "double_until",
        record! {"v" => Value::Int(1), "limit" => Value::Int(1000)},
    )
    .unwrap();
    let out = d.outputs().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(out.value, Value::Int(1024));

    // Several concurrent iterations with different depths.
    for v in [3i64, 7, 50] {
        d.submit(
            "double_until",
            record! {"v" => Value::Int(v), "limit" => Value::Int(500)},
        )
        .unwrap();
    }
    let mut results = Vec::new();
    for _ in 0..3 {
        results.push(
            d.outputs()
                .recv_timeout(Duration::from_secs(10))
                .unwrap()
                .value
                .as_int()
                .unwrap(),
        );
    }
    results.sort_unstable();
    assert_eq!(results, vec![768, 800, 896]); // 3*2^8, 50*2^4, 7*2^7.
    assert!(d.quiesce(Duration::from_secs(10)));

    // The loop counter recorded every pass through `double`.
    let steps = d
        .with_state(counters, 0, |s| {
            s.as_table()
                .unwrap()
                .get(&Key::str("steps"))
                .unwrap()
                .as_int()
                .unwrap()
        })
        .unwrap();
    assert_eq!(steps, 10 + 8 + 7 + 4);
    assert_eq!(d.stats().errors, 0);
    d.shutdown();
}

#[test]
fn allocation_colocates_cycle_state() {
    let (sdg, counters) = build();
    // §3.3 step 1: SEs accessed inside a cycle share a node, and the TEs of
    // the cycle sit with them.
    let cyclic = sdg.tasks_in_cycles();
    assert_eq!(cyclic.len(), 2, "double and check form the cycle");
    let alloc = allocate(&sdg);
    let double = sdg.task_by_name("double").unwrap().id;
    assert_eq!(alloc.node_of_task(double), alloc.node_of_state(counters));
}
