//! Property-based tests for the program → SDG translation.
//!
//! The central properties:
//!
//! 1. every translatable program produces a *valid* graph (the builder
//!    validates structurally);
//! 2. the TE segments partition the method body: every top-level statement
//!    is assigned to exactly one task element;
//! 3. **partition-count invariance**: executing the same program with 1
//!    and with 3 partitions of every partitioned SE yields the same final
//!    state — cutting, live-variable payloads and key dispatch together
//!    preserve the program's semantics under data parallelism.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use proptest::prelude::*;
use sdg_common::record;
use sdg_common::value::{Key, Value};
use sdg_graph::model::{TaskCode, TaskKind};
use sdg_ir::parser::parse_program;
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::deploy::Deployment;
use sdg_translate::translate;

/// One generated statement of the random program family.
///
/// Writes are constrained so the final state is deterministic under any
/// dataflow interleaving (§3.1: SDGs provide no cross-pipeline ordering):
/// `put` values depend only on the key (last-writer value is unique) and
/// `inc` commutes. The two key parameters use disjoint value domains so a
/// key never reaches one entry through two differently-ordered routes.
#[derive(Debug, Clone)]
enum Op {
    /// `fieldN.put(kJ, kJ + C);`
    Put { field: usize, key: usize, add: i64 },
    /// `fieldN.inc(kJ, C);`
    Inc { field: usize, key: usize, by: i64 },
    /// `let gN = fieldN.get(kJ);`
    Get { field: usize, key: usize },
    /// `let lN = data * C;` (stateless)
    Local { mul: i64 },
}

fn arb_ops() -> impl Strategy<Value = (usize, Vec<Op>)> {
    // 1..=3 table fields; a mix of partitioned/local is chosen per field
    // index (even = partitioned, odd = local) to keep generation simple.
    (1usize..=3, prop::collection::vec(arb_op(), 1..7)).prop_map(|(fields, mut ops)| {
        // A put and an inc on the same (field, key) do not commute once
        // they land in different TEs: requests may interleave between the
        // two writes, so the final value would depend on scheduling. Keep
        // each (field, key) write-homogeneous by demoting incs to puts
        // wherever both kinds appear.
        let put_targets: std::collections::BTreeSet<(usize, usize)> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Put { field, key, .. } => Some((field % fields, *key)),
                _ => None,
            })
            .collect();
        for op in &mut ops {
            if let Op::Inc { field, key, by } = *op {
                if put_targets.contains(&(field % fields, key)) {
                    *op = Op::Put {
                        field,
                        key,
                        add: by,
                    };
                }
            }
        }
        (fields, ops)
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 0usize..2, -5i64..5).prop_map(|(field, key, add)| Op::Put { field, key, add }),
        (0usize..3, 0usize..2, 1i64..4).prop_map(|(field, key, by)| Op::Inc { field, key, by }),
        (0usize..3, 0usize..2).prop_map(|(field, key)| Op::Get { field, key }),
        (1i64..5).prop_map(|mul| Op::Local { mul }),
    ]
}

/// Renders the generated ops as a StateLang program.
fn render(fields: usize, ops: &[Op]) -> String {
    let mut src = String::new();
    for f in 0..fields {
        if f % 2 == 0 {
            let _ = writeln!(src, "@Partitioned Table t{f};");
        } else {
            let _ = writeln!(src, "Table t{f};");
        }
    }
    let _ = writeln!(src, "void apply(int k0, int k1, int data) {{");
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Put { field, key, add } => {
                let f = field % fields;
                let _ = writeln!(src, "    t{f}.put(k{key}, k{key} + {add});");
            }
            Op::Inc { field, key, by } => {
                let f = field % fields;
                let _ = writeln!(src, "    t{f}.inc(k{key}, {by});");
            }
            Op::Get { field, key } => {
                let f = field % fields;
                let _ = writeln!(src, "    let g{i} = t{f}.get(k{key});");
            }
            Op::Local { mul } => {
                let _ = writeln!(src, "    let l{i} = data * {mul};");
            }
        }
    }
    let _ = writeln!(src, "}}");
    src
}

/// Runs the program over a fixed request stream and returns the merged
/// contents of every state element.
fn run_and_collect(
    src: &str,
    partitions: usize,
    requests: &[(i64, i64, i64)],
) -> BTreeMap<(String, Key), Value> {
    let program = parse_program(src).expect("generated programs parse");
    let sdg = translate(&program).expect("generated programs translate");
    let mut cfg = RuntimeConfig::default();
    for state in &sdg.states {
        if matches!(
            state.dist,
            sdg_graph::model::Distribution::Partitioned { .. }
        ) {
            cfg.se_instances.insert(state.id, partitions);
        }
    }
    let state_names: Vec<(sdg_common::ids::StateId, String)> =
        sdg.states.iter().map(|s| (s.id, s.name.clone())).collect();
    let d = Deployment::start(sdg, cfg).expect("deploy");
    for &(k0, k1, data) in requests {
        d.submit(
            "apply",
            record! {"k0" => Value::Int(k0), "k1" => Value::Int(k1), "data" => Value::Int(data)},
        )
        .expect("submit");
    }
    assert!(d.quiesce(Duration::from_secs(30)), "requests must drain");
    assert_eq!(d.stats().errors, 0, "no task errors");

    let mut contents = BTreeMap::new();
    for (state, name) in state_names {
        let replicas = d
            .metrics()
            .state_by_id(state)
            .map_or(0, |s| s.instances as usize);
        for replica in 0..replicas {
            d.with_state(state, replica as u32, |s| {
                s.as_table().expect("table").for_each(|k, v| {
                    contents.insert((name.clone(), k.clone()), v.clone());
                });
            })
            .expect("read state");
        }
    }
    d.shutdown();
    contents
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Statements partition exactly across TEs, and the graph validates.
    #[test]
    fn translation_partitions_statements((fields, ops) in arb_ops()) {
        let src = render(fields, &ops);
        let program = parse_program(&src).expect("parses");
        let sdg = translate(&program).expect("translates");
        let interpreted_stmts: usize = sdg
            .tasks
            .iter()
            .map(|t| match &t.code {
                TaskCode::Interpreted(te) => te.stmts.len(),
                _ => 0,
            })
            .sum();
        prop_assert_eq!(interpreted_stmts, ops.len(), "program:\n{}", src);
        // Entry tasks: exactly one (single method).
        prop_assert_eq!(sdg.entry_tasks().len(), 1);
        // Pipelines are linear: flows = tasks - 1.
        prop_assert_eq!(sdg.flows.len(), sdg.tasks.len() - 1);
        // The family has no `@Collection`, so every cut is forced by a
        // state access: no TE but the entry is stateless.
        for task in &sdg.tasks {
            prop_assert!(
                matches!(task.kind, TaskKind::Entry { .. }) || task.access.is_some(),
                "stateless TE `{}` after a cut in program:\n{}",
                task.name,
                src
            );
        }
    }

    /// The same program with 1 and 3 partitions produces identical state.
    #[test]
    fn execution_is_partition_count_invariant(
        (fields, ops) in arb_ops(),
        requests in prop::collection::vec((0i64..6, 100i64..106, -20i64..20), 1..12),
    ) {
        // Only keyed puts/incs make observable state; ensure at least one.
        prop_assume!(ops.iter().any(|o| matches!(o, Op::Put { .. } | Op::Inc { .. })));
        let src = render(fields, &ops);
        let single = run_and_collect(&src, 1, &requests);
        let parallel = run_and_collect(&src, 3, &requests);
        prop_assert_eq!(&single, &parallel, "program:\n{}", src);
        // Sanity: requests with puts/incs must actually write something.
        prop_assert!(!single.is_empty(), "program:\n{}", src);
    }
}
