//! Property-based equivalence: the slot-compiled engine must produce the
//! same observable effects as the reference interpreter.
//!
//! Programs are generated as StateLang source, parsed, wrapped as a
//! `TeProgram`, and executed by both engines against independent state
//! stores. Two families: `Table` programs (arithmetic, control flow,
//! bounded loops, helper calls, table accesses) and `Matrix` programs
//! (matrix rows walked with `foreach` and indexed with `p[i]`, which reach
//! the compiled engine's list paths, and sparse vectors in both layouts —
//! rows and products, literals — merged with `pairs_add` and read by the
//! list builtins). For every generated program and input, either both
//! engines succeed with identical `Effects` (forwards, emits; layouts and
//! the sign of zero included) and identical final state, or both fail
//! with the same error message.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use sdg_common::record;
use sdg_common::value::{Record, Value};
use sdg_ir::ast::Method;
use sdg_ir::eval::run_te;
use sdg_ir::parser::parse_program;
use sdg_ir::te::TeProgram;
use sdg_ir::te_compiled::CompiledTe;
use sdg_runtime::compile::{run_compiled, Scratch};
use sdg_state::store::{StateStore, StateType};

/// Variables the generator assigns to (and may forward as live vars).
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

fn int_expr(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        return leaf_expr();
    }
    let sub = int_expr(depth - 1);
    prop_oneof![
        3 => leaf_expr(),
        2 => (sub.clone(), prop::sample::select(vec!["+", "-", "*", "/", "%"]), sub.clone())
            .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
        1 => sub.clone().prop_map(|a| format!("(0 - {a})")),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("hlp({a}, {b})")),
        1 => sub.clone().prop_map(|k| format!("t.inc({k}, 1)")),
        1 => sub.clone().prop_map(|k| format!("t.get({k})")),
        1 => Just("t.size()".to_owned()),
    ]
    .boxed()
}

fn cond_expr(depth: u32) -> BoxedStrategy<String> {
    let sub = int_expr(depth);
    prop_oneof![
        (
            sub.clone(),
            prop::sample::select(vec!["<", "<=", ">", ">=", "==", "!="]),
            sub.clone()
        )
            .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
        sub.clone().prop_map(|k| format!("t.contains({k})")),
    ]
    .boxed()
}

/// One statement; `loop_depth` names a dedicated bounded-loop counter so
/// generated `while` loops always terminate.
fn stmt(depth: u32, loop_depth: u32) -> BoxedStrategy<String> {
    let assign =
        (prop::sample::select(VARS.to_vec()), int_expr(2)).prop_map(|(v, e)| format!("{v} = {e};"));
    if depth == 0 {
        return assign.boxed();
    }
    let body = block(depth - 1, loop_depth);
    let loop_body = block(depth - 1, loop_depth + 1);
    prop_oneof![
        4 => assign,
        2 => (cond_expr(1), body.clone(), block(depth - 1, loop_depth))
            .prop_map(|(c, t, e)| format!("if ({c}) {{ {t} }} else {{ {e} }}")),
        2 => (1u32..4, loop_body.clone()).prop_map(move |(n, b)| {
            let w = format!("w{loop_depth}");
            format!("let {w} = 0; while ({w} < {n}) {{ {w} = {w} + 1; {b} }}")
        }),
        1 => (prop::collection::vec(int_expr(1), 0..3), block(depth - 1, loop_depth)).prop_map(
            move |(items, b)| {
                let f = format!("f{loop_depth}");
                format!("foreach ({f} : [{}]) {{ {b} }}", items.join(", "))
            }
        ),
        1 => int_expr(2).prop_map(|e| format!("emit {e};")),
        1 => (int_expr(1), int_expr(1)).prop_map(|(k, v)| format!("t.put({k}, {v});")),
        1 => int_expr(1).prop_map(|k| format!("t.remove({k});")),
    ]
    .boxed()
}

fn block(depth: u32, loop_depth: u32) -> BoxedStrategy<String> {
    prop::collection::vec(stmt(depth, loop_depth), 1..4)
        .prop_map(|stmts| stmts.join(" "))
        .boxed()
}

/// A whole generated program: a Table state field, one helper, and a body.
fn program() -> BoxedStrategy<String> {
    block(2, 0)
        .prop_map(|body| {
            format!(
                "Table t;\n\
                 int hlp(int a, int b) {{ if (a < b) {{ return a + b; }} return a - b; }}\n\
                 void main(int n0, int n1, int n2) {{ {body} }}"
            )
        })
        .boxed()
}

/// Variables the matrix family may forward as live vars.
const MATRIX_VARS: [&str; 3] = ["acc", "q", "r"];

/// A row or column index: mostly small constants, so rows collide.
fn m_int() -> BoxedStrategy<String> {
    prop_oneof![
        3 => (-1i64..5).prop_map(|i| format!("({i})")),
        1 => prop::sample::select(INPUTS.to_vec()).prop_map(str::to_owned),
    ]
    .boxed()
}

/// A fractional, possibly negative float literal.
fn m_float() -> BoxedStrategy<String> {
    (-40i64..40)
        .prop_map(|q| format!("({:?})", q as f64 / 8.0))
        .boxed()
}

/// `base[i]`: in-range, out-of-range and negative indices on the loop
/// variable and the row list (slot bases), on an `Int` slot, on an `Int`
/// produced by another index, on a fresh row (non-slot bases), and on a
/// never-bound variable whose index would fail too (the unbound base must
/// be reported first).
fn m_index() -> BoxedStrategy<String> {
    let i = prop_oneof![
        4 => (0i64..2).prop_map(|i| i.to_string()),
        1 => (-2i64..4).prop_map(|i| format!("({i})")),
        1 => prop::sample::select(INPUTS.to_vec()).prop_map(str::to_owned),
    ]
    .boxed();
    prop_oneof![
        8 => i.clone().prop_map(|i| format!("p[{i}]")),
        2 => i.clone().prop_map(|i| format!("r[{i}][1]")),
        1 => i.clone().prop_map(|i| format!("n0[{i}]")),
        1 => i.clone().prop_map(|i| format!("p[0][{i}]")),
        1 => (m_int(), i).prop_map(|(k, i)| format!("m.row({k})[{i}][0]")),
        1 => Just("zz[(1 / 0)]".to_owned()),
    ]
    .boxed()
}

/// One statement of the `foreach (p : r)` body.
fn m_loop_stmt() -> BoxedStrategy<String> {
    prop_oneof![
        4 => m_index().prop_map(|e| format!("acc = acc + {e};")),
        2 => (m_index(), m_int(), m_float())
            .prop_map(|(e, c, v)| format!("if ({e} > 0) {{ m.add(p[0], {c}, {v}); }}")),
        2 => (m_int(), m_float()).prop_map(|(c, v)| format!("m.add({c}, p[0], {v} * p[1]);")),
        1 => m_int().prop_map(|k| format!("r = m.row({k});")),
        1 => m_index().prop_map(|e| format!("emit {e};")),
    ]
    .boxed()
}

/// A sparse vector literal with duplicate indices, zeros and any order.
fn m_vector() -> BoxedStrategy<String> {
    prop::collection::vec(((-1i64..5), m_float()), 0..5)
        .prop_map(|cells| {
            let cells: Vec<String> = cells.iter().map(|(i, v)| format!("[{i}, {v}]")).collect();
            format!("[{}]", cells.join(", "))
        })
        .boxed()
}

/// A list builtin applied to the row `r`, to its product `q`, or to a
/// sparse vector literal; `concat` and an `Int` index on a list fail the
/// same way in both engines.
fn m_list_op() -> BoxedStrategy<String> {
    let list = prop_oneof![
        3 => Just("r".to_owned()),
        2 => Just("q".to_owned()),
        1 => m_vector(),
    ]
    .boxed();
    prop_oneof![
        2 => list.clone().prop_map(|l| format!("emit len({l});")),
        2 => list.clone().prop_map(|l| format!("emit first({l});")),
        1 => list.clone().prop_map(|l| format!("emit last({l});")),
        2 => (list.clone(), -1i64..4).prop_map(|(l, i)| format!("emit get_at({l}, {i});")),
        1 => list.clone().prop_map(|l| format!("emit append({l}, 1);")),
        1 => list.clone().prop_map(|l| format!("emit concat({l}, \"x\");")),
        2 => (list.clone(), list).prop_map(|(a, b)| format!("q = pairs_add({a}, {b});")),
    ]
    .boxed()
}

/// A whole matrix-family program: fill some cells, read a row, walk it
/// (reassigning the row list inside its own loop), then `add`, `multiply`
/// and `nnz`; then merge rows, products and literals with `pairs_add`,
/// walk a product, and apply list builtins to both layouts.
fn matrix_program() -> BoxedStrategy<String> {
    let fill = prop::collection::vec((m_int(), m_int(), m_float()), 1..8).prop_map(|cells| {
        cells
            .iter()
            .map(|(r, c, v)| format!("m.add({r}, {c}, {v});"))
            .collect::<Vec<_>>()
            .join(" ")
    });
    let iter = prop_oneof![
        6 => Just("r".to_owned()),
        1 => m_int().prop_map(|k| format!("m.row({k})")),
        1 => Just("n1".to_owned()),
    ];
    let body = prop::collection::vec(m_loop_stmt(), 1..4).prop_map(|s| s.join(" "));
    (
        fill,
        m_int(),
        iter,
        body,
        (m_int(), m_int(), m_float()),
        (
            m_vector(),
            prop::collection::vec(m_list_op(), 1..4).prop_map(|s| s.join(" ")),
        ),
    )
        .prop_map(|(fill, k, iter, body, (ar, ac, av), (x, ops))| {
            format!(
                "Matrix m;\n\
                 void main(int n0, int n1, int n2) {{\n\
                   {fill}\n\
                   let acc = 0.0;\n\
                   let r = m.row({k});\n\
                   foreach (p : {iter}) {{ {body} }}\n\
                   m.add({ar}, {ac}, {av});\n\
                   emit m.multiply(r);\n\
                   emit m.multiply({x});\n\
                   emit m.nnz();\n\
                   let q = m.multiply(r);\n\
                   emit pairs_add(r, q);\n\
                   emit pairs_add(m.row({k}), {x});\n\
                   foreach (e : q) {{ acc = acc + e[1]; emit e[0]; }}\n\
                   {ops}\n\
                   emit q;\n\
                 }}"
            )
        })
        .boxed()
}

fn te_of(src: &str, out_vars: Vec<String>) -> TeProgram {
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
    TeProgram::new(entry.name, entry.body, Arc::new(helpers), out_vars)
}

fn export_sorted(store: &StateStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = store
        .export_entries()
        .into_iter()
        .map(|e| (e.key, e.value))
        .collect();
    entries.sort();
    entries
}

/// The input record `n0..n2 = values`, its fields in the `shape`-th of
/// the six orders; shape 6 leaves `n2` out.
fn input_of(values: [i64; 3], shape: usize) -> Record {
    const SHAPES: [&[usize]; 7] = [
        &[0, 1, 2],
        &[0, 2, 1],
        &[1, 0, 2],
        &[1, 2, 0],
        &[2, 0, 1],
        &[2, 1, 0],
        &[0, 1],
    ];
    let mut input = Record::new();
    for &i in SHAPES[shape] {
        input.set(INPUTS[i], Value::Int(values[i]));
    }
    input
}

/// Sorted, deduplicated live set, like the translator produces.
fn live_set(live: Vec<&str>) -> Vec<String> {
    let mut out_vars: Vec<String> = live.into_iter().map(str::to_owned).collect();
    out_vars.sort();
    out_vars.dedup();
    out_vars
}

/// Runs both engines on the same program/input, each against a fresh
/// store of type `ty`, and asserts equivalence.
fn assert_equivalent(src: &str, ty: StateType, out_vars: Vec<String>, inputs: [i64; 3]) {
    let te = te_of(src, out_vars);
    let input = record! {
        "n0" => Value::Int(inputs[0]),
        "n1" => Value::Int(inputs[1]),
        "n2" => Value::Int(inputs[2]),
    };
    let mut ref_store = StateStore::new(ty);
    let reference = run_te(&te, &input, Some(&mut ref_store));

    let compiled = CompiledTe::compile(&te);
    let mut cmp_store = StateStore::new(ty);
    let mut scratch = Scratch::new();
    let slotted = run_compiled(&compiled, &input, Some(&mut cmp_store), &mut scratch);

    match (reference, slotted) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "effects diverged for:\n{src}");
            // `==` reads both layouts of a sparse vector, and `0.0` and
            // `-0.0`, as equal; the debug form tells them apart.
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "layouts diverged for:\n{src}"
            );
            assert_eq!(
                export_sorted(&ref_store),
                export_sorted(&cmp_store),
                "state diverged for:\n{src}"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "errors diverged for:\n{src}");
        }
        (a, b) => panic!(
            "one engine failed, the other succeeded for:\n{src}\nreference: {a:?}\ncompiled: {b:?}"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_engine_matches_reference(
        src in program(),
        inputs in prop::array::uniform3(-10i64..10),
        live in prop::collection::vec(prop::sample::select(VARS.to_vec()), 0..3),
    ) {
        assert_equivalent(src.as_str(), StateType::Table, live_set(live), inputs);
    }

    #[test]
    fn compiled_engine_matches_reference_on_matrix_lists(
        src in matrix_program(),
        inputs in prop::array::uniform3(-2i64..5),
        live in prop::collection::vec(prop::sample::select(MATRIX_VARS.to_vec()), 0..3),
    ) {
        assert_equivalent(src.as_str(), StateType::Matrix, live_set(live), inputs);
    }

    #[test]
    fn compiled_engine_matches_reference_with_reused_scratch(
        src in program(),
        batches in prop::collection::vec((prop::array::uniform3(-10i64..10), 0usize..7), 1..6),
    ) {
        // One compiled TE + one scratch across several items, mirroring a
        // worker's steady state; the reference interpreter runs fresh each
        // time. State persists across items on both sides. The input's
        // field order changes from item to item, and a field may be
        // missing, so the scratch's cached binding map is revalidated.
        let te = te_of(src.as_str(), vec!["v0".to_owned()]);
        let compiled = CompiledTe::compile(&te);
        let mut scratch = Scratch::new();
        let mut ref_store = StateStore::new(StateType::Table);
        let mut cmp_store = StateStore::new(StateType::Table);
        for (inputs, shape) in batches {
            let input = input_of(inputs, shape);
            let reference = run_te(&te, &input, Some(&mut ref_store));
            let slotted = run_compiled(&compiled, &input, Some(&mut cmp_store), &mut scratch);
            match (reference, slotted) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "effects diverged for:\n{}", src),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.to_string(), b.to_string(), "errors diverged for:\n{}", src)
                }
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "engines disagreed for:\n{src}\nreference: {a:?}\ncompiled: {b:?}"
                    )))
                }
            }
            prop_assert_eq!(export_sorted(&ref_store), export_sorted(&cmp_store));
        }
    }
}
