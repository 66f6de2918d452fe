//! The pre-translation optimizer must shrink graphs without changing what
//! programs compute.
//!
//! Two angles:
//!
//! 1. an end-to-end check on a KV-style pipeline: optimization removes a
//!    dead branch (fewer TEs) and folds a constant out of the edge
//!    payloads (smaller live-variable sets), while a deployment of the
//!    optimized graph produces exactly the outputs of the unoptimized one;
//! 2. a property test running generated stateless numeric programs (int
//!    and float literals, all arithmetic operators, comparisons) through
//!    the reference evaluator before and after `optimize_body` — the whole
//!    result, emitted values or error text, must be identical.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sdg::common::value::Value;
use sdg::graph::model::Sdg;
use sdg::ir::eval::run_te;
use sdg::ir::opt::optimize_body;
use sdg::ir::parser::parse_program;
use sdg::ir::te::TeProgram;
use sdg::prelude::RuntimeConfig;
use sdg::SdgProgram;

/// A put/get pipeline with a foldable constant (`base` dies once its value
/// is folded into the emit) and a dead branch guarding a state write.
const SHRINKABLE: &str = "@Partitioned Table t;\n\
     void put(int k, int v) {\n\
       t.put(k, v);\n\
     }\n\
     int sum(int a, int b) {\n\
       let base = 100;\n\
       let x = t.get(a);\n\
       let y = t.get(b);\n\
       if (1 > 2) {\n\
         t.put(a, 0);\n\
       }\n\
       emit x + y + base;\n\
     }";

fn payload_slots(sdg: &Sdg) -> usize {
    sdg.flows.iter().map(|f| f.live_vars.len()).sum()
}

fn run_pipeline(program: SdgProgram) -> Vec<Value> {
    let deployment = program.deploy(RuntimeConfig::default()).unwrap();
    for (entry, payload) in [
        (
            "put",
            sdg::common::record! {"k" => Value::Int(1), "v" => Value::Int(5)},
        ),
        (
            "put",
            sdg::common::record! {"k" => Value::Int(2), "v" => Value::Int(7)},
        ),
        (
            "sum",
            sdg::common::record! {"a" => Value::Int(1), "b" => Value::Int(2)},
        ),
    ] {
        deployment.submit(entry, payload).unwrap();
        assert!(deployment.quiesce(Duration::from_secs(10)));
    }
    let mut out = Vec::new();
    while let Ok(event) = deployment.outputs().try_recv() {
        out.push(event.value);
    }
    assert_eq!(deployment.stats().errors, 0);
    deployment.shutdown();
    out
}

#[test]
fn optimization_shrinks_tes_and_payloads_with_identical_output() {
    let before = SdgProgram::compile(SHRINKABLE).unwrap();
    let (after, report) = SdgProgram::compile_optimized(SHRINKABLE).unwrap();
    assert!(
        report.total() > 0,
        "expected the optimizer to fire: {report}"
    );
    assert!(
        after.graph().tasks.len() < before.graph().tasks.len(),
        "expected fewer TEs: {} -> {}",
        before.graph().tasks.len(),
        after.graph().tasks.len()
    );
    assert!(
        payload_slots(after.graph()) < payload_slots(before.graph()),
        "expected strictly smaller edge payloads: {} -> {}",
        payload_slots(before.graph()),
        payload_slots(after.graph())
    );
    assert_eq!(run_pipeline(before), run_pipeline(after));
}

#[test]
fn optimized_wordcount_source_is_unchanged_and_still_runs() {
    // The wordcount program is already minimal; optimization must be a
    // no-op on it, not a regression.
    let before = SdgProgram::compile(sdg_apps::wc::WC_SOURCE).unwrap();
    let (after, _) = SdgProgram::compile_optimized(sdg_apps::wc::WC_SOURCE).unwrap();
    assert_eq!(before.graph().tasks.len(), after.graph().tasks.len());
    let d = after.deploy(RuntimeConfig::default()).unwrap();
    d.submit(
        "addWord",
        sdg::common::record! {"w" => Value::str("hi"), "n" => Value::Int(2)},
    )
    .unwrap();
    assert!(d.quiesce(Duration::from_secs(10)));
    d.submit("getCount", sdg::common::record! {"w" => Value::str("hi")})
        .unwrap();
    let out = d.outputs().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(out.value, Value::Int(2));
    d.shutdown();
}

/// A numeric literal of a generated program.
#[derive(Debug, Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Num::Int(i) => write!(f, "{i}"),
            // `{:?}` keeps the decimal point, so `3.0` stays a float literal.
            Num::Float(x) => write!(f, "{x:?}"),
        }
    }
}

/// One generated statement of a stateless numeric program. `usize` fields
/// index into the already-defined variables (taken modulo their count).
/// Variables only ever hold numbers: comparisons appear in conditions and
/// emits, never in a `let`, so the dead-code pass never deletes a
/// statement that would fail on a type error.
#[derive(Debug, Clone)]
enum GenStmt {
    /// `let v{n} = C;`
    Const(Num),
    /// `let v{n} = v{a} <op> C;` — `/` and `%` may fail at run time.
    Derive {
        src: usize,
        op: &'static str,
        c: Num,
    },
    /// `if (v{a} <cmp> C) { v{a} = v{a} + D; } else { v{a} = v{a} - D; }`
    Branch {
        var: usize,
        cmp: &'static str,
        c: Num,
        d: i64,
    },
    /// `while (v{a} > 0 && v{a} < 1000) { v{a} = v{a} - C; }` with `C >= 1`
    /// (terminates, also on an infinite float).
    Drain { var: usize, c: i64 },
    /// `emit v{a} * C;`
    Emit { var: usize, c: Num },
    /// `emit v{a} <cmp> C;`
    Compare {
        var: usize,
        cmp: &'static str,
        c: Num,
    },
}

const ARITH: [&str; 8] = ["+", "-", "*", "+", "-", "*", "/", "%"];
const CMP: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];

fn arb_num() -> impl Strategy<Value = Num> {
    prop_oneof![
        (-9i64..9).prop_map(Num::Int),
        (-36i64..36).prop_map(|q| Num::Float(q as f64 / 4.0)),
    ]
}

fn arb_stmt() -> impl Strategy<Value = GenStmt> {
    prop_oneof![
        arb_num().prop_map(GenStmt::Const),
        (0usize..8, prop::sample::select(ARITH.to_vec()), arb_num())
            .prop_map(|(src, op, c)| GenStmt::Derive { src, op, c }),
        (
            0usize..8,
            prop::sample::select(CMP.to_vec()),
            arb_num(),
            1i64..9
        )
            .prop_map(|(var, cmp, c, d)| GenStmt::Branch { var, cmp, c, d }),
        (0usize..8, 1i64..9).prop_map(|(var, c)| GenStmt::Drain { var, c }),
        (0usize..8, arb_num()).prop_map(|(var, c)| GenStmt::Emit { var, c }),
        (0usize..8, prop::sample::select(CMP.to_vec()), arb_num())
            .prop_map(|(var, cmp, c)| GenStmt::Compare { var, cmp, c }),
    ]
}

/// Renders the generated statements as a one-method StateLang program.
fn render(stmts: &[GenStmt]) -> String {
    let mut body = String::from("void f() {\n");
    let mut defined = 0usize;
    body.push_str("  let v0 = 1;\n");
    defined += 1;
    for s in stmts {
        match *s {
            GenStmt::Const(c) => {
                body.push_str(&format!("  let v{defined} = {c};\n"));
                defined += 1;
            }
            GenStmt::Derive { src, op, c } => {
                let a = src % defined;
                body.push_str(&format!("  let v{defined} = v{a} {op} {c};\n"));
                defined += 1;
            }
            GenStmt::Branch { var, cmp, c, d } => {
                let a = var % defined;
                body.push_str(&format!(
                    "  if (v{a} {cmp} {c}) {{ v{a} = v{a} + {d}; }} else {{ v{a} = v{a} - {d}; }}\n"
                ));
            }
            GenStmt::Drain { var, c } => {
                let a = var % defined;
                body.push_str(&format!(
                    "  while (v{a} > 0 && v{a} < 1000) {{ v{a} = v{a} - {c}; }}\n"
                ));
            }
            GenStmt::Emit { var, c } => {
                let a = var % defined;
                body.push_str(&format!("  emit v{a} * {c};\n"));
            }
            GenStmt::Compare { var, cmp, c } => {
                let a = var % defined;
                body.push_str(&format!("  emit v{a} {cmp} {c};\n"));
            }
        }
    }
    // Always observe the last-defined variable so the program has output
    // even when no Emit was generated.
    body.push_str(&format!("  emit v{};\n", defined - 1));
    body.push_str("}\n");
    body
}

/// Runs a body as a TE and renders everything it did: the forwards and
/// emits on success, the error text on failure. `Debug` keeps `NaN` equal
/// to itself and `-0.0` distinct from `0.0`.
fn interpret(stmts: Vec<sdg::ir::ast::Stmt>) -> String {
    let te = TeProgram::new("prop", stmts, Arc::new(HashMap::new()), vec![]);
    match run_te(&te, &sdg::common::record! {}, None) {
        Ok(effects) => format!("{effects:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Interprets `source`'s only method before and after `optimize_body`.
fn before_and_after(source: &str) -> (String, String) {
    let program = parse_program(source).expect("generated programs parse");
    let body = program.methods[0].body.clone();
    let (optimized, _report) = optimize_body(body.clone());
    (interpret(body), interpret(optimized))
}

#[test]
fn float_remainder_fails_the_same_after_optimization() {
    let (before, after) = before_and_after("void f() { let x = 5.0 % 2.0; emit x; }");
    assert!(before.contains("`%` requires integers"), "{before}");
    assert_eq!(before, after);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn optimizer_preserves_interpreter_results(stmts in prop::collection::vec(arb_stmt(), 0..12)) {
        let source = render(&stmts);
        let (before, after) = before_and_after(&source);
        prop_assert_eq!(before, after, "source:\n{}", source);
    }
}
