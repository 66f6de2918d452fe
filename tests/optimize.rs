//! Constant folding must not change what programs compute.
//!
//! Key resolution folds constants through its constant/copy analysis
//! ([`Cfg::const_copy_envs`] with [`eval_const`]), and `eval_const` folds
//! an expression only when the evaluator's kernels succeed on it. This is
//! the property that guards that rule: a folding pass built from those two
//! functions replaces every foldable expression of a generated stateless
//! numeric program (int and float literals, all arithmetic operators,
//! comparisons, branches and loops) with its literal, and the reference
//! evaluator's whole result — emitted values or error text — must be
//! identical before and after.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use sdg::ir::ast::{Expr, ExprKind, Stmt, StmtKind};
use sdg::ir::cfg::{eval_const, stmt_ref, Cfg, Env, Lit, StmtRef};
use sdg::ir::eval::run_te;
use sdg::ir::parser::parse_program;
use sdg::ir::te::TeProgram;

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
/// emits, never in a `let`.
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
fn interpret(stmts: Vec<Stmt>) -> String {
    let te = TeProgram::new("prop", stmts, Arc::new(HashMap::new()), vec![]);
    match run_te(&te, &sdg::common::record! {}, None) {
        Ok(effects) => format!("{effects:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Replaces `expr`, or else each of its largest sub-expressions, that
/// [`eval_const`] folds under `env` with the folded literal.
fn fold_expr(expr: &mut Expr, env: &Env) {
    if let Some(lit) = eval_const(expr, env) {
        expr.kind = match lit {
            Lit::Int(v) => ExprKind::Int(v),
            Lit::Float(v) => ExprKind::Float(v),
            Lit::Bool(v) => ExprKind::Bool(v),
            Lit::Str(v) => ExprKind::Str(v),
            Lit::Null => ExprKind::Null,
        };
        return;
    }
    match &mut expr.kind {
        ExprKind::Binary { lhs, rhs, .. } => {
            fold_expr(lhs, env);
            fold_expr(rhs, env);
        }
        ExprKind::Unary { operand, .. } => fold_expr(operand, env),
        ExprKind::Index { base, idx } => {
            fold_expr(base, env);
            fold_expr(idx, env);
        }
        ExprKind::ListLit(items)
        | ExprKind::Call { args: items, .. }
        | ExprKind::StateCall { args: items, .. } => {
            items.iter_mut().for_each(|e| fold_expr(e, env));
        }
        _ => {}
    }
}

/// Folds every statement of `stmts`, nested ones included, under the
/// environment the analysis computed for it. Unreachable statements have
/// no environment and stay as they are.
fn fold_body(stmts: &[Stmt], envs: &HashMap<StmtRef, Env>) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|stmt| {
            let mut folded = stmt.clone();
            if let Some(env) = envs.get(&stmt_ref(stmt)) {
                match &mut folded.kind {
                    StmtKind::Let { expr, .. }
                    | StmtKind::Assign { expr, .. }
                    | StmtKind::Expr(expr)
                    | StmtKind::Emit(expr)
                    | StmtKind::Return(Some(expr))
                    | StmtKind::If { cond: expr, .. }
                    | StmtKind::While { cond: expr, .. }
                    | StmtKind::Foreach { iter: expr, .. } => fold_expr(expr, env),
                    StmtKind::Return(None) => {}
                }
            }
            match (&stmt.kind, &mut folded.kind) {
                (
                    StmtKind::If {
                        then_block,
                        else_block,
                        ..
                    },
                    StmtKind::If {
                        then_block: then_folded,
                        else_block: else_folded,
                        ..
                    },
                ) => {
                    *then_folded = fold_body(then_block, envs);
                    *else_folded = fold_body(else_block, envs);
                }
                (
                    StmtKind::While { body, .. },
                    StmtKind::While {
                        body: body_folded, ..
                    },
                )
                | (
                    StmtKind::Foreach { body, .. },
                    StmtKind::Foreach {
                        body: body_folded, ..
                    },
                ) => {
                    *body_folded = fold_body(body, envs);
                }
                _ => {}
            }
            folded
        })
        .collect()
}

/// Interprets `source`'s only method before and after folding it.
fn before_and_after(source: &str) -> (String, String) {
    let program = parse_program(source).expect("generated programs parse");
    let body = &program.methods[0].body;
    let folded = fold_body(body, &Cfg::build(body).const_copy_envs());
    (interpret(body.clone()), interpret(folded))
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
