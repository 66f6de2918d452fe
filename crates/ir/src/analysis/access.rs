//! State-access extraction and classification (§4.2 steps 2–3).
//!
//! Every `field.method(args)` expression is classified according to the
//! field's annotation:
//!
//! - `@Partitioned` fields yield [`AccessKind::Partitioned`] accesses whose
//!   access key is resolved to a *variable root* by constant/copy
//!   propagation over the method's control-flow graph ([`crate::cfg`]) —
//!   the paper's "reaching expression analysis". The key variable
//!   determines the dataflow partitioning of the TE that executes the
//!   access. Because the propagation is a CFG-based *must* analysis,
//!   aliases resolve correctly through branches: a copy made in only one
//!   arm of an `if` does not leak past the join.
//! - `@Partial` fields yield [`AccessKind::Global`] when the expression is
//!   annotated `@Global` (apply to all instances, with a synchronisation
//!   barrier) and [`AccessKind::PartialLocal`] otherwise (apply to the local
//!   instance only).
//! - Unannotated fields yield [`AccessKind::Local`].
//!
//! Violations are reported as `SL010x` [`Diagnostic`]s by
//! [`collect_method_accesses`]; [`analyze_method_accesses`] is the
//! fail-fast wrapper.

use sdg_common::error::SdgResult;

use crate::ast::{Expr, ExprKind, FieldAnn, Method, Program, Span, StateTy, Stmt};
use crate::cfg::{resolve_copy, stmt_ref, Cfg, Env, StmtRef};
use crate::diag::{Diagnostic, Diagnostics};

/// `@Global` access to a `@Partitioned` field.
pub const GLOBAL_ON_PARTITIONED: &str = "SL0102";
/// `@Global` access to an unannotated (local) field.
pub const GLOBAL_ON_LOCAL: &str = "SL0103";
/// Access to an undeclared state field.
pub const UNKNOWN_STATE_FIELD: &str = "SL0104";
/// Unknown accessor method for the field's structure type.
pub const UNKNOWN_ACCESSOR: &str = "SL0105";
/// Wrong number of arguments to a state accessor.
pub const ACCESSOR_ARITY: &str = "SL0106";
/// Keyless access to a `@Partitioned` field.
pub const KEYLESS_PARTITIONED_ACCESS: &str = "SL0107";
/// Partition-access key is a compound expression, not a variable.
pub const COMPOUND_ACCESS_KEY: &str = "SL0108";

/// How a task element accesses a state element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessKind {
    /// Access to a single-instance (unannotated) SE.
    Local,
    /// Keyed access to a `@Partitioned` SE; `key_var` is the root variable
    /// holding the access key.
    Partitioned {
        /// Resolved access-key variable.
        key_var: String,
    },
    /// Access to the local instance of a `@Partial` SE.
    PartialLocal,
    /// `@Global` access to all instances of a `@Partial` SE.
    Global,
}

/// One classified state access.
#[derive(Debug, Clone, PartialEq)]
pub struct StateAccess {
    /// Accessed field name.
    pub field: String,
    /// Classification.
    pub kind: AccessKind,
    /// `true` for mutating accessor methods.
    pub is_write: bool,
    /// Source position of the access expression.
    pub span: Span,
}

/// The accesses performed by one top-level statement (including accesses
/// inside its nested blocks).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StmtAccesses {
    /// Accesses in program order.
    pub accesses: Vec<StateAccess>,
}

/// Metadata about one accessor method of a state structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateMethodInfo {
    /// `true` for mutating methods.
    pub is_write: bool,
    /// `true` when the first argument is a partition key (row index for
    /// matrices, key for tables).
    pub keyed: bool,
    /// Expected argument count.
    pub arity: usize,
}

/// Looks up the accessor `method` for structure type `ty`.
///
/// Returns `None` for unknown accessors; the checker reports those as
/// errors with the statement's span.
pub fn state_method_info(ty: StateTy, method: &str) -> Option<StateMethodInfo> {
    let info = |is_write, keyed, arity| {
        Some(StateMethodInfo {
            is_write,
            keyed,
            arity,
        })
    };
    match ty {
        StateTy::Table => match method {
            "get" => info(false, true, 1),
            "contains" => info(false, true, 1),
            "put" => info(true, true, 2),
            "remove" => info(true, true, 1),
            "inc" => info(true, true, 2),
            "size" => info(false, false, 0),
            _ => None,
        },
        StateTy::Matrix => match method {
            "get" => info(false, true, 2),
            "set" => info(true, true, 3),
            "add" => info(true, true, 3),
            "row" => info(false, true, 1),
            "multiply" => info(false, false, 1),
            "nnz" => info(false, false, 0),
            _ => None,
        },
        StateTy::Vector => match method {
            "get" => info(false, false, 1),
            "set" => info(true, false, 2),
            "add" => info(true, false, 2),
            "axpy" => info(true, false, 2),
            "dot" => info(false, false, 1),
            "size" => info(false, false, 0),
            "toList" => info(false, false, 0),
            _ => None,
        },
    }
}

/// Analyses one method: returns, for each top-level statement, the state
/// accesses it (and its nested blocks) perform.
///
/// Also validates that every access uses a known accessor with the right
/// arity and, for partitioned fields, that the access key resolves to a
/// variable. Returns the first violation as a span-carrying error.
pub fn analyze_method_accesses(program: &Program, method: &Method) -> SdgResult<Vec<StmtAccesses>> {
    let mut diags = Diagnostics::new();
    let out = collect_method_accesses(program, method, &mut diags);
    match diags.first_error() {
        Some(d) => Err(d.to_analysis_error()),
        None => Ok(out),
    }
}

/// Collecting form of [`analyze_method_accesses`]: classifies what it can
/// and reports every violation into `diags`.
pub fn collect_method_accesses(
    program: &Program,
    method: &Method,
    diags: &mut Diagnostics,
) -> Vec<StmtAccesses> {
    let cfg = Cfg::build(&method.body);
    let envs = cfg.const_copy_envs();
    let empty = Env::new();
    let mut out = Vec::with_capacity(method.body.len());
    for stmt in &method.body {
        let mut acc = StmtAccesses::default();
        collect_stmt(program, stmt, &envs, &empty, &mut acc, diags);
        out.push(acc);
    }
    out
}

fn collect_stmt(
    program: &Program,
    stmt: &Stmt,
    envs: &std::collections::HashMap<StmtRef, Env>,
    empty: &Env,
    acc: &mut StmtAccesses,
    diags: &mut Diagnostics,
) {
    // The environment holding just before this statement executes;
    // unreachable statements have none and resolve keys to themselves.
    let env = envs.get(&stmt_ref(stmt)).unwrap_or(empty);
    stmt.visit_exprs(&mut |e| collect_expr(program, e, env, acc, diags));
    for block in stmt.child_blocks() {
        for inner in block {
            collect_stmt(program, inner, envs, empty, acc, diags);
        }
    }
}

fn collect_expr(
    program: &Program,
    expr: &Expr,
    env: &Env,
    acc: &mut StmtAccesses,
    diags: &mut Diagnostics,
) {
    if let ExprKind::StateCall {
        field,
        method,
        args,
        global,
    } = &expr.kind
    {
        collect_state_call(program, expr, field, method, args, *global, env, acc, diags);
    }
    expr.visit_children(&mut |c| collect_expr(program, c, env, acc, diags));
}

#[allow(clippy::too_many_arguments)]
fn collect_state_call(
    program: &Program,
    expr: &Expr,
    field: &str,
    method: &str,
    args: &[Expr],
    global: bool,
    env: &Env,
    acc: &mut StmtAccesses,
    diags: &mut Diagnostics,
) {
    let Some(decl) = program.field(field) else {
        diags.push(Diagnostic::error(
            UNKNOWN_STATE_FIELD,
            expr.span,
            format!("unknown state field `{field}` (all state must be declared)"),
        ));
        return;
    };
    let Some(info) = state_method_info(decl.ty, method) else {
        diags.push(Diagnostic::error(
            UNKNOWN_ACCESSOR,
            expr.span,
            format!("`{field}` has no accessor `{method}` on {}", decl.ty),
        ));
        return;
    };
    if args.len() != info.arity {
        diags.push(Diagnostic::error(
            ACCESSOR_ARITY,
            expr.span,
            format!(
                "`{field}.{method}` expects {} arguments, found {}",
                info.arity,
                args.len()
            ),
        ));
        return;
    }
    let kind = match decl.ann {
        FieldAnn::Local => {
            if global {
                diags.push(Diagnostic::error(
                    GLOBAL_ON_LOCAL,
                    expr.span,
                    format!("`@Global` access to `{field}` but the field is not @Partial"),
                ));
                return;
            }
            AccessKind::Local
        }
        FieldAnn::Partial => {
            if global {
                AccessKind::Global
            } else {
                AccessKind::PartialLocal
            }
        }
        FieldAnn::Partitioned => {
            if global {
                diags.push(Diagnostic::error(
                    GLOBAL_ON_PARTITIONED,
                    expr.span,
                    format!(
                        "`@Global` access to `{field}` but the field is @Partitioned \
                         (global access applies only to @Partial fields)"
                    ),
                ));
                return;
            }
            if !info.keyed {
                diags.push(Diagnostic::error(
                    KEYLESS_PARTITIONED_ACCESS,
                    expr.span,
                    format!(
                        "`{field}.{method}` has no access key, so the partition cannot \
                         be inferred for the @Partitioned field"
                    ),
                ));
                return;
            }
            let key_expr = &args[0];
            let key_var = match &key_expr.kind {
                ExprKind::Var(v) => resolve_copy(env, v).to_owned(),
                _ => {
                    diags.push(Diagnostic::error(
                        COMPOUND_ACCESS_KEY,
                        key_expr.span,
                        format!(
                            "access key for `{field}` must be a variable so the \
                             dataflow partitioning can be inferred (reaching-expression \
                             analysis found a compound expression)"
                        ),
                    ));
                    return;
                }
            };
            AccessKind::Partitioned { key_var }
        }
    };
    acc.accesses.push(StateAccess {
        field: field.to_owned(),
        kind,
        is_write: info.is_write,
        span: expr.span,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn analyze(src: &str, method: &str) -> SdgResult<Vec<StmtAccesses>> {
        let prog = parse_program(src).unwrap();
        let m = prog.method(method).unwrap().clone();
        analyze_method_accesses(&prog, &m)
    }

    #[test]
    fn classifies_partitioned_access_with_key() {
        let accs = analyze(
            "@Partitioned Matrix userItem;\n\
             void f(int user, int item, int r) { userItem.set(user, item, r); }",
            "f",
        )
        .unwrap();
        assert_eq!(accs.len(), 1);
        assert_eq!(
            accs[0].accesses,
            vec![StateAccess {
                field: "userItem".into(),
                kind: AccessKind::Partitioned {
                    key_var: "user".into()
                },
                is_write: true,
                span: accs[0].accesses[0].span,
            }]
        );
    }

    #[test]
    fn copy_propagation_resolves_key_aliases() {
        let accs = analyze(
            "@Partitioned Matrix userItem;\n\
             void f(int user) { let u = user; let w = u; let row = userItem.row(w); }",
            "f",
        )
        .unwrap();
        let access = &accs[2].accesses[0];
        assert_eq!(
            access.kind,
            AccessKind::Partitioned {
                key_var: "user".into()
            }
        );
        assert!(!access.is_write);
    }

    #[test]
    fn reassignment_breaks_the_copy_chain() {
        let accs = analyze(
            "@Partitioned Table t;\n\
             void f(int user) { let u = user; u = user + 1; let x = t.get(u); }",
            "f",
        )
        .unwrap();
        // After `u = user + 1`, u is its own root.
        assert_eq!(
            accs[2].accesses[0].kind,
            AccessKind::Partitioned {
                key_var: "u".into()
            }
        );
    }

    #[test]
    fn branch_local_copies_do_not_leak_past_the_join() {
        // `k` aliases `a` in only one arm, so after the join it must
        // resolve to itself — the flow-insensitive analysis this replaced
        // kept whichever arm was walked last.
        let accs = analyze(
            "@Partitioned Table t;\n\
             void f(int a, int c) {\n\
               let k = a;\n\
               if (c > 0) { k = c; }\n\
               let x = t.get(k);\n\
             }",
            "f",
        )
        .unwrap();
        assert_eq!(
            accs[2].accesses[0].kind,
            AccessKind::Partitioned {
                key_var: "k".into()
            }
        );
    }

    #[test]
    fn agreeing_branches_keep_the_alias() {
        let accs = analyze(
            "@Partitioned Table t;\n\
             void f(int a, int c) {\n\
               let k = a;\n\
               if (c > 0) { let unrelated = c; }\n\
               let x = t.get(k);\n\
             }",
            "f",
        )
        .unwrap();
        assert_eq!(
            accs[2].accesses[0].kind,
            AccessKind::Partitioned {
                key_var: "a".into()
            }
        );
    }

    #[test]
    fn classifies_partial_local_and_global() {
        let accs = analyze(
            "@Partial Matrix coOcc;\n\
             void f(int item, list row) {\n\
               coOcc.add(item, item, 1);\n\
               @Partial let r = @Global coOcc.multiply(row);\n\
             }",
            "f",
        )
        .unwrap();
        assert_eq!(accs[0].accesses[0].kind, AccessKind::PartialLocal);
        assert!(accs[0].accesses[0].is_write);
        assert_eq!(accs[1].accesses[0].kind, AccessKind::Global);
        assert!(!accs[1].accesses[0].is_write);
    }

    #[test]
    fn unannotated_field_is_local() {
        let accs = analyze("Table counts;\nvoid f(string w) { counts.inc(w, 1); }", "f").unwrap();
        assert_eq!(accs[0].accesses[0].kind, AccessKind::Local);
    }

    #[test]
    fn nested_block_accesses_attach_to_outer_statement() {
        let accs = analyze(
            "@Partial Matrix coOcc;\n\
             void f(list row, int item) {\n\
               foreach (p : row) { coOcc.set(item, p[0], 1); coOcc.set(p[0], item, 1); }\n\
             }",
            "f",
        )
        .unwrap();
        assert_eq!(accs.len(), 1);
        assert_eq!(accs[0].accesses.len(), 2);
    }

    #[test]
    fn rejects_global_on_partitioned_field() {
        let err = analyze(
            "@Partitioned Table t;\nvoid f(int k) { let x = @Global t.get(k); }",
            "f",
        )
        .unwrap_err();
        assert!(err.to_string().contains("@Partitioned"), "{err}");
    }

    #[test]
    fn rejects_global_on_local_field() {
        let err =
            analyze("Table t;\nvoid f(int k) { let x = @Global t.get(k); }", "f").unwrap_err();
        assert!(err.to_string().contains("not @Partial"), "{err}");
    }

    #[test]
    fn rejects_keyless_access_to_partitioned_field() {
        let err = analyze(
            "@Partitioned Matrix m;\nvoid f(list v) { let x = m.multiply(v); }",
            "f",
        )
        .unwrap_err();
        assert!(err.to_string().contains("no access key"), "{err}");
    }

    #[test]
    fn rejects_compound_key_expressions() {
        let err = analyze(
            "@Partitioned Table t;\nvoid f(int k) { let x = t.get(k % 10); }",
            "f",
        )
        .unwrap_err();
        assert!(err.to_string().contains("must be a variable"), "{err}");
    }

    #[test]
    fn rejects_unknown_field_method_and_arity() {
        assert!(analyze("Table t;\nvoid f() { let x = q.get(1); }", "f").is_err());
        assert!(analyze("Table t;\nvoid f() { let x = t.frobnicate(1); }", "f").is_err());
        assert!(analyze("Table t;\nvoid f() { let x = t.get(1, 2); }", "f").is_err());
    }

    #[test]
    fn collects_multiple_access_errors() {
        let prog = parse_program(
            "@Partitioned Table t;\n\
             void f(int k) {\n\
               let a = @Global t.get(k);\n\
               let b = t.get(k % 10);\n\
             }",
        )
        .unwrap();
        let m = prog.method("f").unwrap().clone();
        let mut diags = Diagnostics::new();
        collect_method_accesses(&prog, &m, &mut diags);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![GLOBAL_ON_PARTITIONED, COMPOUND_ACCESS_KEY]);
    }

    #[test]
    fn method_registry_knows_core_accessors() {
        assert!(state_method_info(StateTy::Table, "put").unwrap().is_write);
        assert!(!state_method_info(StateTy::Matrix, "row").unwrap().is_write);
        assert!(state_method_info(StateTy::Matrix, "row").unwrap().keyed);
        assert!(!state_method_info(StateTy::Vector, "dot").unwrap().keyed);
        assert!(state_method_info(StateTy::Table, "explode").is_none());
    }
}
