//! Assembling the SDG from segmented methods.

use std::collections::HashMap;
use std::sync::Arc;

use sdg_common::error::{SdgError, SdgResult};
use sdg_graph::model::{
    AccessMode, Dispatch, Distribution, Sdg, SdgBuilder, StateAccessEdge, TaskCode, TaskKind,
};
use sdg_ir::analysis::check::{check_program_diagnostics, PARTIAL_NEVER_MERGED};
use sdg_ir::analysis::live::live_before_each;
use sdg_ir::analysis::verify::{verify_program, TeCertificate};
use sdg_ir::ast::{Expr, ExprKind, FieldAnn, Method, Program, StateTy, Stmt, StmtKind};
use sdg_ir::diag::Severity;
use sdg_ir::opt::{optimize_program, OptReport};
use sdg_ir::te::TeProgram;
use sdg_state::partition::PartitionDim;
use sdg_state::store::StateType;

use crate::segment::{segment_method, Segment, SegmentCtx};

/// Translates a StateLang program into a validated SDG.
///
/// # Errors
///
/// Returns [`SdgError::Analysis`] for semantic violations and
/// [`SdgError::Translate`] when the program cannot be cut into task
/// elements (see the crate docs for the rules).
pub fn translate(program: &Program) -> SdgResult<Sdg> {
    // Fail fast on semantic violations, but defer unmerged-partial errors
    // (SL0101): when the `@Partial let` also misuses `@Global`, the access
    // analysis below produces the more actionable report for the same
    // statement, so it gets to run first.
    let check_diags = check_program_diagnostics(program);
    if let Some(err) = check_diags
        .iter()
        .find(|d| d.severity == Severity::Error && d.code != PARTIAL_NEVER_MERGED)
    {
        return Err(err.to_analysis_error());
    }
    let mut builder = SdgBuilder::new();

    // Step 2: one SE per annotated field.
    let mut state_ids = HashMap::new();
    for field in &program.fields {
        let ty = match field.ty {
            StateTy::Table => StateType::Table,
            StateTy::Matrix => StateType::Matrix,
            StateTy::Vector => StateType::Vector,
        };
        let dist = match field.ann {
            FieldAnn::Local => Distribution::Local,
            FieldAnn::Partial => Distribution::Partial,
            FieldAnn::Partitioned => {
                if field.ty == StateTy::Vector {
                    return Err(SdgError::Translate(format!(
                        "field `{}`: dense vectors cannot be @Partitioned; use @Partial",
                        field.name
                    )));
                }
                // Keyed accessors index tables by key and matrices by row,
                // so the partitioning dimension is always the row axis.
                Distribution::Partitioned {
                    dim: PartitionDim::Row,
                }
            }
        };
        let id = builder.add_state(field.name.clone(), ty, dist);
        state_ids.insert(field.name.clone(), id);
    }

    // Helper methods are state-free (checked) and shipped with every TE.
    let entry_names: Vec<String> = program
        .entry_points()
        .iter()
        .map(|m| m.name.clone())
        .collect();
    let helpers: Arc<HashMap<String, Method>> = Arc::new(
        program
            .methods
            .iter()
            .filter(|m| !entry_names.contains(&m.name))
            .map(|m| (m.name.clone(), m.clone()))
            .collect(),
    );

    if entry_names.is_empty() {
        return Err(SdgError::Translate(
            "program has no entry-point methods".into(),
        ));
    }

    // Steps 3–5: cut each entry method and wire the pipeline.
    let mut task_methods: Vec<(String, String)> = Vec::new();
    for method in program.entry_points() {
        let segments = segment_method(program, method)?;
        let live = live_before_each(program, method);
        let mut prev = None;
        for (k, seg) in segments.iter().enumerate() {
            let name = format!("{}_{k}", method.name);
            let is_last = k + 1 == segments.len();
            let mut output_vars: Vec<String> = if is_last {
                Vec::new()
            } else {
                live[segments[k + 1].stmt_range.start]
                    .iter()
                    .cloned()
                    .collect()
            };
            output_vars.sort();
            let stmts: Vec<Stmt> = method.body[seg.stmt_range.clone()]
                .iter()
                .map(rewrite_stmt)
                .collect();
            let code = TaskCode::Interpreted(TeProgram::new(
                name.clone(),
                stmts,
                Arc::clone(&helpers),
                output_vars,
            ));
            let kind = if k == 0 {
                TaskKind::Entry {
                    method: method.name.clone(),
                }
            } else {
                TaskKind::Compute
            };
            let access = access_edge(&seg.ctx, seg.writes, &state_ids)?;
            task_methods.push((name.clone(), method.name.clone()));
            let task = builder.add_task(name, kind, code, access);
            if let Some(prev_task) = prev {
                let mut live_vars: Vec<String> =
                    live[seg.stmt_range.start].iter().cloned().collect();
                live_vars.sort();
                let dispatch = edge_dispatch(seg);
                builder.connect(prev_task, task, dispatch, live_vars);
            }
            prev = Some(task);
        }
    }

    // Deferred from the semantic check: every segmentation succeeded, so any
    // remaining error is an unmerged partial value.
    if let Some(err) = check_diags.first_error() {
        return Err(err.to_analysis_error());
    }

    let mut sdg = builder.build()?;

    // Run sdg-verify and attach its certificates: the runtime gates
    // striping, incremental checkpointing and partial scale-in on them.
    // Each task element inherits the certificate of its source method —
    // a TE can only be as deterministic as the pipeline it was cut from.
    let mut report = verify_program(program);
    for (task, method) in task_methods {
        if let Some(cert) = report.te_certs.get(&method).cloned() {
            report.te_certs.insert(
                task.clone(),
                TeCertificate {
                    subject: task,
                    ..cert
                },
            );
        }
    }
    sdg.verify = Some(Arc::new(report));
    Ok(sdg)
}

/// Optimizes `program` (constant folding/propagation, branch and dead-code
/// elimination — see [`sdg_ir::opt`]) and translates the result.
///
/// The returned [`OptReport`] counts the rewrites applied; the SDG can have
/// fewer task elements and smaller edge payloads than [`translate`] would
/// produce for the same source, but computes the same results.
///
/// # Errors
///
/// The program is checked *before* optimization, against the user's
/// original source — the rewrites only run on programs with no semantic
/// errors, so they cannot delete or distort offending code.
pub fn translate_optimized(program: &Program) -> SdgResult<(Sdg, OptReport)> {
    let check_diags = check_program_diagnostics(program);
    if let Some(err) = check_diags
        .iter()
        .find(|d| d.severity == Severity::Error && d.code != PARTIAL_NEVER_MERGED)
    {
        return Err(err.to_analysis_error());
    }
    let (optimized, report) = optimize_program(program);
    let sdg = translate(&optimized)?;
    Ok((sdg, report))
}

fn access_edge(
    ctx: &SegmentCtx,
    writes: bool,
    state_ids: &HashMap<String, sdg_common::ids::StateId>,
) -> SdgResult<Option<StateAccessEdge>> {
    let edge = match ctx {
        SegmentCtx::Stateless => None,
        SegmentCtx::Local { field } => Some(StateAccessEdge {
            state: state_ids[field],
            mode: AccessMode::Local,
            writes,
        }),
        SegmentCtx::Partitioned { field, key } => Some(StateAccessEdge {
            state: state_ids[field],
            mode: AccessMode::Partitioned {
                key: key.clone(),
                dim: PartitionDim::Row,
            },
            writes,
        }),
        SegmentCtx::PartialLocal { field } => Some(StateAccessEdge {
            state: state_ids[field],
            mode: AccessMode::PartialLocal,
            writes,
        }),
        SegmentCtx::Global { field } => Some(StateAccessEdge {
            state: state_ids[field],
            mode: AccessMode::PartialGlobal,
            writes,
        }),
    };
    Ok(edge)
}

/// Chooses the dispatch semantics of the edge feeding `seg` (§4.2 step 4).
fn edge_dispatch(seg: &Segment) -> Dispatch {
    if let Some(var) = &seg.collects {
        return Dispatch::AllToOne {
            collect_var: var.clone(),
        };
    }
    match &seg.ctx {
        SegmentCtx::Partitioned { key, .. } => Dispatch::Partitioned { key: key.clone() },
        SegmentCtx::Global { .. } => Dispatch::OneToAll,
        SegmentCtx::PartialLocal { .. } | SegmentCtx::Local { .. } | SegmentCtx::Stateless => {
            Dispatch::OneToAny
        }
    }
}

/// Rewrites a statement for TE execution:
///
/// - `@Collection v` becomes a plain reference to `v` (the gather barrier
///   binds the collected list under that name);
/// - a top-level `return e;` in an entry method becomes `emit e; return;`
///   semantics (the value is the request's result).
fn rewrite_stmt(stmt: &Stmt) -> Stmt {
    let kind = match &stmt.kind {
        StmtKind::Let {
            name,
            expr,
            is_partial,
        } => StmtKind::Let {
            name: name.clone(),
            expr: rewrite_expr(expr),
            is_partial: *is_partial,
        },
        StmtKind::Assign { name, expr } => StmtKind::Assign {
            name: name.clone(),
            expr: rewrite_expr(expr),
        },
        StmtKind::Expr(e) => StmtKind::Expr(rewrite_expr(e)),
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => StmtKind::If {
            cond: rewrite_expr(cond),
            then_block: then_block.iter().map(rewrite_stmt).collect(),
            else_block: else_block.iter().map(rewrite_stmt).collect(),
        },
        StmtKind::While { cond, body } => StmtKind::While {
            cond: rewrite_expr(cond),
            body: body.iter().map(rewrite_stmt).collect(),
        },
        StmtKind::Foreach { var, iter, body } => StmtKind::Foreach {
            var: var.clone(),
            iter: rewrite_expr(iter),
            body: body.iter().map(rewrite_stmt).collect(),
        },
        StmtKind::Return(Some(e)) => StmtKind::Emit(rewrite_expr(e)),
        StmtKind::Return(None) => StmtKind::Return(None),
        StmtKind::Emit(e) => StmtKind::Emit(rewrite_expr(e)),
    };
    Stmt {
        kind,
        span: stmt.span,
    }
}

fn rewrite_expr(expr: &Expr) -> Expr {
    let kind = match &expr.kind {
        ExprKind::Collection(var) => ExprKind::Var(var.clone()),
        ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
            op: *op,
            lhs: Box::new(rewrite_expr(lhs)),
            rhs: Box::new(rewrite_expr(rhs)),
        },
        ExprKind::Unary { op, operand } => ExprKind::Unary {
            op: *op,
            operand: Box::new(rewrite_expr(operand)),
        },
        ExprKind::Index { base, idx } => ExprKind::Index {
            base: Box::new(rewrite_expr(base)),
            idx: Box::new(rewrite_expr(idx)),
        },
        ExprKind::ListLit(items) => ExprKind::ListLit(items.iter().map(rewrite_expr).collect()),
        ExprKind::Call { callee, args } => ExprKind::Call {
            callee: callee.clone(),
            args: args.iter().map(rewrite_expr).collect(),
        },
        ExprKind::StateCall {
            field,
            method,
            args,
            global,
        } => ExprKind::StateCall {
            field: field.clone(),
            method: method.clone(),
            args: args.iter().map(rewrite_expr).collect(),
            global: *global,
        },
        other => other.clone(),
    };
    Expr {
        kind,
        span: expr.span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_ir::parser::parse_program;

    const CF: &str = r#"
        @Partitioned Matrix userItem;
        @Partial Matrix coOcc;
        void addRating(int user, int item, int rating) {
            userItem.set(user, item, rating);
            let userRow = userItem.row(user);
            foreach (p : userRow) {
                if (p[1] > 0) {
                    coOcc.add(item, p[0], 1);
                    coOcc.add(p[0], item, 1);
                }
            }
        }
        Vector getRec(int user) {
            let userRow = userItem.row(user);
            @Partial let userRec = @Global coOcc.multiply(userRow);
            let rec = merge(@Collection userRec);
            emit rec;
        }
        Vector merge(@Collection Vector allRec) {
            let out = [];
            foreach (cur : allRec) { out = vec_add(out, cur); }
            return out;
        }
    "#;

    #[test]
    fn cf_translates_to_figure_1_shape() {
        let prog = parse_program(CF).unwrap();
        let sdg = translate(&prog).unwrap();

        // Five TEs: addRating_{0,1}, getRec_{0,1,2}; two SEs.
        assert_eq!(sdg.tasks.len(), 5);
        assert_eq!(sdg.states.len(), 2);
        assert_eq!(sdg.flows.len(), 3);

        let user_item = sdg.state_by_name("userItem").unwrap();
        assert_eq!(
            user_item.dist,
            Distribution::Partitioned {
                dim: PartitionDim::Row
            }
        );
        let co_occ = sdg.state_by_name("coOcc").unwrap();
        assert_eq!(co_occ.dist, Distribution::Partial);

        // addRating_0 partition-writes userItem; addRating_1 writes coOcc locally.
        let a0 = sdg.task_by_name("addRating_0").unwrap();
        let acc = a0.access.as_ref().unwrap();
        assert_eq!(acc.state, user_item.id);
        assert!(acc.writes);
        assert!(matches!(&acc.mode, AccessMode::Partitioned { key, .. } if key == "user"));
        assert!(matches!(a0.kind, TaskKind::Entry { .. }));

        let a1 = sdg.task_by_name("addRating_1").unwrap();
        assert_eq!(a1.access.as_ref().unwrap().mode, AccessMode::PartialLocal);

        // getRec_1 has global access fed one-to-all; getRec_2 gathers userRec.
        let g1 = sdg.task_by_name("getRec_1").unwrap();
        assert_eq!(g1.access.as_ref().unwrap().mode, AccessMode::PartialGlobal);
        let into_g1 = sdg.flows_to(g1.id);
        assert_eq!(into_g1.len(), 1);
        assert_eq!(into_g1[0].dispatch, Dispatch::OneToAll);
        assert_eq!(into_g1[0].live_vars, vec!["userRow".to_string()]);

        let g2 = sdg.task_by_name("getRec_2").unwrap();
        let into_g2 = sdg.flows_to(g2.id);
        assert_eq!(
            into_g2[0].dispatch,
            Dispatch::AllToOne {
                collect_var: "userRec".into()
            }
        );
        assert_eq!(into_g2[0].live_vars, vec!["userRec".to_string()]);
        assert!(g2.access.is_none());

        // The edge into addRating_1 carries item and userRow.
        let a1_in = sdg.flows_to(a1.id);
        assert_eq!(a1_in[0].dispatch, Dispatch::OneToAny);
        assert_eq!(
            a1_in[0].live_vars,
            vec!["item".to_string(), "userRow".to_string()]
        );
    }

    #[test]
    fn te_programs_carry_rewritten_code() {
        let prog = parse_program(CF).unwrap();
        let sdg = translate(&prog).unwrap();
        let g2 = sdg.task_by_name("getRec_2").unwrap();
        let TaskCode::Interpreted(te) = &g2.code else {
            panic!("expected interpreted code");
        };
        assert_eq!(te.stmts.len(), 2);
        // @Collection userRec was rewritten to a plain variable reference.
        let StmtKind::Let { expr, .. } = &te.stmts[0].kind else {
            panic!("expected let");
        };
        let ExprKind::Call { args, .. } = &expr.kind else {
            panic!("expected call");
        };
        assert!(matches!(&args[0].kind, ExprKind::Var(v) if v == "userRec"));
        // The merge helper travels with the TE.
        assert!(te.helpers.contains_key("merge"));
        assert!(te.is_sink());
    }

    #[test]
    fn entry_return_becomes_emit() {
        let prog = parse_program(
            "@Partitioned Table kv;\n\
             int get(int k) { let v = kv.get(k); return v; }",
        )
        .unwrap();
        let sdg = translate(&prog).unwrap();
        let t = sdg.task_by_name("get_0").unwrap();
        let TaskCode::Interpreted(te) = &t.code else {
            panic!("expected interpreted code");
        };
        assert!(matches!(&te.stmts[1].kind, StmtKind::Emit(_)));
    }

    #[test]
    fn partitioned_vector_fields_are_rejected() {
        let prog = parse_program("@Partitioned Vector w;\nvoid f(int i) { w.add(i, 1.0); }");
        // The access analysis rejects keyless partitioned access first, or
        // translation rejects the field; either way it must fail.
        let prog = prog.unwrap();
        assert!(translate(&prog).is_err());
    }

    #[test]
    fn program_without_entries_is_rejected() {
        // Mutually-calling methods are rejected as recursion; a program with
        // zero methods has no entry points.
        let prog = parse_program("Table t;").unwrap();
        let err = translate(&prog).unwrap_err();
        assert!(err.to_string().contains("no entry-point"), "{err}");
    }

    #[test]
    fn wordcount_translates_to_single_te_pipeline() {
        let prog = parse_program(
            "@Partitioned Table counts;\n\
             void addText(string line) {\n\
               let words = split(lower(line), \"\");\n\
               foreach (w : words) { counts.inc(w, 1); }\n\
             }",
        )
        .unwrap();
        // The `counts.inc` key is the foreach variable, which is defined
        // inside the compound statement, not before it — the statement is a
        // partitioned segment on `w`... but `w` is defined by the loop
        // itself, so the cut rule places the loop in its own TE fed by a
        // partitioned edge. The translator must reject this: the key is not
        // available on the edge.
        let result = translate(&prog);
        // Either outcome is structural: an error mentioning the key, or a
        // validated graph whose edge carries `w`. The current rules cut at
        // the loop and the edge cannot carry `w` (it is loop-local), so the
        // graph validator rejects it.
        assert!(result.is_err());
    }

    #[test]
    fn wordcount_with_emitted_words_translates() {
        // The translatable formulation: the entry splits lines and emits
        // per-word items; a second method counts one word per item.
        let prog = parse_program(
            "@Partitioned Table counts;\n\
             void addWord(string w, int n) {\n\
               counts.inc(w, n);\n\
             }",
        )
        .unwrap();
        let sdg = translate(&prog).unwrap();
        assert_eq!(sdg.tasks.len(), 1);
        let t = sdg.task_by_name("addWord_0").unwrap();
        assert!(
            matches!(&t.access.as_ref().unwrap().mode, AccessMode::Partitioned { key, .. } if key == "w")
        );
    }
}
