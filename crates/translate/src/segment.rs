//! Cutting a method body into task-element segments (§4.2 step 4).

use std::collections::HashSet;

use sdg_common::error::{SdgError, SdgResult};
use sdg_ir::analysis::access::{analyze_method_accesses, AccessKind, StmtAccesses};
use sdg_ir::ast::{Expr, ExprKind, Method, Program, Stmt, StmtKind};

/// The state context a segment executes in: which SE its TE may access, and
/// how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentCtx {
    /// No state access.
    Stateless,
    /// Access to an unannotated (single-instance) SE.
    Local {
        /// Accessed field.
        field: String,
    },
    /// Keyed access to a partitioned SE.
    Partitioned {
        /// Accessed field.
        field: String,
        /// Resolved access-key variable.
        key: String,
    },
    /// Access to the local instance of a partial SE.
    PartialLocal {
        /// Accessed field.
        field: String,
    },
    /// `@Global` access to all instances of a partial SE.
    Global {
        /// Accessed field.
        field: String,
    },
}

impl SegmentCtx {
    /// Returns the accessed field, if any.
    pub fn field(&self) -> Option<&str> {
        match self {
            SegmentCtx::Stateless => None,
            SegmentCtx::Local { field }
            | SegmentCtx::Partitioned { field, .. }
            | SegmentCtx::PartialLocal { field }
            | SegmentCtx::Global { field } => Some(field),
        }
    }
}

/// One contiguous run of statements assigned to a single task element.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Statement indices (into the method body) in this segment.
    pub stmt_range: std::ops::Range<usize>,
    /// The segment's state context.
    pub ctx: SegmentCtx,
    /// Whether any access in the segment writes state.
    pub writes: bool,
    /// When the segment starts with a `@Collection var` consumption, the
    /// collected partial variable (its input edge is all-to-one).
    pub collects: Option<String>,
    /// Partial variables defined in this segment (by `@Partial let`).
    pub defines_partial: Vec<String>,
}

/// Derives the context demanded by one statement from its accesses.
fn stmt_ctx(stmt_idx: usize, acc: &StmtAccesses, method: &Method) -> SdgResult<SegmentCtx> {
    if acc.accesses.is_empty() {
        return Ok(SegmentCtx::Stateless);
    }
    let fields: HashSet<&str> = acc.accesses.iter().map(|a| a.field.as_str()).collect();
    if fields.len() > 1 {
        let mut names: Vec<&str> = fields.into_iter().collect();
        names.sort_unstable();
        let span = method.body[stmt_idx].span;
        return Err(SdgError::Translate(format!(
            "statement at {span} in `{}` accesses multiple state elements {{{}}}; \
             a task element may access only one — split the statement",
            method.name,
            names.join(", ")
        )));
    }
    // A partitioned access key defined inside the statement itself (e.g. a
    // foreach variable) cannot drive dataflow dispatching: the key does not
    // exist until the statement runs. Such programs must emit one item per
    // key instead (rule 2 requires the key on the edge).
    let inner_defs = vars_defined_inside(&method.body[stmt_idx]);
    for access in &acc.accesses {
        if let AccessKind::Partitioned { key_var } = &access.kind {
            if inner_defs.contains(key_var) {
                return Err(SdgError::Translate(format!(
                    "access key `{key_var}` for `{}` at {} is defined inside the \
                     statement; restructure the program so each dataflow item \
                     carries its partition key",
                    access.field, access.span
                )));
            }
        }
    }
    let first = &acc.accesses[0];
    let mut ctx = match &first.kind {
        AccessKind::Local => SegmentCtx::Local {
            field: first.field.clone(),
        },
        AccessKind::Partitioned { key_var } => SegmentCtx::Partitioned {
            field: first.field.clone(),
            key: key_var.clone(),
        },
        AccessKind::PartialLocal => SegmentCtx::PartialLocal {
            field: first.field.clone(),
        },
        AccessKind::Global => SegmentCtx::Global {
            field: first.field.clone(),
        },
    };
    for access in &acc.accesses[1..] {
        let other = match &access.kind {
            AccessKind::Local => SegmentCtx::Local {
                field: access.field.clone(),
            },
            AccessKind::Partitioned { key_var } => SegmentCtx::Partitioned {
                field: access.field.clone(),
                key: key_var.clone(),
            },
            AccessKind::PartialLocal => SegmentCtx::PartialLocal {
                field: access.field.clone(),
            },
            AccessKind::Global => SegmentCtx::Global {
                field: access.field.clone(),
            },
        };
        if other != ctx {
            let span = method.body[stmt_idx].span;
            return Err(SdgError::Translate(format!(
                "statement at {span} in `{}` accesses `{}` with two different access \
                 patterns ({ctx:?} vs {other:?}); split the statement",
                method.name, first.field
            )));
        }
        ctx = other;
    }
    Ok(ctx)
}

/// Returns the `@Collection` variable consumed by a statement, if any.
fn collection_var(stmt: &Stmt) -> Option<String> {
    let mut found = None;
    let mut on_expr = |e: &Expr| {
        e.walk(&mut |n| {
            if let ExprKind::Collection(var) = &n.kind {
                found = Some(var.clone());
            }
        })
    };
    visit_deep(stmt, &mut on_expr);
    found
}

/// Returns the partial variable defined by a `@Partial let`, if any.
fn partial_def(stmt: &Stmt) -> Option<String> {
    match &stmt.kind {
        StmtKind::Let {
            name,
            is_partial: true,
            ..
        } => Some(name.clone()),
        _ => None,
    }
}

fn contains_emit(stmt: &Stmt) -> bool {
    if matches!(stmt.kind, StmtKind::Emit(_)) {
        return true;
    }
    stmt.child_blocks()
        .iter()
        .any(|b| b.iter().any(contains_emit))
}

/// Returns the set of variables defined by the top-level statements of a
/// segment (lets and assignments).
fn defined_vars(stmts: &[Stmt]) -> HashSet<String> {
    let mut out = HashSet::new();
    for stmt in stmts {
        if let StmtKind::Let { name, .. } | StmtKind::Assign { name, .. } = &stmt.kind {
            out.insert(name.clone());
        }
    }
    out
}

/// Returns every variable defined anywhere inside `stmt`, including loop
/// variables and bindings in nested blocks.
fn vars_defined_inside(stmt: &Stmt) -> HashSet<String> {
    let mut out = HashSet::new();
    fn walk(stmt: &Stmt, out: &mut HashSet<String>) {
        match &stmt.kind {
            StmtKind::Let { name, .. } | StmtKind::Assign { name, .. } => {
                out.insert(name.clone());
            }
            StmtKind::Foreach { var, .. } => {
                out.insert(var.clone());
            }
            _ => {}
        }
        for block in stmt.child_blocks() {
            for inner in block {
                walk(inner, out);
            }
        }
    }
    // Only nested definitions matter for the key check: a top-level `let`
    // defines its variable *after* the initialiser (and its state access)
    // ran, so exclude the statement's own binding but include everything in
    // child blocks.
    for block in stmt.child_blocks() {
        for inner in block {
            walk(inner, &mut out);
        }
    }
    if let StmtKind::Foreach { var, .. } = &stmt.kind {
        out.insert(var.clone());
    }
    out
}

fn visit_deep<'a>(stmt: &'a Stmt, on_expr: &mut impl FnMut(&'a Expr)) {
    stmt.visit_exprs(on_expr);
    for block in stmt.child_blocks() {
        for inner in block {
            visit_deep(inner, on_expr);
        }
    }
}

/// Cuts `method` into task-element segments.
///
/// Returns the segments in pipeline order. The first segment is the entry
/// TE of the method; each later segment is fed by a dataflow edge whose
/// dispatch is derived from the segment context (see `build`).
///
/// Every segment after the first either consumes a `@Collection` (a gather
/// barrier, which keeps its own TE) or accesses state: a cut that is not a
/// gather starts at the statement whose state context forced it, and the
/// new segment adopts that context at once. So two stateless segments are
/// adjacent only when the later one gathers, and no two consecutive TEs
/// could run as one.
pub fn segment_method(program: &Program, method: &Method) -> SdgResult<Vec<Segment>> {
    let accesses = analyze_method_accesses(program, method)?;
    let mut segments: Vec<Segment> = Vec::new();
    let mut start = 0usize;
    let mut ctx = SegmentCtx::Stateless;
    let mut writes = false;
    let mut collects: Option<String> = None;
    let mut defines_partial: Vec<String> = Vec::new();

    let flush = |segments: &mut Vec<Segment>,
                 start: usize,
                 end: usize,
                 ctx: &SegmentCtx,
                 writes: bool,
                 collects: &Option<String>,
                 defines_partial: &[String]| {
        if start < end {
            segments.push(Segment {
                stmt_range: start..end,
                ctx: ctx.clone(),
                writes,
                collects: collects.clone(),
                defines_partial: defines_partial.to_vec(),
            });
        }
    };

    for (i, stmt) in method.body.iter().enumerate() {
        let demanded = stmt_ctx(i, &accesses[i], method)?;
        let collect = collection_var(stmt);
        let stmt_writes = accesses[i].accesses.iter().any(|a| a.is_write);

        // A `@Collection` consumption always begins a new segment: its edge
        // is the all-to-one gather barrier (rule 5).
        let mut cut = collect.is_some();

        if !cut {
            cut = match (&ctx, &demanded) {
                // Stateless statements always join the current segment.
                (_, SegmentCtx::Stateless) => false,
                // A segment without state yet may adopt the statement's
                // context, unless the access key is computed inside the
                // segment (then the key cannot drive the input dispatch).
                (SegmentCtx::Stateless, SegmentCtx::Partitioned { key, .. }) => {
                    let defined = defined_vars(&method.body[start..i]);
                    defined.contains(key)
                }
                (SegmentCtx::Stateless, _) => false,
                // Same context: join (same SE, same key).
                (a, b) if a == b => false,
                // Anything else: new SE, new key, or new access type.
                _ => true,
            };
        }

        if cut {
            flush(
                &mut segments,
                start,
                i,
                &ctx,
                writes,
                &collects,
                &defines_partial,
            );
            start = i;
            ctx = SegmentCtx::Stateless;
            writes = false;
            collects = collect;
            defines_partial = Vec::new();
        }

        // Adopt the statement's context.
        if demanded != SegmentCtx::Stateless {
            if ctx == SegmentCtx::Stateless {
                ctx = demanded;
            }
            writes |= stmt_writes;
        }
        if let Some(p) = partial_def(stmt) {
            defines_partial.push(p);
        }
        // Emitting from a broadcast (global) segment would duplicate output
        // once per partial instance.
        if matches!(ctx, SegmentCtx::Global { .. }) && contains_emit(stmt) {
            return Err(SdgError::Translate(format!(
                "`emit` at {} in `{}` would execute once per partial instance; \
                 reconcile with @Collection first",
                stmt.span, method.name
            )));
        }
    }
    flush(
        &mut segments,
        start,
        method.body.len(),
        &ctx,
        writes,
        &collects,
        &defines_partial,
    );

    // Every @Partial variable must be consumed by a @Collection in a later
    // segment; otherwise the global results are silently dropped.
    for (i, seg) in segments.iter().enumerate() {
        for var in &seg.defines_partial {
            let consumed = segments[i + 1..]
                .iter()
                .any(|s| s.collects.as_deref() == Some(var));
            if !consumed {
                return Err(SdgError::Translate(format!(
                    "partial variable `{var}` in `{}` is never reconciled with \
                     `@Collection {var}`",
                    method.name
                )));
            }
        }
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_ir::parser::parse_program;

    fn segs(src: &str, method: &str) -> SdgResult<Vec<Segment>> {
        let prog = parse_program(src).unwrap();
        sdg_ir::analysis::check::check_program(&prog)?;
        let m = prog.method(method).unwrap().clone();
        segment_method(&prog, &m)
    }

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
    fn add_rating_cuts_into_two_tes() {
        let segs = segs(CF, "addRating").unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].stmt_range, 0..2);
        assert_eq!(
            segs[0].ctx,
            SegmentCtx::Partitioned {
                field: "userItem".into(),
                key: "user".into()
            }
        );
        assert!(segs[0].writes);
        assert_eq!(segs[1].stmt_range, 2..3);
        assert_eq!(
            segs[1].ctx,
            SegmentCtx::PartialLocal {
                field: "coOcc".into()
            }
        );
        assert!(segs[1].writes);
        assert_eq!(segs[1].collects, None);
    }

    #[test]
    fn get_rec_cuts_match_figure_1() {
        let segs = segs(CF, "getRec").unwrap();
        assert_eq!(segs.len(), 3);
        // getUserVec: partitioned read of userItem.
        assert_eq!(
            segs[0].ctx,
            SegmentCtx::Partitioned {
                field: "userItem".into(),
                key: "user".into()
            }
        );
        assert!(!segs[0].writes);
        // getRecVec: global access to coOcc, defines partial userRec.
        assert_eq!(
            segs[1].ctx,
            SegmentCtx::Global {
                field: "coOcc".into()
            }
        );
        assert_eq!(segs[1].defines_partial, vec!["userRec".to_string()]);
        // merge: stateless, gathers userRec.
        assert_eq!(segs[2].ctx, SegmentCtx::Stateless);
        assert_eq!(segs[2].collects.as_deref(), Some("userRec"));
        assert_eq!(segs[2].stmt_range, 2..4);
    }

    #[test]
    fn new_access_key_to_same_se_cuts() {
        let segs = segs(
            "@Partitioned Table t;\n\
             void f(int a, int b) {\n\
               let x = t.get(a);\n\
               let y = t.get(b);\n\
               emit x + y;\n\
             }",
            "f",
        )
        .unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(
            segs[0].ctx,
            SegmentCtx::Partitioned {
                field: "t".into(),
                key: "a".into()
            }
        );
        assert_eq!(
            segs[1].ctx,
            SegmentCtx::Partitioned {
                field: "t".into(),
                key: "b".into()
            }
        );
    }

    #[test]
    fn same_key_through_alias_does_not_cut() {
        let segs = segs(
            "@Partitioned Table t;\n\
             void f(int a) {\n\
               let x = t.get(a);\n\
               let a2 = a;\n\
               let y = t.get(a2);\n\
               emit x + y;\n\
             }",
            "f",
        )
        .unwrap();
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn key_computed_in_segment_forces_cut() {
        let segs = segs(
            "@Partitioned Table t;\n\
             void f(int a) {\n\
               let k = a + 1;\n\
               let x = t.get(k);\n\
               emit x;\n\
             }",
            "f",
        )
        .unwrap();
        // The key `k` is computed by the first statement, so the partitioned
        // access starts a new TE whose input edge partitions on `k`.
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].ctx, SegmentCtx::Stateless);
        assert_eq!(
            segs[1].ctx,
            SegmentCtx::Partitioned {
                field: "t".into(),
                key: "k".into()
            }
        );
    }

    #[test]
    fn key_from_input_allows_adoption() {
        let segs = segs(
            "@Partitioned Table t;\n\
             void f(int k) {\n\
               let limit = 10;\n\
               let x = t.get(k);\n\
               emit x + limit;\n\
             }",
            "f",
        )
        .unwrap();
        // `k` is a parameter, so the stateless prefix joins the keyed TE.
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn local_then_local_different_fields_cut() {
        let segs = segs(
            "Table a;\nTable b;\n\
             void f(int k) {\n\
               a.put(k, 1);\n\
               b.put(k, 2);\n\
             }",
            "f",
        )
        .unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].ctx, SegmentCtx::Local { field: "a".into() });
        assert_eq!(segs[1].ctx, SegmentCtx::Local { field: "b".into() });
    }

    #[test]
    fn stateless_method_is_one_segment() {
        let segs = segs("void f(int x) { emit x * 2; }", "f").unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].ctx, SegmentCtx::Stateless);
    }

    #[test]
    fn statement_touching_two_ses_is_rejected() {
        let err = segs(
            "Table a;\nTable b;\n\
             void f(int k) { let x = a.get(k) + b.get(k); }",
            "f",
        )
        .unwrap_err();
        assert!(err.to_string().contains("multiple state elements"), "{err}");
    }

    #[test]
    fn unreconciled_partial_variable_is_rejected() {
        let err = segs(
            "@Partial Matrix m;\n\
             void f(list v) { @Partial let r = @Global m.multiply(v); }",
            "f",
        )
        .unwrap_err();
        assert!(err.to_string().contains("never reconciled"), "{err}");
    }
}
