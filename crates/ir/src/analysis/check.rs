//! Semantic validation of StateLang programs (§4.1 and §4.2).
//!
//! Beyond ordinary scoping rules, the checker enforces the paper's
//! translation restrictions:
//!
//! - all state must use explicit SE classes (enforced by the parser) and be
//!   accessed through declared fields;
//! - `@Global` may only qualify access to `@Partial` fields (checked by the
//!   access analysis) and any variable assigned from a `@Global` expression
//!   must itself be declared `@Partial let`;
//! - `@Collection` may only expose variables declared `@Partial let`, and
//!   only as arguments to methods whose parameter is `@Collection`;
//! - every `@Partial let` must eventually be merged through `@Collection`
//!   (otherwise its per-instance values are never reconciled);
//! - helper methods (those called by other methods) must be side-effect
//!   free with respect to state, so they can be executed inside any TE;
//! - compound statements (`if`/`while`/`foreach`) must confine their state
//!   accesses to a single SE, because TE boundaries cannot cut through
//!   control flow;
//! - methods must not be recursive (the dataflow is acyclic per request).
//!
//! Violations are collected as [`Diagnostic`]s with stable `SL01xx` codes
//! by [`check_program_diagnostics`]; the fail-fast [`check_program`]
//! wrapper returns the first error for callers that just need a
//! go/no-go answer.

use std::collections::{HashMap, HashSet};

use sdg_common::error::SdgResult;

use crate::ast::{Expr, ExprKind, Method, Program, Span, Stmt, StmtKind};
use crate::builtins::builtin_arity;
use crate::diag::{Diagnostic, Diagnostics};

/// `@Partial let` binding never merged through `@Collection`.
pub const PARTIAL_NEVER_MERGED: &str = "SL0101";
/// Duplicate field/method declaration.
pub const DUPLICATE_DECLARATION: &str = "SL0110";
/// Entry-point method takes a `@Collection` parameter.
pub const ENTRY_COLLECTION_PARAM: &str = "SL0111";
/// A parameter or `let` binding shadows a state field.
pub const SHADOWED_STATE_FIELD: &str = "SL0112";
/// `@Global` access assigned to a non-`@Partial` binding.
pub const GLOBAL_REQUIRES_PARTIAL_LET: &str = "SL0113";
/// `@Partial let` without a `@Global` access on the right-hand side.
pub const PARTIAL_LET_REQUIRES_GLOBAL: &str = "SL0114";
/// Reassignment of a `@Partial` variable.
pub const PARTIAL_REASSIGNED: &str = "SL0115";
/// A `@Partial` (multi-valued) variable used as a plain value.
pub const PARTIAL_MULTI_VALUED: &str = "SL0116";
/// `@Collection` outside a collection-parameter argument position.
pub const COLLECTION_MISPLACED: &str = "SL0117";
/// `@Collection` applied to a non-`@Partial` variable.
pub const COLLECTION_REQUIRES_PARTIAL: &str = "SL0118";
/// Argument/parameter `@Collection` annotation mismatch.
pub const COLLECTION_ARG_MISMATCH: &str = "SL0119";
/// Wrong number of arguments to a helper or builtin.
pub const ARITY_MISMATCH: &str = "SL0120";
/// Call to an unknown function.
pub const UNKNOWN_FUNCTION: &str = "SL0121";
/// A helper method accesses state.
pub const HELPER_ACCESSES_STATE: &str = "SL0122";
/// `emit` outside an entry-point method.
pub const EMIT_OUTSIDE_ENTRY: &str = "SL0123";
/// A compound statement touching more than one state element.
pub const COMPOUND_MULTI_SE: &str = "SL0124";
/// `@Global` access inside control flow.
pub const GLOBAL_IN_CONTROL_FLOW: &str = "SL0125";
/// Recursive method calls.
pub const RECURSION: &str = "SL0126";
/// Use of (or assignment to) an undefined variable.
pub const UNDEFINED_VARIABLE: &str = "SL0127";
/// A state field used as a plain value.
pub const FIELD_AS_VALUE: &str = "SL0128";
/// `@Global` access in a position other than a `@Partial let` initialiser.
pub const GLOBAL_MISPLACED: &str = "SL0129";

/// Validates `program`, returning the first violation found.
pub fn check_program(program: &Program) -> SdgResult<()> {
    let diags = check_program_diagnostics(program);
    match diags.first_error() {
        Some(d) => Err(d.to_analysis_error()),
        None => Ok(()),
    }
}

/// Validates `program`, collecting **every** violation instead of
/// stopping at the first. Diagnostics appear in checking order, so the
/// first entry matches [`check_program`]'s error.
pub fn check_program_diagnostics(program: &Program) -> Diagnostics {
    let mut diags = Diagnostics::new();
    check_unique_names(program, &mut diags);
    let entry_names: HashSet<&str> = program
        .entry_points()
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    for method in &program.methods {
        let is_entry = entry_names.contains(method.name.as_str());
        check_method(program, method, is_entry, &mut diags);
    }
    check_no_recursion(program, &mut diags);
    diags
}

fn check_unique_names(program: &Program, diags: &mut Diagnostics) {
    let mut seen: HashSet<&str> = HashSet::new();
    for f in &program.fields {
        if !seen.insert(&f.name) {
            diags.push(Diagnostic::error(
                DUPLICATE_DECLARATION,
                f.span,
                format!("duplicate declaration of `{}`", f.name),
            ));
        }
    }
    for m in &program.methods {
        if !seen.insert(&m.name) {
            diags.push(Diagnostic::error(
                DUPLICATE_DECLARATION,
                m.span,
                format!("duplicate declaration of `{}`", m.name),
            ));
        }
    }
}

struct MethodChecker<'a, 'd> {
    program: &'a Program,
    method: &'a Method,
    is_entry: bool,
    /// Variables in scope, innermost last. Each scope maps name → is_partial.
    scopes: Vec<HashMap<String, bool>>,
    /// `@Partial let` bindings not yet consumed by `@Collection`:
    /// name → declaration span.
    unmerged_partials: HashMap<String, Span>,
    diags: &'d mut Diagnostics,
}

fn check_method(program: &Program, method: &Method, is_entry: bool, diags: &mut Diagnostics) {
    if is_entry && method.takes_collection() {
        diags.push(Diagnostic::error(
            ENTRY_COLLECTION_PARAM,
            method.span,
            format!(
                "entry point `{}` cannot take @Collection parameters (they are \
                 produced by merge dataflows, not external input)",
                method.name
            ),
        ));
    }
    let mut checker = MethodChecker {
        program,
        method,
        is_entry,
        scopes: vec![HashMap::new()],
        unmerged_partials: HashMap::new(),
        diags,
    };
    for p in &method.params {
        if program.field(&p.name).is_some() {
            checker.diags.push(Diagnostic::error(
                SHADOWED_STATE_FIELD,
                p.span,
                format!(
                    "parameter `{}` of `{}` shadows a state field",
                    p.name, method.name
                ),
            ));
        }
        checker.scopes[0].insert(p.name.clone(), false);
    }
    checker.check_block(&method.body, true);
    // Every partial value must be reconciled exactly once via @Collection
    // (§4.1); unmerged ones would leave per-instance values dangling.
    let mut unmerged: Vec<(String, Span)> = checker.unmerged_partials.drain().collect();
    unmerged.sort_by_key(|(_, span)| (span.line, span.col));
    for (name, span) in unmerged {
        checker.diags.push(
            Diagnostic::error(
                PARTIAL_NEVER_MERGED,
                span,
                format!(
                    "in `{}`: partial value `{name}` is never merged, so its \
                     per-instance values are never reconciled; pass it to a \
                     helper as `@Collection {name}`",
                    method.name
                ),
            )
            .with_note(
                "@Partial bindings hold one value per state instance; without a \
                 @Collection merge those values are never reconciled",
            ),
        );
    }
}

impl MethodChecker<'_, '_> {
    fn err(&mut self, code: &'static str, span: Span, msg: impl std::fmt::Display) {
        self.diags.push(Diagnostic::error(
            code,
            span,
            format!("in `{}`: {msg}", self.method.name),
        ));
    }

    fn lookup(&self, name: &str) -> Option<bool> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn define(&mut self, name: &str, is_partial: bool) {
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .insert(name.to_owned(), is_partial);
    }

    fn check_block(&mut self, block: &[Stmt], top_level: bool) {
        for stmt in block {
            self.check_stmt(stmt, top_level);
        }
    }

    fn check_stmt(&mut self, stmt: &Stmt, top_level: bool) {
        // Compound statements must confine state access to one SE so TE
        // extraction never has to cut inside control flow.
        if top_level && !stmt.child_blocks().is_empty() {
            let fields = fields_accessed(stmt);
            if fields.len() > 1 {
                let mut names: Vec<&str> = fields.iter().map(|s| s.as_str()).collect();
                names.sort_unstable();
                self.err(
                    COMPOUND_MULTI_SE,
                    stmt.span,
                    format!(
                        "a compound statement may access at most one state element, \
                         found {{{}}} (split the statement so each block touches one SE)",
                        names.join(", ")
                    ),
                );
            }
            if contains_global_in_nested(stmt) {
                self.err(
                    GLOBAL_IN_CONTROL_FLOW,
                    stmt.span,
                    "@Global access inside control flow is not translatable \
                     (it would place a synchronisation barrier inside a loop or branch)",
                );
            }
        }
        match &stmt.kind {
            StmtKind::Let {
                name,
                expr,
                is_partial,
            } => {
                if self.program.field(name).is_some() {
                    self.err(
                        SHADOWED_STATE_FIELD,
                        stmt.span,
                        format!("`{name}` shadows a state field"),
                    );
                }
                self.check_expr(expr, ExprPosition::Rhs);
                let has_global = expr.contains_global_access();
                if has_global && !is_partial {
                    self.err(
                        GLOBAL_REQUIRES_PARTIAL_LET,
                        stmt.span,
                        format!(
                            "`{name}` is assigned from @Global access and becomes \
                             multi-valued; declare it `@Partial let {name} = ...`"
                        ),
                    );
                }
                if *is_partial && !has_global {
                    self.err(
                        PARTIAL_LET_REQUIRES_GLOBAL,
                        stmt.span,
                        format!(
                            "`@Partial let {name}` requires a @Global state access on \
                             the right-hand side"
                        ),
                    );
                }
                if *is_partial {
                    self.unmerged_partials.insert(name.clone(), stmt.span);
                }
                self.define(name, *is_partial);
            }
            StmtKind::Assign { name, expr } => {
                match self.lookup(name) {
                    None => self.err(
                        UNDEFINED_VARIABLE,
                        stmt.span,
                        format!("assignment to undefined `{name}`"),
                    ),
                    Some(true) => self.err(
                        PARTIAL_REASSIGNED,
                        stmt.span,
                        format!("partial variable `{name}` cannot be reassigned"),
                    ),
                    Some(false) => {}
                }
                self.check_expr(expr, ExprPosition::Rhs);
                if expr.contains_global_access() {
                    self.err(
                        GLOBAL_MISPLACED,
                        stmt.span,
                        "@Global access may only initialise a `@Partial let` binding",
                    );
                }
            }
            StmtKind::Expr(expr) => {
                self.check_expr(expr, ExprPosition::Rhs);
                if expr.contains_global_access() {
                    self.err(
                        GLOBAL_MISPLACED,
                        stmt.span,
                        "@Global access may only initialise a `@Partial let` binding",
                    );
                }
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                self.check_expr(cond, ExprPosition::Rhs);
                self.scopes.push(HashMap::new());
                self.check_block(then_block, false);
                self.scopes.pop();
                self.scopes.push(HashMap::new());
                self.check_block(else_block, false);
                self.scopes.pop();
            }
            StmtKind::While { cond, body } => {
                self.check_expr(cond, ExprPosition::Rhs);
                self.scopes.push(HashMap::new());
                self.check_block(body, false);
                self.scopes.pop();
            }
            StmtKind::Foreach { var, iter, body } => {
                self.check_expr(iter, ExprPosition::Rhs);
                self.scopes.push(HashMap::new());
                self.define(var, false);
                self.check_block(body, false);
                self.scopes.pop();
            }
            StmtKind::Return(expr) => {
                if let Some(e) = expr {
                    self.check_expr(e, ExprPosition::Rhs);
                }
            }
            StmtKind::Emit(expr) => {
                if !self.is_entry {
                    self.err(
                        EMIT_OUTSIDE_ENTRY,
                        stmt.span,
                        "`emit` is only allowed in entry-point methods; helpers return values",
                    );
                }
                self.check_expr(expr, ExprPosition::Rhs);
            }
        }
    }

    fn check_expr(&mut self, expr: &Expr, pos: ExprPosition) {
        match &expr.kind {
            ExprKind::Var(name) => {
                if self.program.field(name).is_some() {
                    self.err(
                        FIELD_AS_VALUE,
                        expr.span,
                        format!(
                            "state field `{name}` cannot be used as a plain value; \
                             access it through its methods"
                        ),
                    );
                } else {
                    match self.lookup(name) {
                        None => self.err(
                            UNDEFINED_VARIABLE,
                            expr.span,
                            format!("undefined variable `{name}`"),
                        ),
                        Some(true) => self.err(
                            PARTIAL_MULTI_VALUED,
                            expr.span,
                            format!(
                                "partial variable `{name}` is multi-valued; use \
                                 `@Collection {name}` to reconcile its instances"
                            ),
                        ),
                        Some(false) => {}
                    }
                }
            }
            ExprKind::Collection(name) => {
                if pos != ExprPosition::CollectionArg {
                    self.err(
                        COLLECTION_MISPLACED,
                        expr.span,
                        "`@Collection` may only appear as an argument to a method \
                         whose parameter is @Collection",
                    );
                }
                match self.lookup(name) {
                    Some(true) => {
                        self.unmerged_partials.remove(name);
                    }
                    Some(false) => self.err(
                        COLLECTION_REQUIRES_PARTIAL,
                        expr.span,
                        format!("`@Collection {name}` requires `{name}` to be @Partial"),
                    ),
                    None => self.err(
                        UNDEFINED_VARIABLE,
                        expr.span,
                        format!("undefined variable `{name}`"),
                    ),
                }
            }
            ExprKind::Call { callee, args } => {
                if let Some(target) = self.program.method(callee) {
                    if target.params.len() != args.len() {
                        self.err(
                            ARITY_MISMATCH,
                            expr.span,
                            format!(
                                "`{callee}` expects {} arguments, found {}",
                                target.params.len(),
                                args.len()
                            ),
                        );
                    }
                    let params = target.params.clone();
                    for (param, arg) in params.iter().zip(args) {
                        let want_collection = param.is_collection;
                        let is_collection = matches!(&arg.kind, ExprKind::Collection(_));
                        if want_collection && !is_collection {
                            self.err(
                                COLLECTION_ARG_MISMATCH,
                                arg.span,
                                format!(
                                    "parameter `{}` of `{callee}` is @Collection; pass \
                                     `@Collection <partial-var>`",
                                    param.name
                                ),
                            );
                        }
                        if !want_collection && is_collection {
                            self.err(
                                COLLECTION_ARG_MISMATCH,
                                arg.span,
                                format!(
                                    "parameter `{}` of `{callee}` is not @Collection",
                                    param.name
                                ),
                            );
                        }
                        let pos = if want_collection {
                            ExprPosition::CollectionArg
                        } else {
                            ExprPosition::Rhs
                        };
                        self.check_expr(arg, pos);
                    }
                    // Helper methods must be state-free so they can execute
                    // inside whichever TE calls them.
                    if method_accesses_state(target) {
                        self.err(
                            HELPER_ACCESSES_STATE,
                            expr.span,
                            format!(
                                "helper method `{callee}` accesses state; only entry \
                                 points may access state elements"
                            ),
                        );
                    }
                } else if let Some(arity) = builtin_arity(callee) {
                    if args.len() != arity {
                        self.err(
                            ARITY_MISMATCH,
                            expr.span,
                            format!(
                                "builtin `{callee}` expects {arity} arguments, found {}",
                                args.len()
                            ),
                        );
                    }
                    for arg in args {
                        self.check_expr(arg, ExprPosition::Rhs);
                    }
                } else {
                    self.err(
                        UNKNOWN_FUNCTION,
                        expr.span,
                        format!("unknown function `{callee}`"),
                    );
                }
            }
            ExprKind::StateCall { args, .. } => {
                for arg in args {
                    self.check_expr(arg, ExprPosition::Rhs);
                }
            }
            _ => {
                let mut children = Vec::new();
                expr.visit_children(&mut |c| children.push(c));
                for c in children {
                    self.check_expr(c, ExprPosition::Rhs);
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExprPosition {
    Rhs,
    CollectionArg,
}

fn fields_accessed(stmt: &Stmt) -> HashSet<String> {
    let mut fields = HashSet::new();
    let mut on_expr = |e: &Expr| {
        e.walk(&mut |n| {
            if let ExprKind::StateCall { field, .. } = &n.kind {
                fields.insert(field.clone());
            }
        })
    };
    stmt.visit_exprs_deep(&mut on_expr);
    fields
}

fn contains_global_in_nested(stmt: &Stmt) -> bool {
    let mut found = false;
    for block in stmt.child_blocks() {
        for inner in block {
            let mut on_expr = |e: &Expr| {
                if e.contains_global_access() {
                    found = true;
                }
            };
            inner.visit_exprs_deep(&mut on_expr);
        }
    }
    found
}

fn method_accesses_state(method: &Method) -> bool {
    let mut found = false;
    for stmt in &method.body {
        let mut on_expr = |e: &Expr| {
            e.walk(&mut |n| {
                if matches!(&n.kind, ExprKind::StateCall { .. }) {
                    found = true;
                }
            })
        };
        stmt.visit_exprs_deep(&mut on_expr);
    }
    found
}

fn check_no_recursion(program: &Program, diags: &mut Diagnostics) {
    // Depth-first search over the call graph with an explicit stack colour.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour: HashMap<&str, Colour> = program
        .methods
        .iter()
        .map(|m| (m.name.as_str(), Colour::White))
        .collect();

    fn callees<'a>(method: &'a Method) -> Vec<&'a str> {
        let mut out = Vec::new();
        for stmt in &method.body {
            let mut on_expr = |e: &'a Expr| {
                e.walk(&mut |n| {
                    if let ExprKind::Call { callee, .. } = &n.kind {
                        out.push(callee.as_str());
                    }
                })
            };
            stmt.visit_exprs_deep(&mut on_expr);
        }
        out
    }

    fn dfs<'a>(
        program: &'a Program,
        name: &'a str,
        colour: &mut HashMap<&'a str, Colour>,
        diags: &mut Diagnostics,
    ) {
        match colour.get(name) {
            Some(Colour::Black) | None => return,
            Some(Colour::Grey) => {
                let span = program.method(name).map(|m| m.span).unwrap_or_default();
                diags.push(Diagnostic::error(
                    RECURSION,
                    span,
                    format!("recursive call involving `{name}` is not translatable to a dataflow"),
                ));
                return;
            }
            Some(Colour::White) => {}
        }
        colour.insert(name, Colour::Grey);
        if let Some(m) = program.method(name) {
            for callee in callees(m) {
                if program.method(callee).is_some() {
                    dfs(program, callee, colour, diags);
                }
            }
        }
        colour.insert(name, Colour::Black);
    }

    let names: Vec<&str> = program.methods.iter().map(|m| m.name.as_str()).collect();
    for name in names {
        dfs(program, name, &mut colour, diags);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> SdgResult<()> {
        check_program(&parse_program(src).unwrap())
    }

    fn check_err(src: &str, needle: &str) {
        let err = check(src).unwrap_err();
        assert!(
            err.to_string().contains(needle),
            "expected `{needle}` in `{err}`"
        );
    }

    fn first_code(src: &str) -> &'static str {
        let diags = check_program_diagnostics(&parse_program(src).unwrap());
        diags.first_error().expect("expected an error").code
    }

    #[test]
    fn accepts_the_cf_program() {
        let src = r#"
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
                let rec = [];
                foreach (cur : allRec) { rec = vec_add(rec, cur); }
                return rec;
            }
        "#;
        check(src).unwrap();
    }

    #[test]
    fn rejects_duplicate_names() {
        check_err("Table t;\nTable t;", "duplicate");
        check_err("Table t;\nvoid t() { }", "duplicate");
        assert_eq!(first_code("Table t;\nTable t;"), DUPLICATE_DECLARATION);
    }

    #[test]
    fn rejects_undefined_variables() {
        check_err("void f() { emit x; }", "undefined variable `x`");
        check_err("void f() { x = 3; }", "assignment to undefined `x`");
        assert_eq!(first_code("void f() { emit x; }"), UNDEFINED_VARIABLE);
    }

    #[test]
    fn rejects_field_used_as_value() {
        check_err("Table t;\nvoid f() { emit t; }", "plain value");
        assert_eq!(first_code("Table t;\nvoid f() { emit t; }"), FIELD_AS_VALUE);
    }

    #[test]
    fn rejects_shadowing_fields() {
        check_err("Table t;\nvoid f() { let t = 1; }", "shadows a state field");
        check_err("Table t;\nvoid f(int t) { }", "shadows a state field");
    }

    #[test]
    fn enforces_partial_let_for_global_access() {
        check_err(
            "@Partial Matrix m;\nvoid f(list v) { let x = @Global m.multiply(v); }",
            "@Partial let",
        );
        check_err(
            "@Partial Matrix m;\nvoid f(list v) { @Partial let x = m.multiply(v); }",
            "requires a @Global",
        );
    }

    #[test]
    fn partial_variables_are_opaque_until_collected() {
        check_err(
            "@Partial Matrix m;\n\
             void f(list v) { @Partial let x = @Global m.multiply(v); emit x; }",
            "multi-valued",
        );
        check_err(
            "@Partial Matrix m;\n\
             void f(list v) { @Partial let x = @Global m.multiply(v); x = v; }",
            "cannot be reassigned",
        );
    }

    #[test]
    fn unmerged_partial_values_are_reported() {
        // The partial is assigned but never reconciled with @Collection.
        let src = "@Partial Matrix m;\n\
                   void f(list v) { @Partial let x = @Global m.multiply(v); }";
        check_err(src, "never merged");
        assert_eq!(first_code(src), PARTIAL_NEVER_MERGED);
    }

    #[test]
    fn collection_rules() {
        check_err(
            "void f(int a) { let x = @Collection a; }",
            "may only appear as an argument",
        );
        check_err(
            "Vector g(@Collection Vector all) { return all; }\n\
             void f(int a) { let x = g(@Collection a); }",
            "requires `a` to be @Partial",
        );
        check_err(
            "Vector g(Vector one) { return one; }\n\
             @Partial Matrix m;\n\
             void f(list v) { @Partial let x = @Global m.multiply(v); let y = g(@Collection x); }",
            "is not @Collection",
        );
        check_err(
            "Vector g(@Collection Vector all) { return all; }\n\
             void f(int a) { let y = g(a); }",
            "pass `@Collection",
        );
    }

    #[test]
    fn entry_points_cannot_take_collections() {
        check_err(
            "void f(@Collection Vector all) { }",
            "cannot take @Collection",
        );
    }

    #[test]
    fn helpers_must_be_state_free() {
        check_err(
            "Table t;\n\
             int g(int k) { return t.get(k); }\n\
             void f(int k) { let x = g(k); }",
            "accesses state",
        );
    }

    #[test]
    fn helpers_cannot_emit() {
        check_err(
            "int g(int k) { emit k; return k; }\n\
             void f(int k) { let x = g(k); }",
            "only allowed in entry-point",
        );
    }

    #[test]
    fn compound_statements_confined_to_one_se() {
        check_err(
            "Table a;\nTable b;\n\
             void f(int k) {\n\
               if (k > 0) { a.put(k, 1); b.put(k, 1); }\n\
             }",
            "at most one state element",
        );
    }

    #[test]
    fn global_access_inside_control_flow_is_rejected() {
        check_err(
            "@Partial Matrix m;\n\
             void f(list v, int n) {\n\
               if (n > 0) { @Partial let x = @Global m.multiply(v); }\n\
             }",
            "inside control flow",
        );
    }

    #[test]
    fn recursion_is_rejected() {
        check_err("int f(int n) { let x = f(n); return x; }", "recursive");
        check_err(
            "int a(int n) { let x = b(n); return x; }\n\
             int b(int n) { let x = a(n); return x; }",
            "recursive",
        );
    }

    #[test]
    fn unknown_functions_and_arity() {
        check_err("void f() { let x = mystery(1); }", "unknown function");
        check_err("void f() { let x = len(1, 2); }", "expects 1 arguments");
        check_err(
            "int g(int a, int b) { return a; }\nvoid f() { let x = g(1); }",
            "expects 2 arguments",
        );
    }

    #[test]
    fn scopes_end_with_blocks() {
        check_err(
            "void f(int n) {\n\
               if (n > 0) { let x = 1; }\n\
               emit x;\n\
             }",
            "undefined variable `x`",
        );
    }

    #[test]
    fn collects_every_violation_not_just_the_first() {
        // Three independent problems in one program.
        let src = "Table t;\n\
                   void f(int k) {\n\
                     emit t;\n\
                     emit missing;\n\
                     let x = mystery(k);\n\
                   }";
        let diags = check_program_diagnostics(&parse_program(src).unwrap());
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![FIELD_AS_VALUE, UNDEFINED_VARIABLE, UNKNOWN_FUNCTION]
        );
        // Every diagnostic carries a source position.
        assert!(diags.iter().all(|d| d.span.is_some()));
    }

    #[test]
    fn analysis_errors_carry_positions() {
        let err = check("void f() {\n  emit missing;\n}").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("analysis error at 2:"), "{text}");
    }
}
