//! Abstract syntax tree for StateLang programs.
//!
//! The AST mirrors the subset of Java the paper's `java2sdg` tool accepts:
//! a single class with annotated state fields and a set of methods, where
//! public methods are the entry points of the SDG and helper methods (such
//! as `merge` in Alg. 1) are invoked from entry methods.

use std::fmt;
use std::sync::Arc;

/// A position in the source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Span {
    /// Creates a span.
    pub const fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Distribution annotation on a state field (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldAnn {
    /// No annotation: the field is a single local SE instance.
    Local,
    /// `@Partitioned`: the field can be split into disjoint partitions; every
    /// access must use an access key that identifies the partition.
    Partitioned,
    /// `@Partial`: distributed instances of the field are accessed
    /// independently; `@Global` access reaches all instances.
    Partial,
}

impl fmt::Display for FieldAnn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldAnn::Local => write!(f, "(local)"),
            FieldAnn::Partitioned => write!(f, "@Partitioned"),
            FieldAnn::Partial => write!(f, "@Partial"),
        }
    }
}

/// The declared data structure of a state field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateTy {
    /// A key/value dictionary.
    Table,
    /// A sparse matrix.
    Matrix,
    /// A dense vector.
    Vector,
}

impl fmt::Display for StateTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateTy::Table => write!(f, "Table"),
            StateTy::Matrix => write!(f, "Matrix"),
            StateTy::Vector => write!(f, "Vector"),
        }
    }
}

/// A state field declaration, e.g. `@Partitioned Matrix userItem;`.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Declared structure.
    pub ty: StateTy,
    /// Distribution annotation.
    pub ann: FieldAnn,
    /// Source position.
    pub span: Span,
}

/// A method parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type name (informational; StateLang is dynamically checked).
    pub ty: String,
    /// `true` when annotated `@Collection` — the parameter receives the
    /// gathered array of all instances of a partial value (§4.1).
    pub is_collection: bool,
    /// Source position.
    pub span: Span,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    /// Method name.
    pub name: String,
    /// Declared return type name (`"void"` for none).
    pub ret_ty: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source position.
    pub span: Span,
}

impl Method {
    /// Returns `true` if any parameter is annotated `@Collection`.
    pub fn takes_collection(&self) -> bool {
        self.params.iter().any(|p| p.is_collection)
    }
}

/// A complete StateLang program (the paper's "single Java class").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// State field declarations.
    pub fields: Vec<FieldDecl>,
    /// Methods; entry points are the methods not called by other methods.
    pub methods: Vec<Method>,
}

impl Program {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Returns the names of methods never invoked by another method — the
    /// entry points of the SDG (§4.2 rule 1).
    pub fn entry_points(&self) -> Vec<&Method> {
        let mut called: Vec<&str> = Vec::new();
        for m in &self.methods {
            for stmt in &m.body {
                collect_called(stmt, &mut called);
            }
        }
        self.methods
            .iter()
            .filter(|m| !called.contains(&m.name.as_str()))
            .collect()
    }
}

fn collect_called<'a>(stmt: &'a Stmt, out: &mut Vec<&'a str>) {
    let mut on_expr = |e: &'a Expr| collect_called_expr(e, out);
    stmt.visit_exprs(&mut on_expr);
    for inner in stmt.child_blocks() {
        for s in inner {
            collect_called(s, out);
        }
    }
}

fn collect_called_expr<'a>(expr: &'a Expr, out: &mut Vec<&'a str>) {
    if let ExprKind::Call { callee, .. } = &expr.kind {
        out.push(callee);
    }
    expr.visit_children(&mut |c| collect_called_expr(c, out));
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement variant.
    pub kind: StmtKind,
    /// Source position.
    pub span: Span,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `let x = e;` — introduces a new binding. `is_partial` records a
    /// `@Partial let`, required when the right-hand side contains `@Global`
    /// state access (§4.1).
    Let {
        /// Bound variable name.
        name: String,
        /// Initialiser.
        expr: Expr,
        /// `@Partial` annotation present.
        is_partial: bool,
    },
    /// `x = e;` — assignment to an existing binding.
    Assign {
        /// Target variable name.
        name: String,
        /// New value.
        expr: Expr,
    },
    /// An expression evaluated for its effect (state mutation).
    Expr(Expr),
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_block: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_block: Vec<Stmt>,
    },
    /// `while (cond) { .. }`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `foreach (x : e) { .. }` — iterates over a list value.
    Foreach {
        /// Loop variable.
        var: String,
        /// Iterated expression.
        iter: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return e?;`.
    Return(Option<Expr>),
    /// `emit e;` — sends a value to the SDG's output dataflow.
    Emit(Expr),
}

impl Stmt {
    /// Calls `f` on every expression directly contained in this statement
    /// (not descending into nested statements).
    pub fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            StmtKind::Let { expr, .. } | StmtKind::Assign { expr, .. } | StmtKind::Expr(expr) => {
                f(expr)
            }
            StmtKind::If { cond, .. } => f(cond),
            StmtKind::While { cond, .. } => f(cond),
            StmtKind::Foreach { iter, .. } => f(iter),
            StmtKind::Return(Some(e)) | StmtKind::Emit(e) => f(e),
            StmtKind::Return(None) => {}
        }
    }

    /// Calls `f` on every expression of this statement and of every
    /// statement nested in its blocks, outermost first (not descending
    /// into sub-expressions: pair it with [`Expr::walk`] for that).
    pub fn visit_exprs_deep<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.visit_exprs(f);
        for block in self.child_blocks() {
            for inner in block {
                inner.visit_exprs_deep(f);
            }
        }
    }

    /// Returns the nested statement blocks of this statement.
    pub fn child_blocks(&self) -> Vec<&[Stmt]> {
        match &self.kind {
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => vec![then_block, else_block],
            StmtKind::While { body, .. } | StmtKind::Foreach { body, .. } => vec![body],
            _ => Vec::new(),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Boolean not.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression variant.
    pub kind: ExprKind,
    /// Source position.
    pub span: Span,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(Arc<str>),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// Variable reference.
    Var(String),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// List indexing `base[idx]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        idx: Box<Expr>,
    },
    /// List literal `[a, b, c]`.
    ListLit(Vec<Expr>),
    /// Call of a builtin or helper method.
    Call {
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// State access `field.method(args)`, optionally `@Global` (§4.1).
    StateCall {
        /// State field name.
        field: String,
        /// Accessor method (`get`, `set`, `row`, `multiply`, ...).
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `true` when prefixed with `@Global`.
        global: bool,
    },
    /// `@Collection x` — exposes all instances of partial variable `x` as a
    /// list (§4.1).
    Collection(String),
}

impl Expr {
    /// Calls `f` on every direct child expression.
    pub fn visit_children<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            ExprKind::Binary { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            ExprKind::Unary { operand, .. } => f(operand),
            ExprKind::Index { base, idx } => {
                f(base);
                f(idx);
            }
            ExprKind::ListLit(items) => items.iter().for_each(f),
            ExprKind::Call { args, .. } | ExprKind::StateCall { args, .. } => {
                args.iter().for_each(f)
            }
            _ => {}
        }
    }

    /// Walks the whole expression tree, calling `f` on every node
    /// (pre-order, including `self`).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.visit_children(&mut |c| c.walk(f));
    }

    /// Returns `true` if this expression or any sub-expression is a
    /// `@Global` state access.
    pub fn contains_global_access(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(&e.kind, ExprKind::StateCall { global: true, .. }) {
                found = true;
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::default(),
        }
    }

    fn s(kind: StmtKind) -> Stmt {
        Stmt {
            kind,
            span: Span::default(),
        }
    }

    #[test]
    fn walk_visits_all_nodes() {
        let expr = e(ExprKind::Binary {
            op: BinOp::Add,
            lhs: Box::new(e(ExprKind::Int(1))),
            rhs: Box::new(e(ExprKind::Index {
                base: Box::new(e(ExprKind::Var("xs".into()))),
                idx: Box::new(e(ExprKind::Int(0))),
            })),
        });
        let mut count = 0;
        expr.walk(&mut |_| count += 1);
        assert_eq!(count, 5);

        // Nested blocks: the loop's iterated list, the `if` condition
        // inside the loop body, and the `emit` in its else block.
        let stmt = s(StmtKind::Foreach {
            var: "x".into(),
            iter: e(ExprKind::Var("xs".into())),
            body: vec![s(StmtKind::If {
                cond: e(ExprKind::Bool(true)),
                then_block: vec![],
                else_block: vec![s(StmtKind::Emit(expr))],
            })],
        });
        let mut tops = 0;
        stmt.visit_exprs_deep(&mut |_| tops += 1);
        assert_eq!(tops, 3);
        let mut count = 0;
        stmt.visit_exprs_deep(&mut |e| e.walk(&mut |_| count += 1));
        assert_eq!(count, 1 + 1 + 5);
    }

    #[test]
    fn contains_global_access_detects_nested() {
        let inner = e(ExprKind::StateCall {
            field: "coOcc".into(),
            method: "multiply".into(),
            args: vec![],
            global: true,
        });
        let outer = e(ExprKind::Call {
            callee: "merge".into(),
            args: vec![inner],
        });
        assert!(outer.contains_global_access());
        let plain = e(ExprKind::StateCall {
            field: "coOcc".into(),
            method: "get".into(),
            args: vec![],
            global: false,
        });
        assert!(!plain.contains_global_access());
    }

    #[test]
    fn entry_points_exclude_called_methods() {
        let helper = Method {
            name: "merge".into(),
            ret_ty: "Vector".into(),
            params: vec![],
            body: vec![],
            span: Span::default(),
        };
        let entry = Method {
            name: "getRec".into(),
            ret_ty: "Vector".into(),
            params: vec![],
            body: vec![s(StmtKind::Let {
                name: "rec".into(),
                expr: e(ExprKind::Call {
                    callee: "merge".into(),
                    args: vec![],
                }),
                is_partial: false,
            })],
            span: Span::default(),
        };
        let prog = Program {
            fields: vec![],
            methods: vec![helper, entry],
        };
        let entries: Vec<&str> = prog
            .entry_points()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(entries, vec!["getRec"]);
    }

    #[test]
    fn entry_points_find_calls_in_nested_blocks() {
        let helper = Method {
            name: "norm".into(),
            ret_ty: "float".into(),
            params: vec![],
            body: vec![],
            span: Span::default(),
        };
        let entry = Method {
            name: "update".into(),
            ret_ty: "void".into(),
            params: vec![],
            body: vec![s(StmtKind::If {
                cond: e(ExprKind::Bool(true)),
                then_block: vec![s(StmtKind::Expr(e(ExprKind::Call {
                    callee: "norm".into(),
                    args: vec![],
                })))],
                else_block: vec![],
            })],
            span: Span::default(),
        };
        let prog = Program {
            fields: vec![],
            methods: vec![helper, entry],
        };
        let entries: Vec<&str> = prog
            .entry_points()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(entries, vec!["update"]);
    }

    #[test]
    fn child_blocks_expose_nested_statements() {
        let stmt = s(StmtKind::If {
            cond: e(ExprKind::Bool(true)),
            then_block: vec![s(StmtKind::Return(None))],
            else_block: vec![],
        });
        let blocks = stmt.child_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].len(), 1);
    }
}
