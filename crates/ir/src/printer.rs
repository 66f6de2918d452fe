//! Pretty-printer for StateLang programs.
//!
//! Renders an AST back to parseable source. Useful for diagnostics (show
//! the code assigned to each TE), for golden tests, and as the inverse of
//! the parser: `parse(print(ast))` must equal `ast` up to spans.

use std::fmt::Write as _;

use crate::ast::{Expr, ExprKind, FieldAnn, Method, Program, Stmt, StmtKind, UnOp};

/// Renders a whole program.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for field in &program.fields {
        match field.ann {
            FieldAnn::Local => {}
            FieldAnn::Partitioned => out.push_str("@Partitioned "),
            FieldAnn::Partial => out.push_str("@Partial "),
        }
        let _ = writeln!(out, "{} {};", field.ty, field.name);
    }
    for method in &program.methods {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&print_method(method));
    }
    out
}

/// Renders one method.
pub fn print_method(method: &Method) -> String {
    let mut out = String::new();
    let params: Vec<String> = method
        .params
        .iter()
        .map(|p| {
            if p.is_collection {
                format!("@Collection {} {}", p.ty, p.name)
            } else {
                format!("{} {}", p.ty, p.name)
            }
        })
        .collect();
    let _ = writeln!(
        out,
        "{} {}({}) {{",
        method.ret_ty,
        method.name,
        params.join(", ")
    );
    for stmt in &method.body {
        print_stmt(stmt, 1, &mut out);
    }
    out.push_str("}\n");
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_stmt(stmt: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match &stmt.kind {
        StmtKind::Let {
            name,
            expr,
            is_partial,
        } => {
            if *is_partial {
                out.push_str("@Partial ");
            }
            let _ = writeln!(out, "let {name} = {};", print_expr(expr));
        }
        StmtKind::Assign { name, expr } => {
            let _ = writeln!(out, "{name} = {};", print_expr(expr));
        }
        StmtKind::Expr(e) => {
            let _ = writeln!(out, "{};", print_expr(e));
        }
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => {
            let _ = writeln!(out, "if ({}) {{", print_expr(cond));
            for s in then_block {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            if else_block.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in else_block {
                    print_stmt(s, level + 1, out);
                }
                indent(level, out);
                out.push_str("}\n");
            }
        }
        StmtKind::While { cond, body } => {
            let _ = writeln!(out, "while ({}) {{", print_expr(cond));
            for s in body {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        StmtKind::Foreach { var, iter, body } => {
            let _ = writeln!(out, "foreach ({var} : {}) {{", print_expr(iter));
            for s in body {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        StmtKind::Return(None) => out.push_str("return;\n"),
        StmtKind::Return(Some(e)) => {
            let _ = writeln!(out, "return {};", print_expr(e));
        }
        StmtKind::Emit(e) => {
            let _ = writeln!(out, "emit {};", print_expr(e));
        }
    }
}

/// Renders an expression (fully parenthesised, so precedence never needs
/// reconstruction).
pub fn print_expr(expr: &Expr) -> String {
    match &expr.kind {
        ExprKind::Int(v) => v.to_string(),
        ExprKind::Float(v) => {
            // Keep a decimal point so the literal lexes back as a float.
            let s = v.to_string();
            if s.contains('.') || s.contains('e') {
                s
            } else {
                format!("{s}.0")
            }
        }
        ExprKind::Str(s) => format!("{:?}", s.as_ref()),
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::Null => "null".into(),
        ExprKind::Var(name) => name.clone(),
        ExprKind::Binary { op, lhs, rhs } => {
            format!("({} {op} {})", print_expr(lhs), print_expr(rhs))
        }
        ExprKind::Unary { op, operand } => match op {
            UnOp::Neg => format!("(-{})", print_expr(operand)),
            UnOp::Not => format!("(!{})", print_expr(operand)),
        },
        ExprKind::Index { base, idx } => {
            format!("{}[{}]", print_expr(base), print_expr(idx))
        }
        ExprKind::ListLit(items) => {
            let inner: Vec<String> = items.iter().map(print_expr).collect();
            format!("[{}]", inner.join(", "))
        }
        ExprKind::Call { callee, args } => {
            let inner: Vec<String> = args.iter().map(print_expr).collect();
            format!("{callee}({})", inner.join(", "))
        }
        ExprKind::StateCall {
            field,
            method,
            args,
            global,
        } => {
            let inner: Vec<String> = args.iter().map(print_expr).collect();
            let prefix = if *global { "@Global " } else { "" };
            format!("{prefix}{field}.{method}({})", inner.join(", "))
        }
        ExprKind::Collection(var) => format!("@Collection {var}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// Strips spans so parsed-then-printed-then-parsed programs compare
    /// structurally.
    fn normalise(p: &Program) -> String {
        let debug = format!("{p:?}");
        let mut out = String::with_capacity(debug.len());
        let mut rest = debug.as_str();
        while let Some(idx) = rest.find("span: Span {") {
            out.push_str(&rest[..idx]);
            let tail = &rest[idx..];
            let end = tail.find('}').expect("span debug closes");
            rest = &tail[end + 1..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn cf_round_trips() {
        let src = r#"
            @Partitioned Matrix userItem;
            @Partial Matrix coOcc;
            void addRating(int user, int item, int rating) {
                userItem.set(user, item, rating);
                let userRow = userItem.row(user);
                foreach (p : userRow) {
                    if (p[1] > 0) {
                        coOcc.add(item, p[0], 1.0);
                        coOcc.add(p[0], item, 1.0);
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
                foreach (cur : allRec) { out = pairs_add(out, cur); }
                return out;
            }
        "#;
        let first = parse_program(src).unwrap();
        let printed = print_program(&first);
        let second = parse_program(&printed).unwrap();
        assert_eq!(normalise(&first), normalise(&second), "printed:\n{printed}");
    }

    #[test]
    fn precedence_survives_via_parentheses() {
        let src = "void f(int a, int b) { emit (a + b) * 2 - a % 3; emit !(a < b) && true; }";
        let first = parse_program(src).unwrap();
        let second = parse_program(&print_program(&first)).unwrap();
        assert_eq!(normalise(&first), normalise(&second));
    }

    #[test]
    fn literals_round_trip() {
        let src = r#"void f(int a) {
            emit 2.0;
            emit 0.5;
            emit "quote\"and\\slash";
            emit null;
            emit true;
            emit -a;
            while (false) { return; }
        }"#;
        let first = parse_program(src).unwrap();
        let second = parse_program(&print_program(&first)).unwrap();
        assert_eq!(normalise(&first), normalise(&second));
    }

    #[test]
    fn else_blocks_render() {
        let src = "void f(int a) { if (a > 0) { emit 1; } else { emit 2; } }";
        let printed = print_program(&parse_program(src).unwrap());
        assert!(printed.contains("} else {"), "{printed}");
    }
}
