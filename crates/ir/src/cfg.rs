//! Control-flow graphs over StateLang method bodies.
//!
//! The paper's `java2sdg` front-end runs its static analyses (reaching
//! expressions, live variables) on Soot's control-flow graph of the input
//! bytecode (§4.2). This module provides the equivalent for StateLang: a
//! [`Cfg`] of basic blocks over the structured AST, with
//! successors/predecessors, plus the two analyses the rest of the
//! pipeline builds on:
//!
//! - **live variables** ([`Cfg::live_in_per_stmt`]), which
//!   [`crate::analysis::live`] re-exports at top-level-statement
//!   granularity, and
//! - **constant/copy propagation** ([`Cfg::const_copy_envs`]), a *must*
//!   analysis whose environments [`crate::analysis::access`] uses to
//!   resolve partition-access keys — correctly through branches, which
//!   the previous flow-insensitive copy tracking could not do. Its
//!   constant folding ([`eval_const`]) folds exactly what the engines
//!   compute.
//!
//! Every AST statement (including nested ones) appears in **exactly one**
//! instruction of the graph, so analysis results are keyed by statement
//! identity ([`StmtRef`], the statement's address).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sdg_common::value::Value;

use crate::ast::{BinOp, Expr, ExprKind, Stmt, StmtKind};
use crate::eval::{eval_binop, eval_unop};

/// Index of a basic block inside a [`Cfg`].
pub type BlockId = usize;

/// Statement identity: the address of the AST node. Stable for the
/// lifetime of the borrowed `Program`, and safe to use as a map key
/// because it is never dereferenced.
pub type StmtRef = *const Stmt;

/// Returns the identity key for `stmt` (see [`StmtRef`]).
pub fn stmt_ref(stmt: &Stmt) -> StmtRef {
    stmt as StmtRef
}

/// One instruction of a basic block.
///
/// Compound statements are split: an `if` contributes a [`Instr::Cond`]
/// (its condition) while its branches become separate blocks; a `while`
/// contributes a `Cond` in its header block; a `foreach` contributes a
/// [`Instr::ForeachHead`] (evaluates the iterated expression and binds the
/// loop variable). Simple statements pass through as [`Instr::Stmt`].
#[derive(Debug, Clone, Copy)]
pub enum Instr<'a> {
    /// A simple statement: `let`, assignment, expression, `return`, `emit`.
    Stmt(&'a Stmt),
    /// The condition of an `if` or `while` statement.
    Cond(&'a Stmt),
    /// The head of a `foreach`: evaluates the iterator, defines the loop
    /// variable.
    ForeachHead(&'a Stmt),
}

impl<'a> Instr<'a> {
    /// The AST statement this instruction was lowered from.
    pub fn stmt(&self) -> &'a Stmt {
        match self {
            Instr::Stmt(s) | Instr::Cond(s) | Instr::ForeachHead(s) => s,
        }
    }

    /// The variable this instruction defines, if any.
    pub fn def(&self) -> Option<&'a str> {
        match self {
            Instr::Stmt(s) => match &s.kind {
                StmtKind::Let { name, .. } | StmtKind::Assign { name, .. } => Some(name),
                _ => None,
            },
            Instr::ForeachHead(s) => match &s.kind {
                StmtKind::Foreach { var, .. } => Some(var),
                _ => None,
            },
            Instr::Cond(_) => None,
        }
    }

    /// The variable names this instruction reads (`Var` references and
    /// `@Collection` operands in its directly contained expressions).
    pub fn uses(&self) -> Vec<&'a str> {
        let mut out = Vec::new();
        self.stmt()
            .visit_exprs(&mut |e| collect_var_uses(e, &mut out));
        out
    }
}

fn collect_var_uses<'a>(expr: &'a Expr, out: &mut Vec<&'a str>) {
    match &expr.kind {
        ExprKind::Var(name) | ExprKind::Collection(name) => out.push(name),
        _ => {}
    }
    expr.visit_children(&mut |c| collect_var_uses(c, out));
}

/// A basic block: straight-line instructions plus edges.
#[derive(Debug, Default)]
pub struct Block<'a> {
    /// Instructions in execution order.
    pub instrs: Vec<Instr<'a>>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// Predecessor blocks (derived from `succs`).
    pub preds: Vec<BlockId>,
}

/// A control-flow graph over one method body.
#[derive(Debug)]
pub struct Cfg<'a> {
    /// The basic blocks; [`Cfg::entry`] and [`Cfg::exit`] index into this.
    pub blocks: Vec<Block<'a>>,
    /// The unique entry block (may be empty).
    pub entry: BlockId,
    /// The unique exit block (always empty; `return` jumps here).
    pub exit: BlockId,
}

impl<'a> Cfg<'a> {
    /// Builds the CFG of a method body.
    pub fn build(body: &'a [Stmt]) -> Self {
        let mut cfg = Cfg {
            blocks: vec![Block::default(), Block::default()],
            entry: 0,
            exit: 1,
        };
        let last = cfg.lower_block(body, cfg.entry);
        cfg.add_edge(last, cfg.exit);
        // Derive predecessor lists.
        for b in 0..cfg.blocks.len() {
            for i in 0..cfg.blocks[b].succs.len() {
                let s = cfg.blocks[b].succs[i];
                cfg.blocks[s].preds.push(b);
            }
        }
        cfg
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn add_edge(&mut self, from: BlockId, to: BlockId) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    /// Lowers `stmts` starting in `current`; returns the block control
    /// falls out of.
    fn lower_block(&mut self, stmts: &'a [Stmt], mut current: BlockId) -> BlockId {
        for stmt in stmts {
            match &stmt.kind {
                StmtKind::Let { .. }
                | StmtKind::Assign { .. }
                | StmtKind::Expr(_)
                | StmtKind::Emit(_) => {
                    self.blocks[current].instrs.push(Instr::Stmt(stmt));
                }
                StmtKind::Return(_) => {
                    self.blocks[current].instrs.push(Instr::Stmt(stmt));
                    let exit = self.exit;
                    self.add_edge(current, exit);
                    // Anything after a `return` is unreachable; it still
                    // gets blocks (so every statement has an instruction)
                    // but the new block has no predecessors.
                    current = self.new_block();
                }
                StmtKind::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    self.blocks[current].instrs.push(Instr::Cond(stmt));
                    let then_entry = self.new_block();
                    let else_entry = self.new_block();
                    self.add_edge(current, then_entry);
                    self.add_edge(current, else_entry);
                    let then_exit = self.lower_block(then_block, then_entry);
                    let else_exit = self.lower_block(else_block, else_entry);
                    let join = self.new_block();
                    self.add_edge(then_exit, join);
                    self.add_edge(else_exit, join);
                    current = join;
                }
                StmtKind::While { body, .. } => {
                    let header = self.new_block();
                    self.add_edge(current, header);
                    self.blocks[header].instrs.push(Instr::Cond(stmt));
                    let body_entry = self.new_block();
                    let join = self.new_block();
                    self.add_edge(header, body_entry);
                    self.add_edge(header, join);
                    let body_exit = self.lower_block(body, body_entry);
                    self.add_edge(body_exit, header);
                    current = join;
                }
                StmtKind::Foreach { body, .. } => {
                    let header = self.new_block();
                    self.add_edge(current, header);
                    self.blocks[header].instrs.push(Instr::ForeachHead(stmt));
                    let body_entry = self.new_block();
                    let join = self.new_block();
                    self.add_edge(header, body_entry);
                    self.add_edge(header, join);
                    let body_exit = self.lower_block(body, body_entry);
                    self.add_edge(body_exit, header);
                    current = join;
                }
            }
        }
        current
    }

    /// Blocks in reverse post-order from the entry (unreachable blocks
    /// appended at the end, in index order).
    fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS carrying an explicit successor cursor.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry] = true;
        while let Some(&mut (b, ref mut cursor)) = stack.last_mut() {
            if let Some(&s) = self.blocks[b].succs.get(*cursor) {
                *cursor += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        for (b, &seen) in visited.iter().enumerate() {
            if !seen {
                post.push(b);
            }
        }
        post
    }

    // ----------------------------------------------------------------
    // Liveness
    // ----------------------------------------------------------------

    /// Computes live-variable sets, returning for each statement the set
    /// of variables live immediately **before** its instruction.
    ///
    /// For an `if`/`while` the representative instruction is the
    /// condition; for a `foreach` it is the head. The sets include every
    /// name read downstream — callers that only care about dataflow
    /// payloads filter out state-field names.
    pub fn live_in_per_stmt(&self) -> HashMap<StmtRef, HashSet<String>> {
        // Backward may-analysis over blocks to a fixed point.
        let mut live_out: Vec<HashSet<String>> = vec![HashSet::new(); self.blocks.len()];
        let mut live_in: Vec<HashSet<String>> = vec![HashSet::new(); self.blocks.len()];
        let mut order = self.reverse_postorder();
        order.reverse();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut out = HashSet::new();
                for &s in &self.blocks[b].succs {
                    out.extend(live_in[s].iter().cloned());
                }
                let mut cur = out.clone();
                for instr in self.blocks[b].instrs.iter().rev() {
                    if let Some(def) = instr.def() {
                        cur.remove(def);
                    }
                    for used in instr.uses() {
                        cur.insert(used.to_string());
                    }
                }
                if out != live_out[b] || cur != live_in[b] {
                    changed = true;
                    live_out[b] = out;
                    live_in[b] = cur;
                }
            }
        }
        // Second pass: record the set before each instruction.
        let mut per_stmt = HashMap::new();
        for (b, block) in self.blocks.iter().enumerate() {
            let mut sets: Vec<HashSet<String>> = Vec::with_capacity(block.instrs.len());
            let mut cur = live_out[b].clone();
            for instr in block.instrs.iter().rev() {
                if let Some(def) = instr.def() {
                    cur.remove(def);
                }
                for used in instr.uses() {
                    cur.insert(used.to_string());
                }
                sets.push(cur.clone());
            }
            sets.reverse();
            for (instr, set) in block.instrs.iter().zip(sets) {
                per_stmt.insert(stmt_ref(instr.stmt()), set);
            }
        }
        per_stmt
    }

    // ----------------------------------------------------------------
    // Constant / copy propagation
    // ----------------------------------------------------------------

    /// Computes the constant/copy environment holding immediately
    /// **before** each statement's instruction.
    ///
    /// This is a *must* analysis: a binding survives a join only when all
    /// reachable predecessors agree on it, so a variable assigned
    /// different copies in the two arms of an `if` resolves to nothing
    /// after the join (the previous flow-insensitive tracking kept
    /// whichever arm was walked last). Statements in unreachable code
    /// have no entry.
    pub fn const_copy_envs(&self) -> HashMap<StmtRef, Env> {
        let order = self.reverse_postorder();
        let mut ins: Vec<Option<Env>> = vec![None; self.blocks.len()];
        ins[self.entry] = Some(Env::new());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let Some(mut env) = ins[b].clone() else {
                    continue;
                };
                for instr in &self.blocks[b].instrs {
                    transfer(&mut env, instr);
                }
                for &s in &self.blocks[b].succs {
                    let merged = match &ins[s] {
                        None => env.clone(),
                        Some(existing) => meet(existing, &env),
                    };
                    if ins[s].as_ref() != Some(&merged) {
                        ins[s] = Some(merged);
                        changed = true;
                    }
                }
            }
        }
        let mut per_stmt = HashMap::new();
        for (b, block) in self.blocks.iter().enumerate() {
            let Some(start) = &ins[b] else { continue };
            let mut env = start.clone();
            for instr in &block.instrs {
                per_stmt.insert(stmt_ref(instr.stmt()), env.clone());
                transfer(&mut env, instr);
            }
        }
        per_stmt
    }
}

/// A compile-time constant value: the scalar [`Value`]s, compared
/// bitwise for floats so the must-meet never merges `-0.0` with `0.0`.
#[derive(Debug, Clone)]
pub enum Lit {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
    /// String constant.
    Str(Arc<str>),
    /// The `null` constant.
    Null,
}

impl PartialEq for Lit {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Lit::Int(a), Lit::Int(b)) => a == b,
            // Bitwise, so -0.0 and 0.0 stay distinct and NaN equals
            // itself for the purposes of the must-meet.
            (Lit::Float(a), Lit::Float(b)) => a.to_bits() == b.to_bits(),
            (Lit::Bool(a), Lit::Bool(b)) => a == b,
            (Lit::Str(a), Lit::Str(b)) => a == b,
            (Lit::Null, Lit::Null) => true,
            _ => false,
        }
    }
}

impl Lit {
    /// The runtime value of this constant.
    fn to_value(&self) -> Value {
        match self {
            Lit::Int(v) => Value::Int(*v),
            Lit::Float(v) => Value::Float(*v),
            Lit::Bool(v) => Value::Bool(*v),
            Lit::Str(v) => Value::Str(v.clone()),
            Lit::Null => Value::Null,
        }
    }

    /// The constant holding `value`, unless it is a list (lists have no
    /// literal form).
    fn from_value(value: Value) -> Option<Lit> {
        match value {
            Value::Int(v) => Some(Lit::Int(v)),
            Value::Float(v) => Some(Lit::Float(v)),
            Value::Bool(v) => Some(Lit::Bool(v)),
            Value::Str(v) => Some(Lit::Str(v)),
            Value::Null => Some(Lit::Null),
            Value::List(_) | Value::Pairs(_) => None,
        }
    }
}

/// What the analysis knows about one variable at one program point.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// The variable holds this constant.
    Const(Lit),
    /// The variable is a copy of this (root) variable.
    Copy(String),
}

/// Constant/copy facts at a program point: variable → binding. Absence
/// means "unknown".
pub type Env = HashMap<String, Binding>;

/// Resolves `name` through the environment: the root variable of a copy
/// chain, or `name` itself when it is not a known copy.
pub fn resolve_copy<'e>(env: &'e Env, name: &'e str) -> &'e str {
    match env.get(name) {
        Some(Binding::Copy(root)) => root,
        _ => name,
    }
}

fn kill(env: &mut Env, name: &str) {
    env.remove(name);
    // Copies *of* the redefined variable no longer alias it.
    env.retain(|_, b| !matches!(b, Binding::Copy(root) if root == name));
}

fn transfer(env: &mut Env, instr: &Instr<'_>) {
    match instr {
        Instr::Stmt(s) => match &s.kind {
            StmtKind::Let { name, expr, .. } | StmtKind::Assign { name, expr } => {
                let val = abstract_eval(expr, env);
                kill(env, name);
                if let Some(binding) = val {
                    // A self-copy (`x = x`) carries no information.
                    if binding != Binding::Copy(name.clone()) {
                        env.insert(name.clone(), binding);
                    }
                }
            }
            _ => {}
        },
        Instr::ForeachHead(s) => {
            if let StmtKind::Foreach { var, .. } = &s.kind {
                // The loop variable takes a fresh element each iteration.
                kill(env, var);
            }
        }
        Instr::Cond(_) => {}
    }
}

fn abstract_eval(expr: &Expr, env: &Env) -> Option<Binding> {
    if let ExprKind::Var(v) = &expr.kind {
        return Some(match env.get(v) {
            Some(Binding::Const(lit)) => Binding::Const(lit.clone()),
            Some(Binding::Copy(root)) => Binding::Copy(root.clone()),
            None => Binding::Copy(v.clone()),
        });
    }
    eval_const(expr, env).map(Binding::Const)
}

/// Must-meet: keep only the bindings both sides agree on.
fn meet(a: &Env, b: &Env) -> Env {
    a.iter()
        .filter(|(k, v)| b.get(*k) == Some(v))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Evaluates `expr` to a constant under `env`, when it provably folds.
///
/// Operators over constant operands fold through the evaluator's kernels
/// ([`crate::eval`]), exactly when those succeed, so a folded expression
/// computes what the engines compute; one that fails at run time
/// (division by zero, `%` on floats, a type error) stays in place to fail
/// there. Anything touching state, calls, lists or indexing is left
/// alone.
pub fn eval_const(expr: &Expr, env: &Env) -> Option<Lit> {
    match &expr.kind {
        ExprKind::Int(v) => Some(Lit::Int(*v)),
        ExprKind::Float(v) => Some(Lit::Float(*v)),
        ExprKind::Bool(v) => Some(Lit::Bool(*v)),
        ExprKind::Str(v) => Some(Lit::Str(v.clone())),
        ExprKind::Null => Some(Lit::Null),
        ExprKind::Var(v) => match env.get(v) {
            Some(Binding::Const(lit)) => Some(lit.clone()),
            _ => None,
        },
        ExprKind::Unary { op, operand } => {
            let v = eval_const(operand, env)?.to_value();
            Lit::from_value(eval_unop(*op, &v).ok()?)
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let l = eval_const(lhs, env)?;
            let r = eval_const(rhs, env)?;
            match op {
                // The short-circuit rule of the evaluators: `l && r` is
                // `r` when `l` holds, `l || r` is `r` when it does not.
                BinOp::And | BinOp::Or => {
                    let holds = l.to_value().truthy().ok()?;
                    Some(match (op, holds) {
                        (BinOp::And, true) | (BinOp::Or, false) => r,
                        _ => Lit::Bool(holds),
                    })
                }
                _ => Lit::from_value(eval_binop(*op, &l.to_value(), &r.to_value()).ok()?),
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::Program;

    fn body_of(src: &str) -> Program {
        parse_program(src).expect("test program parses")
    }

    fn cfg_of(program: &Program) -> Cfg<'_> {
        Cfg::build(&program.methods[0].body)
    }

    #[test]
    fn straight_line_is_a_single_reachable_block() {
        let p = body_of("void f(int x) { let a = x + 1; let b = a * 2; emit b; }");
        let cfg = cfg_of(&p);
        assert_eq!(cfg.blocks[cfg.entry].instrs.len(), 3);
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
        assert!(cfg.blocks[cfg.exit].instrs.is_empty());
    }

    #[test]
    fn if_produces_diamond() {
        let p =
            body_of("void f(int x) { let a = 0; if (x > 0) { a = 1; } else { a = 2; } emit a; }");
        let cfg = cfg_of(&p);
        // entry(2 instrs: let, cond) → then, else → join(1 instr: emit) → exit
        assert_eq!(cfg.blocks[cfg.entry].instrs.len(), 2);
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 2);
        let join = cfg.blocks[cfg.entry].succs[0];
        let join = cfg.blocks[join].succs[0];
        assert_eq!(cfg.blocks[join].preds.len(), 2);
        assert_eq!(cfg.blocks[join].instrs.len(), 1);
    }

    #[test]
    fn while_has_a_back_edge() {
        let p = body_of("void f(int x) { let i = 0; while (i < x) { i = i + 1; } emit i; }");
        let cfg = cfg_of(&p);
        let header = cfg.blocks[cfg.entry].succs[0];
        assert!(matches!(cfg.blocks[header].instrs[0], Instr::Cond(_)));
        // The loop body's exit must flow back to the header.
        let body_entry = cfg.blocks[header].succs[0];
        assert!(cfg.blocks[body_entry].succs.contains(&header));
    }

    #[test]
    fn return_jumps_to_exit_and_isolates_trailing_code() {
        let p = body_of("int f(int x) { return x; emit x; }");
        let cfg = cfg_of(&p);
        assert!(cfg.blocks[cfg.entry].succs.contains(&cfg.exit));
        // The trailing `emit` lives in an unreachable block.
        let block = cfg
            .blocks
            .iter()
            .find(|b| {
                b.instrs
                    .iter()
                    .any(|i| matches!(i.stmt().kind, StmtKind::Emit(_)))
            })
            .expect("emit instruction exists");
        assert!(block.preds.is_empty());
    }

    #[test]
    fn every_statement_has_exactly_one_instruction() {
        let p = body_of(
            "void f(int x) {\
               let a = 0;\
               if (x > 0) { a = 1; } else { while (a < 9) { a = a + 2; } }\
               foreach (v : pair(a, x)) { emit v; }\
             }",
        );
        let cfg = cfg_of(&p);
        let mut stmt_count = 0;
        fn count(stmts: &[Stmt], n: &mut usize) {
            for s in stmts {
                *n += 1;
                for b in s.child_blocks() {
                    count(b, n);
                }
            }
        }
        count(&p.methods[0].body, &mut stmt_count);
        let lowered: Vec<StmtRef> = cfg
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter().map(|i| stmt_ref(i.stmt())))
            .collect();
        assert_eq!(lowered.len(), stmt_count);
        assert_eq!(lowered.iter().collect::<HashSet<_>>().len(), stmt_count);
    }

    #[test]
    fn liveness_matches_structured_expectations() {
        let p = body_of("void f(int x, int y) { let a = x + 1; let b = 9; emit a; }");
        let cfg = cfg_of(&p);
        let live = cfg.live_in_per_stmt();
        let body = &p.methods[0].body;
        // Before the first statement only `x` is live (`y` and `b` are dead).
        let s0: &HashSet<String> = &live[&stmt_ref(&body[0])];
        assert_eq!(s0.iter().collect::<Vec<_>>(), vec!["x"]);
        // Before the emit, only `a`.
        let s2 = &live[&stmt_ref(&body[2])];
        assert!(s2.contains("a") && s2.len() == 1);
    }

    #[test]
    fn liveness_carries_loop_variables() {
        let p = body_of("void f(int n) { let i = 0; while (i < n) { i = i + 1; } emit i; }");
        let cfg = cfg_of(&p);
        let live = cfg.live_in_per_stmt();
        let body = &p.methods[0].body;
        // Before the while: both the counter and the bound are live, and
        // they stay live around the back edge.
        let before_loop = &live[&stmt_ref(&body[1])];
        assert!(before_loop.contains("i") && before_loop.contains("n"));
    }

    #[test]
    fn const_copy_survives_agreeing_branches_only() {
        let p = body_of(
            "void f(int u, int v, int c) {\
               let k = u;\
               if (c > 0) { let t = 1; } else { let t = 2; }\
               emit k;\
             }",
        );
        let cfg = cfg_of(&p);
        let envs = cfg.const_copy_envs();
        let body = &p.methods[0].body;
        let emit_env = &envs[&stmt_ref(&body[2])];
        // `k = u` survives the join (both arms agree)...
        assert_eq!(emit_env.get("k"), Some(&Binding::Copy("u".into())));
        assert_eq!(resolve_copy(emit_env, "k"), "u");
        // ...but `t` differs per arm, so the join drops it.
        assert_eq!(emit_env.get("t"), None);
    }

    #[test]
    fn divergent_copies_are_dropped_at_the_join() {
        let p = body_of(
            "void f(int a, int b, int c) {\
               let k = a;\
               if (c > 0) { k = b; }\
               emit k;\
             }",
        );
        let cfg = cfg_of(&p);
        let envs = cfg.const_copy_envs();
        let body = &p.methods[0].body;
        // One arm leaves k=a, the other sets k=b: no single root.
        let emit_env = &envs[&stmt_ref(&body[2])];
        assert_eq!(emit_env.get("k"), None);
        assert_eq!(resolve_copy(emit_env, "k"), "k");
    }

    #[test]
    fn reassignment_kills_copies_of_the_source() {
        let p = body_of("void f(int u) { let k = u; u = u + 1; emit k; }");
        let cfg = cfg_of(&p);
        let envs = cfg.const_copy_envs();
        let body = &p.methods[0].body;
        let emit_env = &envs[&stmt_ref(&body[2])];
        // After `u` changes, `k` no longer aliases it.
        assert_eq!(emit_env.get("k"), None);
    }

    #[test]
    fn constants_fold_through_copies() {
        let p = body_of("void f(int x) { let a = 2; let b = a * 3; let c = b; emit c; }");
        let cfg = cfg_of(&p);
        let envs = cfg.const_copy_envs();
        let body = &p.methods[0].body;
        let emit_env = &envs[&stmt_ref(&body[3])];
        assert_eq!(emit_env.get("b"), Some(&Binding::Const(Lit::Int(6))));
        // A copy of a constant is itself the constant.
        assert_eq!(emit_env.get("c"), Some(&Binding::Const(Lit::Int(6))));
    }

    #[test]
    fn const_folding_refuses_division_by_zero_and_wraps_overflow() {
        let env = Env::new();
        let span = crate::ast::Span::default();
        let int = |v: i64| Expr {
            kind: ExprKind::Int(v),
            span,
        };
        let div = Expr {
            kind: ExprKind::Binary {
                op: BinOp::Div,
                lhs: Box::new(int(1)),
                rhs: Box::new(int(0)),
            },
            span,
        };
        assert_eq!(eval_const(&div, &env), None);
        let overflow = Expr {
            kind: ExprKind::Binary {
                op: BinOp::Add,
                lhs: Box::new(int(i64::MAX)),
                rhs: Box::new(int(1)),
            },
            span,
        };
        assert_eq!(eval_const(&overflow, &env), Some(Lit::Int(i64::MIN)));
    }

    fn fold(src: &str) -> Option<Lit> {
        let p = body_of(&format!("void f() {{ emit {src}; }}"));
        let StmtKind::Emit(expr) = &p.methods[0].body[0].kind else {
            panic!("expected emit");
        };
        eval_const(expr, &Env::new())
    }

    #[test]
    fn const_folding_follows_the_engines() {
        // `%` on floats fails at run time, so it must not fold.
        assert_eq!(fold("5.0 % 2.0"), None);
        assert_eq!(fold("1 + 0.5"), Some(Lit::Float(1.5)));
        assert_eq!(fold("\"a\" + \"b\""), Some(Lit::Str("ab".into())));
        assert_eq!(fold("3 == 3.0"), Some(Lit::Bool(true)));
        assert_eq!(fold("\"b\" < \"c\""), Some(Lit::Bool(true)));
        assert_eq!(fold("true && 4"), Some(Lit::Int(4)));
        assert_eq!(fold("false && 4"), Some(Lit::Bool(false)));
        assert_eq!(fold("false || false"), Some(Lit::Bool(false)));
        assert_eq!(fold("1 && true"), None);
        assert_eq!(
            fold("-(0 - 9223372036854775807 - 1)"),
            Some(Lit::Int(i64::MIN))
        );
    }

    #[test]
    fn foreach_variable_is_opaque() {
        let p = body_of("void f(int x) { foreach (v : pair(x, x)) { let w = v; emit w; } }");
        let cfg = cfg_of(&p);
        let envs = cfg.const_copy_envs();
        let foreach = &p.methods[0].body[0];
        let StmtKind::Foreach { body, .. } = &foreach.kind else {
            panic!("expected foreach");
        };
        // Inside the loop `w` copies `v`, which is the (opaque) loop var.
        let emit_env = &envs[&stmt_ref(&body[1])];
        assert_eq!(emit_env.get("w"), Some(&Binding::Copy("v".into())));
    }
}
