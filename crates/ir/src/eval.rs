//! The reference evaluator of StateLang, and the one definition of what
//! its operators and state accessors compute.
//!
//! The kernels — [`eval_binop`], [`eval_unop`], [`eval_state_call`],
//! [`index_list`] — are shared by every component that evaluates the
//! language: this tree-walking interpreter, the runtime's slot-compiled
//! engine (`sdg_runtime::compile`), the constant folding of key
//! resolution's constant/copy analysis ([`crate::cfg::eval_const`]) and
//! the verifier's merge commutativity check ([`crate::analysis::verify`]).
//! A value therefore means the same thing whether it is computed at run
//! time, folded while resolving a key or sampled by the verifier.
//!
//! [`run_te`] interprets one [`TeProgram`] on one item; deployments run
//! the slot-compiled form instead, and `run_te` is the oracle the
//! engine-equivalence tests compare it against. State accesses
//! (`field.method(...)`) are served by the TE instance's local
//! [`StateStore`]; `@Global` access needs no special handling at this
//! level because the broadcast dispatch already delivered the item to
//! every partial instance.

use std::collections::HashMap;

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::value::{compare_values, Record, Value};
use sdg_state::store::StateStore;

use crate::ast::{BinOp, Expr, ExprKind, Method, Stmt, StmtKind, UnOp};
use crate::builtins::eval_builtin;
use crate::te::TeProgram;

/// Upper bound on evaluation steps per item, guarding against unbounded
/// `while` loops in user programs.
pub const STEP_BUDGET: u64 = 50_000_000;

/// The observable effects of running a TE block on one item.
#[derive(Debug, Default, PartialEq)]
pub struct Effects {
    /// Records forwarded on the outgoing dataflow edge.
    pub forwards: Vec<Record>,
    /// Values emitted to the SDG output sink.
    pub emits: Vec<Value>,
}

/// Runs `te` on `input` against the instance's local state.
pub fn run_te(
    te: &TeProgram,
    input: &Record,
    state: Option<&mut StateStore>,
) -> SdgResult<Effects> {
    let mut interp = Interp {
        state,
        helpers: &te.helpers,
        emits: Vec::new(),
        steps: 0,
        budget: STEP_BUDGET,
    };
    let mut env: Env = input
        .iter()
        .map(|(n, v)| (n.to_owned(), v.clone()))
        .collect();
    let flow = interp.exec_block(&te.stmts, &mut env)?;
    let mut effects = Effects {
        forwards: Vec::new(),
        emits: interp.emits,
    };
    // An early `return` suppresses downstream forwarding (the block chose
    // not to continue the pipeline for this item).
    if te.is_sink() || matches!(flow, Flow::Returned(_)) {
        return Ok(effects);
    }
    let mut out = Record::with_capacity(te.output_vars.len());
    for var in &te.output_vars {
        let value = env.get(var).cloned().ok_or_else(|| {
            SdgError::Eval(format!(
                "live variable `{var}` is unbound at the end of TE `{}`",
                te.name
            ))
        })?;
        out.set(var, value);
    }
    effects.forwards.push(out);
    Ok(effects)
}

/// Calls `method` on `args` with no state element, resolving calls to
/// other methods through `helpers`, within `budget` evaluation steps.
/// Returns the method's result and the values it emitted.
pub(crate) fn call_method(
    helpers: &HashMap<String, Method>,
    method: &Method,
    args: Vec<Value>,
    budget: u64,
) -> SdgResult<(Value, Vec<Value>)> {
    let mut interp = Interp {
        state: None,
        helpers,
        emits: Vec::new(),
        steps: 0,
        budget,
    };
    let result = interp.call_helper(method, args)?;
    Ok((result, interp.emits))
}

type Env = HashMap<String, Value>;

enum Flow {
    Normal,
    Returned(Value),
}

struct Interp<'a> {
    state: Option<&'a mut StateStore>,
    helpers: &'a HashMap<String, Method>,
    emits: Vec<Value>,
    steps: u64,
    budget: u64,
}

impl<'a> Interp<'a> {
    fn tick(&mut self) -> SdgResult<()> {
        self.steps += 1;
        if self.steps > self.budget {
            return Err(SdgError::Eval(
                "step budget exceeded (runaway loop?)".into(),
            ));
        }
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[Stmt], env: &mut Env) -> SdgResult<Flow> {
        for stmt in stmts {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                returned => return Ok(returned),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env) -> SdgResult<Flow> {
        self.tick()?;
        match &stmt.kind {
            StmtKind::Let { name, expr, .. } | StmtKind::Assign { name, expr } => {
                let value = self.eval(expr, env)?;
                env.insert(name.clone(), value);
                Ok(Flow::Normal)
            }
            StmtKind::Expr(expr) => {
                self.eval(expr, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                if self.eval(cond, env)?.truthy()? {
                    self.exec_block(then_block, env)
                } else {
                    self.exec_block(else_block, env)
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval(cond, env)?.truthy()? {
                    self.tick()?;
                    match self.exec_block(body, env)? {
                        Flow::Normal => {}
                        returned => return Ok(returned),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Foreach { var, iter, body } => {
                // The evaluated list is our own: move its items out.
                for item in self.eval(iter, env)?.into_items()? {
                    self.tick()?;
                    env.insert(var.clone(), item);
                    match self.exec_block(body, env)? {
                        Flow::Normal => {}
                        returned => return Ok(returned),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(expr) => {
                let value = match expr {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Null,
                };
                Ok(Flow::Returned(value))
            }
            StmtKind::Emit(expr) => {
                let value = self.eval(expr, env)?;
                self.emits.push(value);
                Ok(Flow::Normal)
            }
        }
    }

    fn eval(&mut self, expr: &Expr, env: &mut Env) -> SdgResult<Value> {
        self.tick()?;
        match &expr.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Null => Ok(Value::Null),
            ExprKind::Var(name) | ExprKind::Collection(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| SdgError::Eval(format!("unbound variable `{name}`"))),
            ExprKind::Binary { op, lhs, rhs } => {
                // Short-circuit boolean operators.
                match op {
                    BinOp::And => {
                        return if self.eval(lhs, env)?.truthy()? {
                            self.eval(rhs, env)
                        } else {
                            Ok(Value::Bool(false))
                        }
                    }
                    BinOp::Or => {
                        return if self.eval(lhs, env)?.truthy()? {
                            Ok(Value::Bool(true))
                        } else {
                            self.eval(rhs, env)
                        }
                    }
                    _ => {}
                }
                let l = self.eval(lhs, env)?;
                let r = self.eval(rhs, env)?;
                eval_binop(*op, &l, &r)
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand, env)?;
                eval_unop(*op, &v)
            }
            ExprKind::Index { base, idx } => {
                let b = self.eval(base, env)?;
                let i = self.eval(idx, env)?.as_int()?;
                index_list(&b, i)
            }
            ExprKind::ListLit(items) => {
                let vals = items
                    .iter()
                    .map(|e| self.eval(e, env))
                    .collect::<SdgResult<_>>()?;
                Ok(Value::List(vals))
            }
            ExprKind::Call { callee, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|e| self.eval(e, env))
                    .collect::<SdgResult<_>>()?;
                if let Some(method) = self.helpers.get(callee) {
                    self.call_helper(&method.clone(), vals)
                } else {
                    eval_builtin(callee, &vals)
                }
            }
            ExprKind::StateCall {
                field,
                method,
                args,
                ..
            } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|e| self.eval(e, env))
                    .collect::<SdgResult<_>>()?;
                self.state_call(field, method, vals)
            }
        }
    }

    fn call_helper(&mut self, method: &Method, args: Vec<Value>) -> SdgResult<Value> {
        if method.params.len() != args.len() {
            return Err(SdgError::Eval(format!(
                "`{}` expects {} arguments, got {}",
                method.name,
                method.params.len(),
                args.len()
            )));
        }
        let mut frame: Env = method
            .params
            .iter()
            .zip(args)
            .map(|(p, v)| (p.name.clone(), v))
            .collect();
        match self.exec_block(&method.body, &mut frame)? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Ok(Value::Null),
        }
    }

    fn state_call(&mut self, field: &str, method: &str, args: Vec<Value>) -> SdgResult<Value> {
        let store = self
            .state
            .as_deref_mut()
            .ok_or_else(|| missing_state(field))?;
        eval_state_call(store, field, method, &args)
    }
}

/// The error for a state access in a TE with no state element.
pub fn missing_state(field: &str) -> SdgError {
    SdgError::Eval(format!(
        "state access to `{field}` in a TE without a state element \
         (translation bug or mis-wired native graph)"
    ))
}

/// Applies one state accessor to a store. Shared by the reference
/// interpreter and the slot-compiled engine so accessor semantics can
/// never diverge between them.
#[inline]
pub fn eval_state_call(
    store: &mut StateStore,
    field: &str,
    method: &str,
    args: &[Value],
) -> SdgResult<Value> {
    match store {
        StateStore::Table(table) => match method {
            "get" => Ok(table.get(&args[0].to_key()?).unwrap_or(Value::Null)),
            "contains" => Ok(Value::Bool(table.contains(&args[0].to_key()?))),
            "put" => {
                table.put(args[0].to_key()?, args[1].clone());
                Ok(Value::Null)
            }
            "remove" => Ok(table.remove(&args[0].to_key()?).unwrap_or(Value::Null)),
            "inc" => {
                let key = args[0].to_key()?;
                let delta = args[1].clone();
                let current = table.get(&key);
                let next = match (current, &delta) {
                    (None, Value::Int(d)) => Value::Int(*d),
                    (None, d) => Value::Float(d.as_float()?),
                    (Some(Value::Int(c)), Value::Int(d)) => Value::Int(c + d),
                    (Some(c), d) => Value::Float(c.as_float()? + d.as_float()?),
                };
                table.put(key, next.clone());
                Ok(next)
            }
            "size" => Ok(Value::Int(table.len() as i64)),
            _ => Err(unknown_accessor(field, method)),
        },
        StateStore::Matrix(matrix) => match method {
            "get" => Ok(Value::Float(
                matrix.get(args[0].as_int()?, args[1].as_int()?),
            )),
            "set" => {
                matrix.set(args[0].as_int()?, args[1].as_int()?, args[2].as_float()?);
                Ok(Value::Null)
            }
            "add" => {
                matrix.add(args[0].as_int()?, args[1].as_int()?, args[2].as_float()?);
                Ok(Value::Null)
            }
            "row" => Ok(Value::Pairs(matrix.row(args[0].as_int()?).into())),
            "multiply" => Ok(Value::Pairs(matrix.multiply(&args[0].pairs()?).into())),
            "nnz" => Ok(Value::Int(matrix.nnz() as i64)),
            _ => Err(unknown_accessor(field, method)),
        },
        StateStore::Vector(vector) => match method {
            "get" => Ok(Value::Float(vector.get(index_arg(&args[0])?))),
            "set" => {
                vector.set(index_arg(&args[0])?, args[1].as_float()?);
                Ok(Value::Null)
            }
            "add" => {
                vector.add(index_arg(&args[0])?, args[1].as_float()?);
                Ok(Value::Null)
            }
            "axpy" => {
                let alpha = args[0].as_float()?;
                let xs: Vec<f64> = args[1]
                    .as_list()?
                    .iter()
                    .map(Value::as_float)
                    .collect::<SdgResult<_>>()?;
                vector.axpy(alpha, &xs);
                Ok(Value::Null)
            }
            "dot" => {
                let xs: Vec<f64> = args[0]
                    .as_list()?
                    .iter()
                    .map(Value::as_float)
                    .collect::<SdgResult<_>>()?;
                Ok(Value::Float(vector.dot(&xs)))
            }
            "size" => Ok(Value::Int(vector.len() as i64)),
            "toList" => Ok(Value::List(
                vector.to_vec().into_iter().map(Value::Float).collect(),
            )),
            _ => Err(unknown_accessor(field, method)),
        },
    }
}

fn unknown_accessor(field: &str, method: &str) -> SdgError {
    SdgError::Eval(format!("unknown state accessor `{field}.{method}`"))
}

fn index_arg(v: &Value) -> SdgResult<usize> {
    let i = v.as_int()?;
    usize::try_from(i).map_err(|_| SdgError::Eval(format!("negative index {i}")))
}

/// `base[i]`, with the language's type and bounds errors.
#[inline]
pub fn index_list(base: &Value, i: i64) -> SdgResult<Value> {
    let len = base.list_len()?;
    let item = base.list_get(usize::try_from(i).unwrap_or(usize::MAX))?;
    item.ok_or_else(|| SdgError::Eval(format!("index {i} out of bounds for list of length {len}")))
}

/// Applies a unary operator. Integer negation wraps, like the other
/// integer arithmetic.
#[inline]
pub fn eval_unop(op: UnOp, v: &Value) -> SdgResult<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(SdgError::type_mismatch("Int|Float", other.type_name())),
        },
        UnOp::Not => Ok(Value::Bool(!v.truthy()?)),
    }
}

/// Applies a binary operator. Integer arithmetic wraps; division and
/// remainder by zero are errors. `And`/`Or` short-circuit, so evaluators
/// handle them before evaluating the right operand; here they are an
/// error.
#[inline]
pub fn eval_binop(op: BinOp, l: &Value, r: &Value) -> SdgResult<Value> {
    use BinOp::*;
    match op {
        Add => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (Value::Str(a), Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            _ => Ok(Value::Float(l.as_float()? + r.as_float()?)),
        },
        Sub => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            _ => Ok(Value::Float(l.as_float()? - r.as_float()?)),
        },
        Mul => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            _ => Ok(Value::Float(l.as_float()? * r.as_float()?)),
        },
        Div => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(SdgError::Eval("integer division by zero".into()))
                } else {
                    Ok(Value::Int(a.wrapping_div(*b)))
                }
            }
            _ => Ok(Value::Float(l.as_float()? / r.as_float()?)),
        },
        Rem => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(SdgError::Eval("integer remainder by zero".into()))
                } else {
                    Ok(Value::Int(a.wrapping_rem(*b)))
                }
            }
            _ => Err(SdgError::Eval("`%` requires integers".into())),
        },
        Eq => Ok(Value::Bool(values_equal(l, r))),
        Ne => Ok(Value::Bool(!values_equal(l, r))),
        Lt | Le | Gt | Ge => {
            let ord = compare_values(l, r).ok_or_else(|| {
                SdgError::Eval(format!(
                    "cannot compare {} with {}",
                    l.type_name(),
                    r.type_name()
                ))
            })?;
            let b = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!("filtered above"),
            };
            Ok(Value::Bool(b))
        }
        And | Or => Err(SdgError::Eval(format!(
            "`{op}` short-circuits and has no value kernel"
        ))),
    }
}

fn values_equal(l: &Value, r: &Value) -> bool {
    match compare_values(l, r) {
        Some(ord) => ord.is_eq(),
        None => l == r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use sdg_common::record;
    use sdg_state::store::{StateStore, StateType};
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    /// Parses a single-method program and wraps its body as one TE.
    fn te_of(src: &str, out_vars: &[&str]) -> TeProgram {
        let prog = parse_program(src).unwrap();
        let entry = prog.entry_points()[0].clone();
        let helpers: Map<String, Method> = prog
            .methods
            .iter()
            .filter(|m| m.name != entry.name)
            .map(|m| (m.name.clone(), m.clone()))
            .collect();
        TeProgram::new(
            entry.name.clone(),
            entry.body.clone(),
            Arc::new(helpers),
            out_vars.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let te = te_of(
            "void f(int n) {\n\
               let acc = 0;\n\
               let i = 0;\n\
               while (i < n) { acc = acc + i; i = i + 1; }\n\
               if (acc >= 10) { emit acc; } else { emit 0 - acc; }\n\
             }",
            &[],
        );
        let fx = run_te(&te, &record! {"n" => Value::Int(5)}, None).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(10)]);
        let fx = run_te(&te, &record! {"n" => Value::Int(3)}, None).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(-3)]);
    }

    #[test]
    fn forwards_project_live_variables() {
        let te = te_of(
            "void f(int a, int b) { let x = a * 10; let unused = b; }",
            &["x"],
        );
        let fx = run_te(
            &te,
            &record! {"a" => Value::Int(3), "b" => Value::Int(1)},
            None,
        )
        .unwrap();
        assert_eq!(fx.forwards.len(), 1);
        assert_eq!(fx.forwards[0].get("x"), Some(&Value::Int(30)));
        assert_eq!(fx.forwards[0].len(), 1);
    }

    #[test]
    fn early_return_suppresses_forwarding() {
        let te = te_of(
            "void f(int a) { if (a < 0) { return; } let x = a; }",
            &["x"],
        );
        let fx = run_te(&te, &record! {"a" => Value::Int(-1)}, None).unwrap();
        assert!(fx.forwards.is_empty());
        let fx = run_te(&te, &record! {"a" => Value::Int(1)}, None).unwrap();
        assert_eq!(fx.forwards.len(), 1);
    }

    #[test]
    fn helper_calls_with_return() {
        let te = te_of(
            "int sq(int x) { return x * x; }\n\
             void f(int a) { emit sq(a) + sq(2); }",
            &[],
        );
        let fx = run_te(&te, &record! {"a" => Value::Int(3)}, None).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(13)]);
    }

    #[test]
    fn table_state_calls() {
        let te = te_of(
            "Table t;\n\
             void f(int k) {\n\
               t.put(k, 10);\n\
               t.inc(k, 5);\n\
               emit t.get(k);\n\
               emit t.get(999);\n\
               emit t.size();\n\
             }",
            &[],
        );
        let mut store = StateStore::new(StateType::Table);
        let fx = run_te(&te, &record! {"k" => Value::Int(1)}, Some(&mut store)).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(15), Value::Null, Value::Int(1)]);
    }

    #[test]
    fn matrix_state_calls_and_cf_inner_loop() {
        let te = te_of(
            "@Partial Matrix coOcc;\n\
             void f(int item, list userRow) {\n\
               foreach (p : userRow) {\n\
                 if (p[1] > 0.0) {\n\
                   coOcc.add(item, p[0], 1.0);\n\
                   coOcc.add(p[0], item, 1.0);\n\
                 }\n\
               }\n\
             }",
            &[],
        );
        let mut store = StateStore::new(StateType::Matrix);
        let user_row = Value::List(vec![
            Value::List(vec![Value::Int(2), Value::Float(5.0)]),
            Value::List(vec![Value::Int(3), Value::Float(0.0)]),
        ]);
        run_te(
            &te,
            &record! {"item" => Value::Int(7), "userRow" => user_row},
            Some(&mut store),
        )
        .unwrap();
        let m = store.as_matrix().unwrap();
        assert_eq!(m.get(7, 2), 1.0);
        assert_eq!(m.get(2, 7), 1.0);
        assert_eq!(m.get(7, 3), 0.0);
    }

    #[test]
    fn vector_state_calls() {
        let te = te_of(
            "Vector w;\n\
             void f(list g) {\n\
               w.axpy(0.5, g);\n\
               emit w.dot(g);\n\
               emit w.size();\n\
             }",
            &[],
        );
        let mut store = StateStore::new(StateType::Vector);
        let g = Value::List(vec![Value::Float(2.0), Value::Float(4.0)]);
        let fx = run_te(&te, &record! {"g" => g}, Some(&mut store)).unwrap();
        assert_eq!(fx.emits[0], Value::Float(1.0 * 2.0 + 2.0 * 4.0));
        assert_eq!(fx.emits[1], Value::Int(2));
    }

    #[test]
    fn state_access_without_store_is_an_error() {
        let te = te_of("Table t;\nvoid f(int k) { t.put(k, 1); }", &[]);
        let err = run_te(&te, &record! {"k" => Value::Int(1)}, None).unwrap_err();
        assert!(err.to_string().contains("without a state element"), "{err}");
    }

    #[test]
    fn runtime_errors_are_reported() {
        let te = te_of("void f(int a) { emit a / 0; }", &[]);
        assert!(run_te(&te, &record! {"a" => Value::Int(1)}, None).is_err());

        let te = te_of("void f(list xs) { emit xs[5]; }", &[]);
        let err = run_te(
            &te,
            &record! {"xs" => Value::List(vec![Value::Int(1)])},
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
    }

    #[test]
    fn missing_input_variable_is_an_error() {
        let te = te_of("void f(int a) { emit a; }", &[]);
        assert!(run_te(&te, &Record::new(), None).is_err());
    }

    #[test]
    fn runaway_loop_hits_step_budget() {
        let te = te_of("void f(int a) { while (true) { a = a + 1; } }", &[]);
        let err = run_te(&te, &record! {"a" => Value::Int(0)}, None).unwrap_err();
        assert!(err.to_string().contains("step budget"), "{err}");
    }

    #[test]
    fn short_circuit_avoids_rhs_evaluation() {
        // `false && (1/0 == 0)` must not evaluate the division.
        let te = te_of("void f(int z) { emit false && (1 / z == 0); }", &[]);
        let fx = run_te(&te, &record! {"z" => Value::Int(0)}, None).unwrap();
        assert_eq!(fx.emits, vec![Value::Bool(false)]);
    }

    #[test]
    fn string_concatenation_and_equality() {
        let te = te_of(
            "void f(string a) { emit a + \"!\"; emit a == \"hi\"; }",
            &[],
        );
        let fx = run_te(&te, &record! {"a" => Value::str("hi")}, None).unwrap();
        assert_eq!(fx.emits, vec![Value::str("hi!"), Value::Bool(true)]);
    }

    #[test]
    fn multiply_pipeline_matches_manual_computation() {
        let te = te_of(
            "@Partial Matrix m;\n\
             void f(list row) { emit m.multiply(row); }",
            &[],
        );
        let mut store = StateStore::new(StateType::Matrix);
        {
            let m = store.as_matrix().unwrap();
            m.set(0, 1, 2.0);
            m.set(5, 1, 3.0);
        }
        let row = Value::List(vec![Value::List(vec![Value::Int(1), Value::Float(10.0)])]);
        let fx = run_te(&te, &record! {"row" => row}, Some(&mut store)).unwrap();
        let expected = Value::List(vec![
            Value::List(vec![Value::Int(0), Value::Float(20.0)]),
            Value::List(vec![Value::Int(5), Value::Float(30.0)]),
        ]);
        assert_eq!(fx.emits, vec![expected]);
    }

    #[test]
    fn integer_division_and_remainder_wrap_at_the_minimum() {
        let (min, neg1) = (Value::Int(i64::MIN), Value::Int(-1));
        assert_eq!(
            eval_binop(BinOp::Div, &min, &neg1).unwrap(),
            Value::Int(i64::MIN)
        );
        assert_eq!(eval_binop(BinOp::Rem, &min, &neg1).unwrap(), Value::Int(0));
    }

    #[test]
    fn integer_negation_wraps_at_the_minimum() {
        assert_eq!(
            eval_unop(UnOp::Neg, &Value::Int(i64::MIN)).unwrap(),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            eval_unop(UnOp::Neg, &Value::Float(2.5)).unwrap(),
            Value::Float(-2.5)
        );
        assert!(eval_unop(UnOp::Neg, &Value::str("x")).is_err());
    }

    #[test]
    fn short_circuit_operators_have_no_value_kernel() {
        let t = Value::Bool(true);
        assert!(eval_binop(BinOp::And, &t, &t).is_err());
        assert!(eval_binop(BinOp::Or, &t, &t).is_err());
    }

    #[test]
    fn float_remainder_is_an_error_and_mixed_operands_promote() {
        let err = eval_binop(BinOp::Rem, &Value::Float(5.0), &Value::Float(2.0)).unwrap_err();
        assert!(err.to_string().contains("requires integers"), "{err}");
        assert_eq!(
            eval_binop(BinOp::Add, &Value::Int(1), &Value::Float(0.5)).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            eval_binop(BinOp::Eq, &Value::Int(3), &Value::Float(3.0)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binop(BinOp::Lt, &Value::str("b"), &Value::str("c")).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn call_method_returns_result_and_emits_within_its_budget() {
        let prog = parse_program(
            "int twice(int x) { return x + x; }\n\
             int f(int a) { emit a; return twice(a); }\n\
             int spin(int a) { while (true) { a = a + 1; } return a; }",
        )
        .unwrap();
        let helpers: Map<String, Method> = prog
            .methods
            .iter()
            .map(|m| (m.name.clone(), m.clone()))
            .collect();
        let (result, emits) = call_method(
            &helpers,
            prog.method("f").unwrap(),
            vec![Value::Int(4)],
            100,
        )
        .unwrap();
        assert_eq!(result, Value::Int(8));
        assert_eq!(emits, vec![Value::Int(4)]);
        let err = call_method(
            &helpers,
            prog.method("spin").unwrap(),
            vec![Value::Int(0)],
            100,
        )
        .unwrap_err();
        assert!(err.to_string().contains("step budget"), "{err}");
    }
}
