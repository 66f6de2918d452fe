//! Executor for slot-compiled TEs (deploy-time compilation, step 2).
//!
//! [`sdg_ir::te_compiled`] lowers a `TeProgram` into a slot-addressed form
//! at deploy time; this module executes it. The interpreter environment is
//! a flat register file (`Vec<Option<Value>>`) indexed by `u32` slots, so
//! variable reads and writes are O(1) array accesses instead of string
//! hash lookups, and the per-item `HashMap` allocation of the reference
//! interpreter disappears entirely: each worker owns one [`Scratch`] whose
//! register file (and helper-frame pool) is reused across items.
//!
//! Semantics are defined by the language crate's reference evaluator
//! ([`sdg_ir::eval`]): every operator, accessor and list index goes
//! through its kernels (`eval_binop`, `eval_unop`, `eval_state_call`,
//! `index_list`), and the property harness in `tests/engine_equiv.rs`
//! asserts effect-for-effect equivalence with [`sdg_ir::eval::run_te`]
//! across generated StateLang programs.

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::value::{Record, Value};
use sdg_ir::ast::BinOp;
use sdg_ir::builtins::eval_builtin;
use sdg_ir::eval::{
    eval_binop, eval_state_call, eval_unop, index_list, missing_state, Effects, STEP_BUDGET,
};
use sdg_ir::te_compiled::{CExpr, CStmt, CompiledTe};
use sdg_state::store::StateStore;
use std::sync::Arc;

/// A register file: one `Option<Value>` per interned name. `None` means
/// the variable is unbound (distinct from a bound `Value::Null`).
type Regs = Vec<Option<Value>>;

/// Per-worker reusable execution state: the main register file, a pool
/// of helper activation frames, the argument stack of state and builtin
/// calls, and the input binding map. Reusing these across items removes
/// every per-item environment allocation from the hot path.
#[derive(Debug, Default)]
pub struct Scratch {
    regs: Regs,
    frame_pool: Vec<Regs>,
    args: Vec<Value>,
    binding: Binding,
}

/// Where each field of an input record goes in the register file, by
/// position: built by name lookups from one record and reused while later
/// records have the same field names in the same order. It is checked
/// for the TE too, since one [`Scratch`] may serve several TEs.
#[derive(Debug, Default)]
struct Binding {
    /// [`CompiledTe::key`] of the TE the map was built for.
    te: Option<u64>,
    /// Per input position: the field name, and its slot when the TE
    /// references it.
    fields: Vec<(Arc<str>, Option<u32>)>,
}

impl Binding {
    /// Binds `input`'s fields into `regs`, revalidating the cached map by
    /// name per field and rebuilding it by lookup on any mismatch.
    fn bind(&mut self, te: &CompiledTe, input: &Record, regs: &mut Regs) {
        if self.te == Some(te.key()) && self.fields.len() == input.len() {
            // Binds as it checks: on a mismatch the rebuild below binds
            // every field again.
            let fits = input
                .iter()
                .zip(&self.fields)
                .all(|((name, value), (want, slot))| {
                    if !std::ptr::eq(name, &**want) && name != &**want {
                        return false;
                    }
                    if let Some(slot) = slot {
                        regs[*slot as usize] = Some(value.clone());
                    }
                    true
                });
            if fits {
                return;
            }
        }
        // Fields the program never references get no slot (they cannot
        // appear in `output_slots`: output variables are interned at
        // compile time).
        self.te = Some(te.key());
        self.fields.clear();
        for i in 0..input.len() {
            let (name, value) = input.at(i).expect("position in bounds");
            let slot = te.symbols.lookup(name);
            if let Some(slot) = slot {
                regs[slot as usize] = Some(value.clone());
            }
            self.fields.push((Arc::clone(name), slot));
        }
    }
}

impl Scratch {
    /// Creates an empty scratch pad.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs a compiled TE on `input` against the instance's local state,
/// reusing `scratch` for the register file.
pub fn run_compiled(
    te: &CompiledTe,
    input: &Record,
    state: Option<&mut StateStore>,
    scratch: &mut Scratch,
) -> SdgResult<Effects> {
    let Scratch {
        regs,
        frame_pool,
        args,
        binding,
    } = scratch;
    regs.clear();
    regs.resize(te.symbols.len(), None);
    binding.bind(te, input, regs);
    args.clear();
    let mut exec = Exec {
        te,
        state,
        frame_pool,
        args,
        emits: Vec::new(),
        steps: 0,
    };
    let flow = exec.exec_block(&te.body, regs)?;
    let mut effects = Effects {
        forwards: Vec::new(),
        emits: exec.emits,
    };
    if te.is_sink || matches!(flow, Flow::Returned(_)) {
        return Ok(effects);
    }
    let mut out = Record::with_capacity(te.output_slots.len());
    for &slot in &te.output_slots {
        // The block is over: move values out of the registers instead of
        // cloning them. Output slots are distinct (live sets are sorted,
        // deduplicated variable names).
        let value = regs[slot as usize].take().ok_or_else(|| {
            SdgError::Eval(format!(
                "live variable `{}` is unbound at the end of TE `{}`",
                te.symbols.name(slot),
                te.name
            ))
        })?;
        out.push_unchecked(te.symbols.name(slot).clone(), value);
    }
    effects.forwards.push(out);
    Ok(effects)
}

enum Flow {
    Normal,
    Returned(Value),
}

struct Exec<'a> {
    te: &'a CompiledTe,
    state: Option<&'a mut StateStore>,
    frame_pool: &'a mut Vec<Regs>,
    /// Evaluated arguments of the state and builtin calls in progress,
    /// innermost last; each call truncates back to its base.
    args: &'a mut Vec<Value>,
    emits: Vec<Value>,
    steps: u64,
}

impl<'a> Exec<'a> {
    #[inline]
    fn tick(&mut self) -> SdgResult<()> {
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            return Err(SdgError::Eval(
                "step budget exceeded (runaway loop?)".into(),
            ));
        }
        Ok(())
    }

    /// Borrows the value in `slot`, or reports it unbound.
    fn bound<'r>(&self, regs: &'r Regs, slot: u32) -> SdgResult<&'r Value> {
        regs[slot as usize].as_ref().ok_or_else(|| {
            SdgError::Eval(format!("unbound variable `{}`", self.te.symbols.name(slot)))
        })
    }

    fn exec_block(&mut self, stmts: &[CStmt], regs: &mut Regs) -> SdgResult<Flow> {
        for stmt in stmts {
            match self.exec_stmt(stmt, regs)? {
                Flow::Normal => {}
                returned => return Ok(returned),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &CStmt, regs: &mut Regs) -> SdgResult<Flow> {
        self.tick()?;
        match stmt {
            CStmt::Assign { slot, expr } => {
                let value = self.eval(expr, regs)?;
                regs[*slot as usize] = Some(value);
                Ok(Flow::Normal)
            }
            CStmt::Expr(expr) => {
                self.eval(expr, regs)?;
                Ok(Flow::Normal)
            }
            CStmt::If {
                cond,
                then_block,
                else_block,
            } => {
                if self.eval(cond, regs)?.truthy()? {
                    self.exec_block(then_block, regs)
                } else {
                    self.exec_block(else_block, regs)
                }
            }
            CStmt::While { cond, body } => {
                while self.eval(cond, regs)?.truthy()? {
                    self.tick()?;
                    match self.exec_block(body, regs)? {
                        Flow::Normal => {}
                        returned => return Ok(returned),
                    }
                }
                Ok(Flow::Normal)
            }
            CStmt::Foreach { slot, iter, body } => {
                // The evaluated list is already our own copy (the body may
                // reassign its source): move the items out of it.
                for item in self.eval(iter, regs)?.into_items()? {
                    self.tick()?;
                    regs[*slot as usize] = Some(item);
                    match self.exec_block(body, regs)? {
                        Flow::Normal => {}
                        returned => return Ok(returned),
                    }
                }
                Ok(Flow::Normal)
            }
            CStmt::Return(expr) => {
                let value = match expr {
                    Some(e) => self.eval(e, regs)?,
                    None => Value::Null,
                };
                Ok(Flow::Returned(value))
            }
            CStmt::Emit(expr) => {
                let value = self.eval(expr, regs)?;
                self.emits.push(value);
                Ok(Flow::Normal)
            }
        }
    }

    fn eval(&mut self, expr: &CExpr, regs: &mut Regs) -> SdgResult<Value> {
        self.tick()?;
        match expr {
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Slot(slot) => self.bound(regs, *slot).cloned(),
            CExpr::Binary { op, lhs, rhs } => {
                match op {
                    BinOp::And => {
                        return if self.eval(lhs, regs)?.truthy()? {
                            self.eval(rhs, regs)
                        } else {
                            Ok(Value::Bool(false))
                        }
                    }
                    BinOp::Or => {
                        return if self.eval(lhs, regs)?.truthy()? {
                            Ok(Value::Bool(true))
                        } else {
                            self.eval(rhs, regs)
                        }
                    }
                    _ => {}
                }
                let l = self.eval(lhs, regs)?;
                let r = self.eval(rhs, regs)?;
                eval_binop(*op, &l, &r)
            }
            CExpr::Unary { op, operand } => {
                let v = self.eval(operand, regs)?;
                eval_unop(*op, &v)
            }
            CExpr::Index { base, idx } => {
                if let CExpr::Slot(slot) = **base {
                    // Borrow the register instead of cloning the whole list.
                    // The base is still checked (and ticked) before the
                    // index is evaluated, as `eval(base)` would; expressions
                    // never write registers, so it is still bound after.
                    self.tick()?;
                    self.bound(regs, slot)?;
                    let i = self.eval(idx, regs)?.as_int()?;
                    return index_list(self.bound(regs, slot)?, i);
                }
                let b = self.eval(base, regs)?;
                let i = self.eval(idx, regs)?.as_int()?;
                index_list(&b, i)
            }
            CExpr::ListLit(items) => {
                let vals = items
                    .iter()
                    .map(|e| self.eval(e, regs))
                    .collect::<SdgResult<_>>()?;
                Ok(Value::List(vals))
            }
            CExpr::CallBuiltin { name, args } => {
                let base = self.push_args(args, regs)?;
                let result = eval_builtin(name, &self.args[base..]);
                self.args.truncate(base);
                result
            }
            CExpr::CallHelper { helper, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|e| self.eval(e, regs))
                    .collect::<SdgResult<_>>()?;
                self.call_helper(*helper, vals)
            }
            CExpr::StateCall {
                field,
                method,
                args,
            } => {
                let base = self.push_args(args, regs)?;
                let result = match self.state.as_deref_mut() {
                    Some(store) => eval_state_call(store, field, method, &self.args[base..]),
                    None => Err(missing_state(field)),
                };
                self.args.truncate(base);
                result
            }
        }
    }

    /// Evaluates `args` in order onto the argument stack; returns where
    /// they start. An error ends the run, and `run_compiled` clears the
    /// stack before the next.
    fn push_args(&mut self, args: &[CExpr], regs: &mut Regs) -> SdgResult<usize> {
        let base = self.args.len();
        for arg in args {
            let value = self.eval(arg, regs)?;
            self.args.push(value);
        }
        Ok(base)
    }

    fn call_helper(&mut self, helper: u32, args: Vec<Value>) -> SdgResult<Value> {
        let decl = &self.te.helpers[helper as usize];
        if decl.params as usize != args.len() {
            return Err(SdgError::Eval(format!(
                "`{}` expects {} arguments, got {}",
                decl.name,
                decl.params,
                args.len()
            )));
        }
        // Activation frames come from a reusable pool: helper calls on the
        // hot path allocate only until the pool matches the call depth.
        let mut frame = self.frame_pool.pop().unwrap_or_default();
        frame.clear();
        frame.resize(decl.frame_len as usize, None);
        for (slot, value) in args.into_iter().enumerate() {
            frame[slot] = Some(value);
        }
        let result = self.exec_block(&decl.body, &mut frame);
        self.frame_pool.push(frame);
        match result? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Ok(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::record;
    use sdg_ir::parser::parse_program;
    use sdg_ir::te::TeProgram;
    use sdg_state::store::{StateStore, StateType};
    use std::collections::HashMap;

    fn compile_of(src: &str, out_vars: &[&str]) -> CompiledTe {
        let prog = parse_program(src).unwrap();
        let entry = prog.entry_points()[0].clone();
        let helpers: HashMap<String, sdg_ir::ast::Method> = prog
            .methods
            .iter()
            .filter(|m| m.name != entry.name)
            .map(|m| (m.name.clone(), m.clone()))
            .collect();
        CompiledTe::compile(&TeProgram::new(
            entry.name.clone(),
            entry.body.clone(),
            Arc::new(helpers),
            out_vars.iter().map(|s| s.to_string()).collect(),
        ))
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let te = compile_of(
            "void f(int n) {\n\
               let acc = 0;\n\
               let i = 0;\n\
               while (i < n) { acc = acc + i; i = i + 1; }\n\
               if (acc >= 10) { emit acc; } else { emit 0 - acc; }\n\
             }",
            &[],
        );
        let mut scratch = Scratch::new();
        let fx = run_compiled(&te, &record! {"n" => Value::Int(5)}, None, &mut scratch).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(10)]);
        // The same scratch serves the next item (register reuse).
        let fx = run_compiled(&te, &record! {"n" => Value::Int(3)}, None, &mut scratch).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(-3)]);
    }

    #[test]
    fn forwards_project_live_variables() {
        let te = compile_of(
            "void f(int a, int b) { let x = a * 10; let unused = b; }",
            &["x"],
        );
        let mut scratch = Scratch::new();
        let fx = run_compiled(
            &te,
            &record! {"a" => Value::Int(3), "b" => Value::Int(1)},
            None,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fx.forwards.len(), 1);
        assert_eq!(fx.forwards[0].get("x"), Some(&Value::Int(30)));
        assert_eq!(fx.forwards[0].len(), 1);
    }

    #[test]
    fn early_return_suppresses_forwarding() {
        let te = compile_of(
            "void f(int a) { if (a < 0) { return; } let x = a; }",
            &["x"],
        );
        let mut scratch = Scratch::new();
        let fx = run_compiled(&te, &record! {"a" => Value::Int(-1)}, None, &mut scratch).unwrap();
        assert!(fx.forwards.is_empty());
        let fx = run_compiled(&te, &record! {"a" => Value::Int(1)}, None, &mut scratch).unwrap();
        assert_eq!(fx.forwards.len(), 1);
    }

    #[test]
    fn helper_calls_and_recursion() {
        let te = compile_of(
            "int fac(int x) { if (x <= 1) { return 1; } return x * fac(x - 1); }\n\
             void f(int a) { emit fac(a); }",
            &[],
        );
        let mut scratch = Scratch::new();
        let fx = run_compiled(&te, &record! {"a" => Value::Int(5)}, None, &mut scratch).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(120)]);
        // The frame pool holds the recursion depth's frames for reuse.
        assert!(!scratch.frame_pool.is_empty());
        let fx = run_compiled(&te, &record! {"a" => Value::Int(3)}, None, &mut scratch).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(6)]);
    }

    #[test]
    fn table_state_calls() {
        let te = compile_of(
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
        let mut scratch = Scratch::new();
        let fx = run_compiled(
            &te,
            &record! {"k" => Value::Int(1)},
            Some(&mut store),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fx.emits, vec![Value::Int(15), Value::Null, Value::Int(1)]);
    }

    #[test]
    fn unbound_variable_and_missing_live_var_errors_match_reference() {
        let te = compile_of("void f(int a) { emit a; }", &[]);
        let err = run_compiled(&te, &Record::new(), None, &mut Scratch::new()).unwrap_err();
        assert!(err.to_string().contains("unbound variable `a`"), "{err}");

        let te = compile_of("void f(int a) { if (a < 0) { let x = a; } }", &["x"]);
        let err = run_compiled(
            &te,
            &record! {"a" => Value::Int(1)},
            None,
            &mut Scratch::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("live variable `x`"), "{err}");
    }

    #[test]
    fn minimum_integer_division_wraps_like_the_reference() {
        let src = "void f(int a, int b) { emit a / b; emit a % b; emit -a; }";
        let input = record! {"a" => Value::Int(i64::MIN), "b" => Value::Int(-1)};
        let fx = run_compiled(&compile_of(src, &[]), &input, None, &mut Scratch::new()).unwrap();
        assert_eq!(
            fx.emits,
            vec![Value::Int(i64::MIN), Value::Int(0), Value::Int(i64::MIN)]
        );
        let prog = parse_program(src).unwrap();
        let te = TeProgram::new("f", prog.methods[0].body.clone(), Arc::default(), vec![]);
        assert_eq!(sdg_ir::eval::run_te(&te, &input, None).unwrap(), fx);
    }

    #[test]
    fn runaway_loop_hits_step_budget() {
        let te = compile_of("void f(int a) { while (true) { a = a + 1; } }", &[]);
        let err = run_compiled(
            &te,
            &record! {"a" => Value::Int(0)},
            None,
            &mut Scratch::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("step budget"), "{err}");
    }

    #[test]
    fn state_access_without_store_is_an_error() {
        let te = compile_of("Table t;\nvoid f(int k) { t.put(k, 1); }", &[]);
        let err = run_compiled(
            &te,
            &record! {"k" => Value::Int(1)},
            None,
            &mut Scratch::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("without a state element"), "{err}");
    }

    /// A program whose TE is both compiled and kept as the reference
    /// evaluator's `TeProgram`.
    fn both_of(src: &str, out_vars: &[&str]) -> (CompiledTe, TeProgram) {
        let prog = parse_program(src).unwrap();
        let te = TeProgram::new(
            "f",
            prog.methods[0].body.clone(),
            Arc::default(),
            out_vars.iter().map(|s| s.to_string()).collect(),
        );
        (CompiledTe::compile(&te), te)
    }

    #[test]
    fn cached_binding_matches_the_reference_across_shapes_and_tes() {
        // TE 0 reads a table; TEs 1 and 2 take the same input names, which
        // TE 2 interns at other slots (`z` comes first).
        let tes = [
            both_of(
                "Table t;\nvoid f(int k, int v) { t.put(k, v * 2); let x = t.get(k) + k; }",
                &["x"],
            ),
            both_of("void f(int a, int b) { emit a - b; }", &[]),
            both_of("void f(int a, int b) { let z = 10; emit b - a + z; }", &[]),
        ];
        // Names as the upstream TE interned them (shared `Arc`s), and
        // the same names freshly allocated per record.
        let (k, v): (Arc<str>, Arc<str>) = (Arc::from("k"), Arc::from("v"));
        let interned = |a: i64, b: i64| {
            let mut r = Record::new();
            r.push_unchecked(Arc::clone(&k), Value::Int(a));
            r.push_unchecked(Arc::clone(&v), Value::Int(b));
            r
        };
        let inputs: Vec<(usize, Record)> = vec![
            (0, interned(1, 10)),
            (0, interned(2, 20)),
            (0, record! {"v" => Value::Int(30), "k" => Value::Int(3)}),
            (0, record! {"k" => Value::Int(4), "v" => Value::Int(40)}),
            (1, record! {"a" => Value::Int(9), "b" => Value::Int(4)}),
            (0, interned(5, 50)),
            (1, record! {"b" => Value::Int(1), "a" => Value::Int(7)}),
            (2, record! {"b" => Value::Int(1), "a" => Value::Int(7)}),
            (1, record! {"b" => Value::Int(2), "a" => Value::Int(5)}),
            (0, record! {"k" => Value::Int(6)}),
            (
                0,
                record! {"k" => Value::Int(7), "v" => Value::Int(70), "z" => Value::Int(0)},
            ),
            (1, record! {"a" => Value::Int(2)}),
            (0, interned(8, 80)),
            (1, record! {"a" => Value::Int(3), "b" => Value::Int(3)}),
            (2, record! {"a" => Value::Int(3), "b" => Value::Int(3)}),
        ];
        let mut scratch = Scratch::new();
        let (mut store, mut reference) = (
            StateStore::new(StateType::Table),
            StateStore::new(StateType::Table),
        );
        for (which, input) in &inputs {
            let (te, te_ref) = &tes[*which];
            let (got, want) = if *which == 0 {
                (
                    run_compiled(te, input, Some(&mut store), &mut scratch),
                    sdg_ir::eval::run_te(te_ref, input, Some(&mut reference)),
                )
            } else {
                (
                    run_compiled(te, input, None, &mut scratch),
                    sdg_ir::eval::run_te(te_ref, input, None),
                )
            };
            match (got, want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{input:?}"),
                (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                (got, want) => panic!("{input:?}: compiled {got:?}, reference {want:?}"),
            }
        }
        assert_eq!(store.as_table().unwrap().len(), 7);
        let sorted = |s: &StateStore| {
            let mut entries = s.export_entries();
            entries.sort_by(|a, b| a.key.cmp(&b.key));
            format!("{entries:?}")
        };
        assert_eq!(sorted(&store), sorted(&reference));
    }

    #[test]
    fn nested_state_calls_share_the_argument_stack() {
        let (te, reference) = both_of(
            "Table t;\nvoid f(int k) { t.put(k, 1); t.put(t.get(k) + 1, t.inc(k, max(t.get(k), 2))); emit t.get(2); }",
            &[],
        );
        let input = record! {"k" => Value::Int(1)};
        let mut scratch = Scratch::new();
        let (mut a, mut b) = (
            StateStore::new(StateType::Table),
            StateStore::new(StateType::Table),
        );
        let got = run_compiled(&te, &input, Some(&mut a), &mut scratch).unwrap();
        assert_eq!(
            got,
            sdg_ir::eval::run_te(&reference, &input, Some(&mut b)).unwrap()
        );
        assert_eq!(got.emits, vec![Value::Int(3)]);
        assert!(scratch.args.is_empty());
    }

    #[test]
    fn unreferenced_input_fields_are_dropped_like_the_reference() {
        // Reference semantics: unreferenced inputs sit in the env but are
        // only forwarded when listed as output vars; here `extra` is
        // neither referenced nor live, so both engines drop it.
        let te = compile_of("void f(int a) { let x = a; }", &["x"]);
        let fx = run_compiled(
            &te,
            &record! {"a" => Value::Int(1), "extra" => Value::Int(9)},
            None,
            &mut Scratch::new(),
        )
        .unwrap();
        assert_eq!(fx.forwards[0].len(), 1);
        assert_eq!(fx.forwards[0].get("extra"), None);
    }
}
