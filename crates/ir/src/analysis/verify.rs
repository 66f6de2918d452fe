//! `sdg-verify` — the interprocedural effect & replay-safety verifier
//! (`SL03xx`).
//!
//! The runtime's striped cells, delta checkpoints and `@Partial` scale-in
//! *assume* properties that the paper's static analysis is supposed to
//! establish: key-local access to `@Partitioned` state, deterministic TE
//! replay, and sound `@Partial` merges. This pass proves (or refutes)
//! those properties and packages the verdicts as typed certificates that
//! the runtime consults before enabling an optimization:
//!
//! 1. **Key locality** — extends the access-key reaching analysis: every
//!    read/write of a `@Partitioned` SE must be reachable only through
//!    the partition key carried by the incoming dataflow item. The
//!    translator's segmenter treats two accesses through the same *name*
//!    as the same *key*, so a reassignment of the key variable between
//!    accesses silently produces a task element whose accesses no longer
//!    match the routed value — exactly what lock-striping relies on.
//!    `SL0301` flags key-mutating writes, `SL0302` cross-key reads.
//!
//! 2. **Determinism / replay safety** — an effect lattice over the
//!    slot-compiled form ([`CStmt`]/[`CExpr`]) classifies each entry
//!    method as `Pure`, `ReadsState`, `WritesState` or `NonDet`.
//!    Nondeterministic sources are order-sensitive folds over unordered
//!    `@Collection` gathers (`SL0303`) and unbarriered races through
//!    `@Global` (`SL0304`). Dedupe-watermark recovery replays inputs and
//!    relies on the replayed TE producing the same state transitions;
//!    a `NonDet` verdict revokes replay safety for the state elements the
//!    method touches, which disables their incremental checkpointing. The
//!    per-TE `deterministic` certificate is diagnostic: `sdgc verify`
//!    prints it, and no runtime gate reads it.
//!
//! 3. **Merge soundness** — the merge function gathering a `@Partial`
//!    value must read *all* replicas (`SL0305` otherwise) and combine
//!    them commutatively: structurally recognised folds are accepted
//!    directly, anything else is smoke-checked by evaluating the merge
//!    over permuted replica pairs (`SL0306` on a witnessed difference).
//!
//! All `SL03xx` diagnostics are **warnings**: an uncertified program
//! still deploys and runs correctly — unsharded, with full checkpoints —
//! it just runs without the optimizations its annotations promised.

use std::collections::{BTreeMap, HashMap, HashSet};

use sdg_common::value::Value;

use crate::analysis::access::{collect_method_accesses, state_method_info, AccessKind};
use crate::ast::{BinOp, Expr, ExprKind, FieldAnn, Method, Program, Span, Stmt, StmtKind};
use crate::builtins::eval_builtin;
use crate::diag::{Diagnostic, Diagnostics};
use crate::te::TeProgram;
use crate::te_compiled::{CExpr, CStmt, CompiledTe};

/// `SL0301`: a `@Partitioned` write whose key variable was reassigned
/// inside the task element — the write lands under a key that differs
/// from the value the dataflow routed on.
pub const KEY_MUTATED_WRITE: &str = "SL0301";

/// `SL0302`: a `@Partitioned` read reached through a reassigned key —
/// under striping the read consults the wrong stripe.
pub const CROSS_KEY_READ: &str = "SL0302";

/// `SL0303`: order-sensitive accumulation over an unordered `@Collection`
/// gather (replica arrival order is nondeterministic).
pub const ORDER_SENSITIVE_GATHER: &str = "SL0303";

/// `SL0304`: an unbarriered race through `@Global` — a broadcast write,
/// or a `@Global` read downstream of a write to the same `@Partial` SE
/// in the same pipeline.
pub const GLOBAL_RACE: &str = "SL0304";

/// `SL0305`: a `@Partial` merge that provably reads only one replica.
pub const MERGE_ONE_SIDED: &str = "SL0305";

/// `SL0306`: a `@Partial` merge witnessed non-commutative by symbolic
/// pair evaluation.
pub const MERGE_NONCOMMUTATIVE: &str = "SL0306";

/// The effect lattice: `Pure < ReadsState < WritesState < NonDet`.
///
/// Joined pointwise over the slot-compiled program; anything at or above
/// [`Effect::NonDet`] breaks replay-based recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// No state access, no nondeterminism.
    Pure,
    /// Reads state, writes none.
    ReadsState,
    /// Writes state deterministically.
    WritesState,
    /// Output or state transitions depend on scheduling/arrival order.
    NonDet,
}

impl Effect {
    /// Lattice join (least upper bound).
    pub fn join(self, other: Effect) -> Effect {
        self.max(other)
    }

    /// Human-readable lattice point name.
    pub fn as_str(self) -> &'static str {
        match self {
            Effect::Pure => "pure",
            Effect::ReadsState => "reads-state",
            Effect::WritesState => "writes-state",
            Effect::NonDet => "non-deterministic",
        }
    }
}

impl std::fmt::Display for Effect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The per-SE certificate: which optimizations this state element has
/// been proven safe for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeCertificate {
    /// State field name.
    pub field: String,
    /// Every access goes through the routed partition key (prerequisite
    /// for lock-striping). Vacuously `true` for non-partitioned SEs.
    pub key_local: bool,
    /// Every task element touching this SE replays deterministically
    /// (prerequisite for incremental checkpointing's replay recovery).
    pub replay_safe: bool,
    /// The `@Partial` merge reads all replicas and commutes. Vacuously
    /// `true` for non-partial SEs.
    pub merge_sound: bool,
    /// `SL03xx` codes recorded against this SE, deduplicated and sorted.
    pub violations: Vec<&'static str>,
}

impl SeCertificate {
    /// `true` when every dimension of the certificate holds.
    pub fn holds(&self) -> bool {
        self.key_local && self.replay_safe && self.merge_sound
    }
}

/// The per-TE certificate: the method/task's effect summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeCertificate {
    /// Entry-method (or task) name this certificate describes.
    pub subject: String,
    /// Effect-lattice verdict over the slot-compiled body.
    pub effect: Effect,
    /// `true` when replaying the method against the same inputs provably
    /// reproduces the same state transitions and outputs.
    pub deterministic: bool,
}

/// The verifier's output: certificates per SE and per entry method (the
/// translator adds per-task aliases), plus the span-carrying `SL03xx`
/// diagnostics behind every refused certificate.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Certificates keyed by state-field name.
    pub se_certs: BTreeMap<String, SeCertificate>,
    /// Certificates keyed by entry-method name; after translation also by
    /// task-element name (`{method}_{k}`).
    pub te_certs: BTreeMap<String, TeCertificate>,
    /// All `SL03xx` findings, in source order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// Looks up the certificate of state element `name`.
    pub fn se(&self, name: &str) -> Option<&SeCertificate> {
        self.se_certs.get(name)
    }

    /// Looks up the certificate of entry method or task `name`.
    pub fn te(&self, name: &str) -> Option<&TeCertificate> {
        self.te_certs.get(name)
    }

    /// `true` when SE `name` is certified key-local. Unknown SEs are
    /// uncertified (conservative).
    pub fn key_local(&self, name: &str) -> bool {
        self.se(name).is_some_and(|c| c.key_local)
    }

    /// `true` when SE `name` is certified safe for replay-based recovery
    /// of incremental checkpoints.
    pub fn replay_safe(&self, name: &str) -> bool {
        self.se(name)
            .is_some_and(|c| c.replay_safe && c.merge_sound)
    }

    /// `true` when TE or method `name` is certified deterministic.
    /// Unknown TEs are uncertified (conservative).
    pub fn deterministic(&self, name: &str) -> bool {
        self.te(name).is_some_and(|c| c.deterministic)
    }

    /// `true` when no `SL03xx` diagnostic was produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs the whole verifier over `program` (which should already have
/// passed [`crate::analysis::lint_program`] without errors).
pub fn verify_program(program: &Program) -> VerifyReport {
    let mut v = Verifier::new(program);
    for method in program.entry_points() {
        v.verify_method(method);
    }
    v.finish()
}

// ---------------------------------------------------------------------
// The verifier proper.
// ---------------------------------------------------------------------

struct Verifier<'p> {
    program: &'p Program,
    diags: Diagnostics,
    /// Codes recorded against each state field.
    se_violations: HashMap<String, HashSet<&'static str>>,
    /// `@Partial` fields whose merge could not be certified (no
    /// diagnostic, but the certificate is refused).
    merge_uncertified: HashSet<String>,
    /// Methods carrying a nondeterminism finding.
    nondet_methods: HashSet<String>,
    /// (method, accessed fields) pairs, to scope SE replay certificates.
    method_fields: HashMap<String, HashSet<String>>,
    /// Effect verdict per entry method.
    method_effects: BTreeMap<String, Effect>,
}

impl<'p> Verifier<'p> {
    fn new(program: &'p Program) -> Self {
        Verifier {
            program,
            diags: Diagnostics::new(),
            se_violations: HashMap::new(),
            merge_uncertified: HashSet::new(),
            nondet_methods: HashSet::new(),
            method_fields: HashMap::new(),
            method_effects: BTreeMap::new(),
        }
    }

    fn record(&mut self, field: &str, method: &str, diag: Diagnostic) {
        self.se_violations
            .entry(field.to_owned())
            .or_default()
            .insert(diag.code);
        if matches!(
            diag.code,
            ORDER_SENSITIVE_GATHER | GLOBAL_RACE | MERGE_NONCOMMUTATIVE
        ) {
            self.nondet_methods.insert(method.to_owned());
        }
        self.diags.push(diag);
    }

    fn verify_method(&mut self, method: &Method) {
        // The SL01xx access diagnostics were already reported by the lint
        // pipeline; the verifier only wants the resolved accesses.
        let mut scratch = Diagnostics::new();
        let accesses = collect_method_accesses(self.program, method, &mut scratch);
        let fields: HashSet<String> = accesses
            .iter()
            .flat_map(|sa| sa.accesses.iter().map(|a| a.field.clone()))
            .collect();
        self.method_fields
            .insert(method.name.clone(), fields.clone());

        self.check_key_locality(method, &accesses);
        self.check_global_races(method);
        self.check_gathers(method);

        let effect = self.method_effect(method);
        self.method_effects.insert(method.name.clone(), effect);
        if effect == Effect::NonDet {
            self.nondet_methods.insert(method.name.clone());
        }
    }

    // -- (1) key locality ---------------------------------------------

    /// Replays the segmenter's walk over the top-level statements,
    /// additionally tracking every variable assigned since the current
    /// segment opened. A keyed access whose key variable is in that set
    /// executes under a value that differs from the one the dataflow
    /// routed on.
    fn check_key_locality(
        &mut self,
        method: &Method,
        accesses: &[crate::analysis::access::StmtAccesses],
    ) {
        // Current partitioned segment context: (field, key, span of the
        // access that opened it).
        let mut ctx: Option<(String, String, Span)> = None;
        let mut assigned: HashSet<String> = HashSet::new();

        for (i, stmt) in method.body.iter().enumerate() {
            // A `@Collection` gather always opens a new TE.
            if consumes_collection(stmt) {
                ctx = None;
                assigned.clear();
            }
            for access in accesses
                .get(i)
                .map(|sa| sa.accesses.as_slice())
                .unwrap_or(&[])
            {
                match &access.kind {
                    AccessKind::Partitioned { key_var } => {
                        let same_segment = ctx
                            .as_ref()
                            .is_some_and(|(f, k, _)| f == &access.field && k == key_var);
                        if same_segment {
                            if assigned.contains(key_var) {
                                let (code, what) = if access.is_write {
                                    (KEY_MUTATED_WRITE, "write to")
                                } else {
                                    (CROSS_KEY_READ, "read of")
                                };
                                let opened = ctx.as_ref().expect("same_segment").2;
                                let diag = Diagnostic::warning(
                                    code,
                                    access.span,
                                    format!(
                                        "{what} `@Partitioned` state `{}` through key `{key_var}` \
                                         after the key was reassigned inside the task element",
                                        access.field
                                    ),
                                )
                                .with_note(format!(
                                    "the task element's input is routed on the value `{key_var}` \
                                     had at the access on line {}; this access uses the new value, \
                                     so it is not key-local and the state element cannot be striped",
                                    opened.line
                                ));
                                self.record(&access.field.clone(), &method.name.clone(), diag);
                            }
                        } else {
                            // A new key or field cuts a fresh segment whose
                            // input edge re-dispatches on the current value.
                            ctx = Some((access.field.clone(), key_var.clone(), access.span));
                            assigned.clear();
                        }
                    }
                    // Any other access kind changes the segment context.
                    _ => {
                        ctx = None;
                        assigned.clear();
                    }
                }
            }
            // The statement's own definitions happen after its reads.
            collect_assigned(stmt, &mut assigned);
        }
    }

    // -- (2) determinism: @Global races --------------------------------

    /// Flags unbarriered races through `@Global`: broadcast writes, and
    /// `@Global` reads downstream of a same-method write to the SE.
    fn check_global_races(&mut self, method: &Method) {
        let mut written_partial: HashMap<String, Span> = HashMap::new();
        let mut findings: Vec<(String, Diagnostic)> = Vec::new();
        for stmt in &method.body {
            visit_state_calls(stmt, &mut |field, accessor, global, span| {
                let Some(decl) = self.program.field(field) else {
                    return;
                };
                let Some(info) = state_method_info(decl.ty, accessor) else {
                    return;
                };
                if global {
                    if info.is_write {
                        findings.push((
                            field.to_owned(),
                            Diagnostic::warning(
                                GLOBAL_RACE,
                                span,
                                format!(
                                    "`@Global {field}.{accessor}` broadcasts a write to every \
                                     replica of `{field}`"
                                ),
                            )
                            .with_note(
                                "broadcast writes race with per-replica writes from other task \
                                 elements; replaying the pipeline can interleave them differently"
                                    .to_owned(),
                            ),
                        ));
                    } else if let Some(write_span) = written_partial.get(field) {
                        findings.push((
                            field.to_owned(),
                            Diagnostic::warning(
                                GLOBAL_RACE,
                                span,
                                format!(
                                    "`@Global` read of `{field}` races with the write on line {} \
                                     of the same pipeline",
                                    write_span.line
                                ),
                            )
                            .with_note(
                                "the upstream write lands on one arbitrary replica with no \
                                 barrier before the broadcast read; whether the read observes \
                                 it depends on scheduling, so replay is not deterministic"
                                    .to_owned(),
                            ),
                        ));
                    }
                } else if info.is_write && decl.ann == FieldAnn::Partial {
                    written_partial.entry(field.to_owned()).or_insert(span);
                }
            });
        }
        for (field, diag) in findings {
            self.record(&field, &method.name.clone(), diag);
        }
    }

    // -- (2)+(3) gathers: order sensitivity and merge soundness --------

    /// Analyses every `@Collection` consumption in `method`: the gathered
    /// replicas arrive in nondeterministic order, so the consuming merge
    /// must read them all and combine them commutatively.
    fn check_gathers(&mut self, method: &Method) {
        let mut consumptions: Vec<(String, String, Span)> = Vec::new();
        for stmt in &method.body {
            visit_exprs_deep(stmt, &mut |e| {
                if let ExprKind::Call { callee, args } = &e.kind {
                    for arg in args {
                        if let ExprKind::Collection(var) = &arg.kind {
                            consumptions.push((callee.clone(), var.clone(), e.span));
                        }
                    }
                }
            });
        }
        for (callee, var, call_span) in consumptions {
            let Some(field) = self.partial_origin(method, &var) else {
                continue;
            };
            let verdict = if let Some(helper) = self
                .program
                .method(&callee)
                .filter(|m| m.params.iter().any(|p| p.is_collection))
                .cloned()
            {
                self.classify_merge_helper(&helper)
            } else {
                classify_merge_builtin(&callee, call_span)
            };
            match verdict {
                MergeVerdict::Commutative => {}
                MergeVerdict::Unknown => {
                    self.merge_uncertified.insert(field.clone());
                }
                MergeVerdict::OrderSensitive { span, end, detail } => {
                    let mut diag = Diagnostic::warning(
                        ORDER_SENSITIVE_GATHER,
                        span,
                        format!("merge of `@Collection {var}` is order-sensitive: {detail}"),
                    )
                    .with_note(format!(
                        "the all-to-one gather delivers the replicas of `{field}` in \
                         nondeterministic arrival order, so the merged result can differ \
                         between runs and between original and replayed execution"
                    ));
                    if let Some(end) = end {
                        diag = diag.with_end(end);
                    }
                    self.record(&field, &method.name.clone(), diag);
                }
                MergeVerdict::OneSided { span, detail } => {
                    let diag = Diagnostic::warning(
                        MERGE_ONE_SIDED,
                        span,
                        format!("merge of `@Collection {var}` reads only one replica: {detail}"),
                    )
                    .with_note(format!(
                        "a sound merge must combine every gathered replica of `{field}`; \
                         selecting a single element silently drops the others' updates"
                    ));
                    self.record(&field, &method.name.clone(), diag);
                }
                MergeVerdict::NonCommutative { span, witness } => {
                    let diag = Diagnostic::warning(
                        MERGE_NONCOMMUTATIVE,
                        span,
                        format!(
                            "merge function `{callee}` is not commutative: \
                             merging replicas in opposite orders produced {witness}"
                        ),
                    )
                    .with_note(
                        "witnessed by symbolic pair evaluation; a `@Partial` merge must \
                         produce the same result for every replica arrival order"
                            .to_owned(),
                    );
                    self.record(&field, &method.name.clone(), diag);
                }
            }
        }
    }

    /// Maps a gathered variable back to the `@Partial` field it came
    /// from: `@Partial let var = @Global field....`.
    fn partial_origin(&self, method: &Method, var: &str) -> Option<String> {
        for stmt in &method.body {
            if let StmtKind::Let {
                name,
                expr,
                is_partial: true,
            } = &stmt.kind
            {
                if name == var {
                    let mut field = None;
                    expr.walk(&mut |e| {
                        if let ExprKind::StateCall {
                            field: f,
                            global: true,
                            ..
                        } = &e.kind
                        {
                            field = Some(f.clone());
                        }
                    });
                    return field;
                }
            }
        }
        None
    }

    /// Classifies the merge helper consuming a `@Collection` parameter.
    fn classify_merge_helper(&mut self, helper: &Method) -> MergeVerdict {
        let coll: Vec<&str> = helper
            .params
            .iter()
            .filter(|p| p.is_collection)
            .map(|p| p.name.as_str())
            .collect();
        let mut folds: Vec<MergeVerdict> = Vec::new();
        let mut reads_all = false;
        let mut one_sided: Option<(Span, String)> = None;
        for stmt in &helper.body {
            classify_fold_stmts(
                std::slice::from_ref(stmt),
                &coll,
                &mut folds,
                &mut reads_all,
            );
        }
        // A helper that never iterates the collection: find selector uses.
        if !reads_all {
            for stmt in &helper.body {
                visit_exprs_deep(stmt, &mut |e| {
                    let selected = match &e.kind {
                        ExprKind::Call { callee, args }
                            if matches!(callee.as_str(), "first" | "last" | "get_at") =>
                        {
                            args.iter().any(|a| is_var_of(a, &coll))
                        }
                        ExprKind::Index { base, .. } => is_var_of(base, &coll),
                        _ => false,
                    };
                    if selected && one_sided.is_none() {
                        one_sided = Some((
                            e.span,
                            "the helper selects a single element instead of folding over \
                             the whole collection"
                                .to_owned(),
                        ));
                    }
                });
            }
            if let Some((span, detail)) = one_sided {
                return MergeVerdict::OneSided { span, detail };
            }
        }
        if let Some(bad) = folds
            .iter()
            .find(|v| matches!(v, MergeVerdict::OrderSensitive { .. }))
        {
            return bad.clone();
        }
        if reads_all
            && !folds.is_empty()
            && folds.iter().all(|v| matches!(v, MergeVerdict::Commutative))
        {
            return MergeVerdict::Commutative;
        }
        // Structure inconclusive: smoke-check by evaluating the helper on
        // permuted replica pairs.
        match commutativity_smoke_check(self.program, helper) {
            Some(Ok(())) => MergeVerdict::Commutative,
            Some(Err(witness)) => MergeVerdict::NonCommutative {
                span: helper.span,
                witness,
            },
            None => MergeVerdict::Unknown,
        }
    }

    // -- the effect lattice over the slot-compiled form ----------------

    /// Compiles the whole method body as one TE and folds the effect
    /// lattice over its `CStmt`/`CExpr` tree, interprocedurally through
    /// compiled helpers.
    fn method_effect(&self, method: &Method) -> Effect {
        let entry_names: HashSet<&str> = self
            .program
            .entry_points()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        let helpers: HashMap<String, Method> = self
            .program
            .methods
            .iter()
            .filter(|m| !entry_names.contains(m.name.as_str()))
            .map(|m| (m.name.clone(), m.clone()))
            .collect();
        let te = TeProgram::new(
            method.name.clone(),
            method.body.clone(),
            std::sync::Arc::new(helpers),
            Vec::new(),
        );
        let compiled = CompiledTe::compile(&te);

        // Slots holding gathered collections in the TE frame.
        let nondet_slots: HashSet<u32> = gathered_vars(method)
            .iter()
            .filter_map(|v| compiled.symbols.lookup(v))
            .collect();
        effect_of_compiled(&compiled, &nondet_slots, &|field, accessor| {
            let decl = self.program.field(field)?;
            Some(state_method_info(decl.ty, accessor)?.is_write)
        })
    }

    fn finish(mut self) -> VerifyReport {
        let mut se_certs = BTreeMap::new();
        for field in &self.program.fields {
            let codes = self.se_violations.remove(&field.name).unwrap_or_default();
            let mut violations: Vec<&'static str> = codes.iter().copied().collect();
            violations.sort_unstable();
            let key_local = !codes.contains(KEY_MUTATED_WRITE) && !codes.contains(CROSS_KEY_READ);
            let merge_sound = field.ann != FieldAnn::Partial
                || (!codes.contains(MERGE_ONE_SIDED)
                    && !codes.contains(MERGE_NONCOMMUTATIVE)
                    && !codes.contains(ORDER_SENSITIVE_GATHER)
                    && !self.merge_uncertified.contains(&field.name));
            // Replay safety needs every method touching the SE to be
            // deterministic, and no nondeterministic transition recorded
            // against the SE itself.
            let touching_ok = self.method_fields.iter().all(|(m, fields)| {
                !fields.contains(&field.name) || !self.nondet_methods.contains(m)
            });
            let replay_safe = touching_ok
                && !codes.contains(ORDER_SENSITIVE_GATHER)
                && !codes.contains(GLOBAL_RACE);
            se_certs.insert(
                field.name.clone(),
                SeCertificate {
                    field: field.name.clone(),
                    key_local,
                    replay_safe,
                    merge_sound,
                    violations,
                },
            );
        }
        let te_certs = self
            .method_effects
            .iter()
            .map(|(name, &effect)| {
                (
                    name.clone(),
                    TeCertificate {
                        subject: name.clone(),
                        effect,
                        deterministic: effect != Effect::NonDet
                            && !self.nondet_methods.contains(name),
                    },
                )
            })
            .collect();
        VerifyReport {
            se_certs,
            te_certs,
            diagnostics: self.diags.into_sorted_vec(),
        }
    }
}

// ---------------------------------------------------------------------
// Merge classification.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MergeVerdict {
    Commutative,
    Unknown,
    OrderSensitive {
        span: Span,
        end: Option<Span>,
        detail: String,
    },
    OneSided {
        span: Span,
        detail: String,
    },
    NonCommutative {
        span: Span,
        witness: String,
    },
}

/// Builtins whose result over a list does not depend on element order.
const ORDER_FREE_BUILTINS: &[&str] = &["sum", "len"];
/// Builtins selecting a single element of a list.
const SELECTOR_BUILTINS: &[&str] = &["first", "last", "get_at"];
/// Commutative, associative two-argument combiners.
const COMMUTATIVE_COMBINERS: &[&str] = &["vec_add", "pairs_add", "min", "max"];
/// Order-preserving constructors: folding with these bakes arrival order
/// into the result.
const ORDER_PRESERVING: &[&str] = &["append", "concat", "pair"];

fn classify_merge_builtin(callee: &str, span: Span) -> MergeVerdict {
    if ORDER_FREE_BUILTINS.contains(&callee) {
        MergeVerdict::Commutative
    } else if SELECTOR_BUILTINS.contains(&callee) {
        MergeVerdict::OneSided {
            span,
            detail: format!("`{callee}` selects a single gathered element"),
        }
    } else {
        MergeVerdict::Unknown
    }
}

/// Walks `stmts` looking for `foreach (x : coll) {...}` folds and
/// classifies each accumulator update in the loop body.
fn classify_fold_stmts(
    stmts: &[Stmt],
    coll: &[&str],
    folds: &mut Vec<MergeVerdict>,
    reads_all: &mut bool,
) {
    for stmt in stmts {
        if let StmtKind::Foreach { var, iter, body } = &stmt.kind {
            if is_var_of(iter, coll) {
                *reads_all = true;
                classify_fold_body(stmt.span, var, body, folds);
                continue;
            }
        }
        for block in stmt.child_blocks() {
            classify_fold_stmts(block, coll, folds, reads_all);
        }
    }
}

fn classify_fold_body(loop_span: Span, elem: &str, body: &[Stmt], folds: &mut Vec<MergeVerdict>) {
    for stmt in body {
        if let StmtKind::Assign { name, expr } | StmtKind::Let { name, expr, .. } = &stmt.kind {
            if let Some(verdict) = classify_update(loop_span, stmt.span, name, elem, expr) {
                folds.push(verdict);
            }
        }
        for block in stmt.child_blocks() {
            classify_fold_body(loop_span, elem, block, folds);
        }
    }
}

/// Classifies one `acc = f(acc, x)` accumulator update inside a gather
/// fold. Returns `None` for assignments not involving the accumulator.
fn classify_update(
    loop_span: Span,
    stmt_span: Span,
    acc: &str,
    _elem: &str,
    expr: &Expr,
) -> Option<MergeVerdict> {
    let mentions_acc = {
        let mut found = false;
        expr.walk(&mut |e| {
            if matches!(&e.kind, ExprKind::Var(v) if v == acc) {
                found = true;
            }
        });
        found
    };
    if !mentions_acc {
        return None;
    }
    match &expr.kind {
        ExprKind::Call { callee, args } if COMMUTATIVE_COMBINERS.contains(&callee.as_str()) => {
            let acc_is_arg = args
                .iter()
                .any(|a| matches!(&a.kind, ExprKind::Var(v) if v == acc));
            if acc_is_arg {
                Some(MergeVerdict::Commutative)
            } else {
                Some(MergeVerdict::Unknown)
            }
        }
        ExprKind::Call { callee, .. } if ORDER_PRESERVING.contains(&callee.as_str()) => {
            Some(MergeVerdict::OrderSensitive {
                span: loop_span,
                end: Some(stmt_span),
                detail: format!(
                    "the fold accumulates with `{callee}`, which preserves arrival order"
                ),
            })
        }
        ExprKind::Binary {
            op: BinOp::Add | BinOp::Mul,
            ..
        } => {
            // `acc = acc + x` / `acc = x * acc`: commutative only in the
            // plain two-operand form.
            match &expr.kind {
                ExprKind::Binary { lhs, rhs, .. }
                    if matches!(&lhs.kind, ExprKind::Var(v) if v == acc)
                        || matches!(&rhs.kind, ExprKind::Var(v) if v == acc) =>
                {
                    Some(MergeVerdict::Commutative)
                }
                _ => Some(MergeVerdict::Unknown),
            }
        }
        _ => Some(MergeVerdict::Unknown),
    }
}

fn is_var_of(expr: &Expr, names: &[&str]) -> bool {
    matches!(&expr.kind, ExprKind::Var(v) | ExprKind::Collection(v) if names.contains(&v.as_str()))
}

// ---------------------------------------------------------------------
// Commutativity smoke-check: evaluate merge([a, b]) vs merge([b, a]).
// ---------------------------------------------------------------------

/// Sample replica pairs, one per plausible element shape. The first shape
/// the helper evaluates successfully on decides the verdict.
fn sample_pairs() -> Vec<(Value, Value)> {
    vec![
        (Value::Int(3), Value::Int(7)),
        (Value::Float(1.5), Value::Float(2.25)),
        (
            Value::List(vec![Value::Float(1.0), Value::Float(2.0)]),
            Value::List(vec![Value::Float(0.5), Value::Float(3.0)]),
        ),
        (
            Value::List(vec![
                Value::List(vec![Value::Int(0), Value::Float(1.0)]),
                Value::List(vec![Value::Int(2), Value::Float(2.0)]),
            ]),
            Value::List(vec![
                Value::List(vec![Value::Int(1), Value::Float(0.5)]),
                Value::List(vec![Value::Int(2), Value::Float(4.0)]),
            ]),
        ),
    ]
}

/// Evaluates `helper` over permuted two-replica collections.
///
/// Returns `Some(Ok(()))` when at least one sample shape evaluated on
/// both orders and every such shape agreed, `Some(Err(witness))` on the
/// first disagreement, and `None` when no shape evaluated (the check is
/// inconclusive).
fn commutativity_smoke_check(program: &Program, helper: &Method) -> Option<Result<(), String>> {
    if helper.params.len() != 1 || !helper.params[0].is_collection {
        return None;
    }
    let mut evaluated = false;
    for (a, b) in sample_pairs() {
        let fwd = eval_helper_call(
            program,
            helper,
            vec![Value::List(vec![a.clone(), b.clone()])],
        );
        let rev = eval_helper_call(program, helper, vec![Value::List(vec![b, a])]);
        if let (Some(x), Some(y)) = (fwd, rev) {
            evaluated = true;
            if x != y {
                return Some(Err(format!("`{x}` vs `{y}`")));
            }
        }
    }
    if evaluated {
        Some(Ok(()))
    } else {
        None
    }
}

/// A bounded, state-free big-step evaluator over the AST, used only for
/// the commutativity smoke-check. Any construct it cannot model (state
/// access, emit, unbound variables) aborts the evaluation.
struct SymEval<'p> {
    program: &'p Program,
    fuel: u32,
}

enum Flow {
    Normal,
    Returned(Value),
}

fn eval_helper_call(program: &Program, helper: &Method, args: Vec<Value>) -> Option<Value> {
    let mut ev = SymEval {
        program,
        fuel: 20_000,
    };
    ev.call(helper, args)
}

impl SymEval<'_> {
    fn tick(&mut self) -> Option<()> {
        self.fuel = self.fuel.checked_sub(1)?;
        Some(())
    }

    fn call(&mut self, method: &Method, args: Vec<Value>) -> Option<Value> {
        if method.params.len() != args.len() {
            return None;
        }
        let mut env: HashMap<String, Value> = method
            .params
            .iter()
            .map(|p| p.name.clone())
            .zip(args)
            .collect();
        match self.run(&method.body, &mut env)? {
            Flow::Returned(v) => Some(v),
            Flow::Normal => Some(Value::Null),
        }
    }

    fn run(&mut self, stmts: &[Stmt], env: &mut HashMap<String, Value>) -> Option<Flow> {
        for stmt in stmts {
            self.tick()?;
            match &stmt.kind {
                StmtKind::Let { name, expr, .. } | StmtKind::Assign { name, expr } => {
                    let v = self.eval(expr, env)?;
                    env.insert(name.clone(), v);
                }
                StmtKind::Expr(e) => {
                    self.eval(e, env)?;
                }
                StmtKind::If {
                    cond,
                    then_block,
                    else_block,
                } => {
                    let c = self.eval(cond, env)?.truthy().ok()?;
                    let block = if c { then_block } else { else_block };
                    if let Flow::Returned(v) = self.run(block, env)? {
                        return Some(Flow::Returned(v));
                    }
                }
                StmtKind::While { cond, body } => {
                    while self.eval(cond, env)?.truthy().ok()? {
                        self.tick()?;
                        if let Flow::Returned(v) = self.run(body, env)? {
                            return Some(Flow::Returned(v));
                        }
                    }
                }
                StmtKind::Foreach { var, iter, body } => {
                    let list = self.eval(iter, env)?;
                    let items = list.as_list().ok()?.to_vec();
                    for item in items {
                        env.insert(var.clone(), item);
                        if let Flow::Returned(v) = self.run(body, env)? {
                            return Some(Flow::Returned(v));
                        }
                    }
                }
                StmtKind::Return(expr) => {
                    let v = match expr {
                        Some(e) => self.eval(e, env)?,
                        None => Value::Null,
                    };
                    return Some(Flow::Returned(v));
                }
                // Emission and state effects are outside the smoke-check's
                // model.
                StmtKind::Emit(_) => return None,
            }
        }
        Some(Flow::Normal)
    }

    fn eval(&mut self, expr: &Expr, env: &mut HashMap<String, Value>) -> Option<Value> {
        self.tick()?;
        match &expr.kind {
            ExprKind::Int(v) => Some(Value::Int(*v)),
            ExprKind::Float(v) => Some(Value::Float(*v)),
            ExprKind::Str(s) => Some(Value::Str(s.clone())),
            ExprKind::Bool(b) => Some(Value::Bool(*b)),
            ExprKind::Null => Some(Value::Null),
            ExprKind::Var(name) | ExprKind::Collection(name) => env.get(name).cloned(),
            ExprKind::Binary { op, lhs, rhs } => {
                match op {
                    BinOp::And => {
                        return if self.eval(lhs, env)?.truthy().ok()? {
                            self.eval(rhs, env)
                        } else {
                            Some(Value::Bool(false))
                        }
                    }
                    BinOp::Or => {
                        return if self.eval(lhs, env)?.truthy().ok()? {
                            Some(Value::Bool(true))
                        } else {
                            self.eval(rhs, env)
                        }
                    }
                    _ => {}
                }
                let l = self.eval(lhs, env)?;
                let r = self.eval(rhs, env)?;
                eval_binop_value(*op, &l, &r)
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand, env)?;
                match op {
                    crate::ast::UnOp::Neg => match v {
                        Value::Int(i) => Some(Value::Int(-i)),
                        Value::Float(x) => Some(Value::Float(-x)),
                        _ => None,
                    },
                    crate::ast::UnOp::Not => Some(Value::Bool(!v.truthy().ok()?)),
                }
            }
            ExprKind::Index { base, idx } => {
                let b = self.eval(base, env)?;
                let i = self.eval(idx, env)?.as_int().ok()?;
                let list = b.as_list().ok()?;
                list.get(usize::try_from(i).ok()?).cloned()
            }
            ExprKind::ListLit(items) => {
                let vals: Option<Vec<Value>> = items.iter().map(|e| self.eval(e, env)).collect();
                Some(Value::List(vals?))
            }
            ExprKind::Call { callee, args } => {
                let vals: Option<Vec<Value>> = args.iter().map(|e| self.eval(e, env)).collect();
                let vals = vals?;
                if let Some(method) = self.program.method(callee).cloned() {
                    self.call(&method, vals)
                } else {
                    eval_builtin(callee, &vals).ok()
                }
            }
            ExprKind::StateCall { .. } => None,
        }
    }
}

/// Mirrors the runtime interpreter's binary-operator semantics closely
/// enough for the smoke-check (wrapping integer arithmetic, float
/// promotion, string concatenation on `+`).
fn eval_binop_value(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    use BinOp::*;
    let both_int = matches!((l, r), (Value::Int(_), Value::Int(_)));
    match op {
        Add => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.wrapping_add(*b))),
            (Value::Str(a), Value::Str(b)) => Some(Value::str(format!("{a}{b}"))),
            _ => Some(Value::Float(l.as_float().ok()? + r.as_float().ok()?)),
        },
        Sub if both_int => Some(Value::Int(l.as_int().ok()?.wrapping_sub(r.as_int().ok()?))),
        Sub => Some(Value::Float(l.as_float().ok()? - r.as_float().ok()?)),
        Mul if both_int => Some(Value::Int(l.as_int().ok()?.wrapping_mul(r.as_int().ok()?))),
        Mul => Some(Value::Float(l.as_float().ok()? * r.as_float().ok()?)),
        Div if both_int => {
            let b = r.as_int().ok()?;
            (b != 0).then(|| Value::Int(l.as_int().unwrap() / b))
        }
        Div => Some(Value::Float(l.as_float().ok()? / r.as_float().ok()?)),
        Rem => {
            if !both_int {
                return None;
            }
            let b = r.as_int().ok()?;
            (b != 0).then(|| Value::Int(l.as_int().unwrap() % b))
        }
        Eq => Some(Value::Bool(l == r)),
        Ne => Some(Value::Bool(l != r)),
        Lt | Le | Gt | Ge => {
            let ord = match (l, r) {
                (Value::Int(a), Value::Int(b)) => a.partial_cmp(b),
                _ => l.as_float().ok()?.partial_cmp(&r.as_float().ok()?),
            }?;
            let b = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!("filtered above"),
            };
            Some(Value::Bool(b))
        }
        And | Or => None,
    }
}

// ---------------------------------------------------------------------
// The effect lattice over CStmt/CExpr.
// ---------------------------------------------------------------------

/// Folds the effect lattice over a compiled TE, interprocedurally
/// through its compiled helpers.
///
/// `is_write(field, accessor)` resolves a state call against the
/// program's field declarations; unknown accesses join to
/// [`Effect::WritesState`] (conservative). `nondet_slots` are the TE
/// frame slots bound by unordered `@Collection` gathers: a fold over one
/// of them with an order-sensitive accumulator joins to
/// [`Effect::NonDet`].
pub fn effect_of_compiled(
    te: &CompiledTe,
    nondet_slots: &HashSet<u32>,
    is_write: &dyn Fn(&str, &str) -> Option<bool>,
) -> Effect {
    // Helper effects, memoised bottom-up. Helper bodies are state-free by
    // SL0122, but the lattice re-derives that instead of assuming it. A
    // helper's own `@Collection` parameter (if any) is its slot 0..params;
    // gathered order only matters where a fold is order-sensitive, which
    // `effect_of_stmts` detects structurally.
    let mut helper_effects: Vec<Option<Effect>> = vec![None; te.helpers.len()];
    for idx in 0..te.helpers.len() {
        helper_effect(te, idx, &mut helper_effects, is_write);
    }
    let helper_fx: Vec<Effect> = helper_effects
        .into_iter()
        .map(|e| e.unwrap_or(Effect::NonDet))
        .collect();
    effect_of_stmts(&te.body, nondet_slots, &helper_fx, is_write)
}

fn helper_effect(
    te: &CompiledTe,
    idx: usize,
    memo: &mut [Option<Effect>],
    is_write: &dyn Fn(&str, &str) -> Option<bool>,
) -> Effect {
    if let Some(e) = memo[idx] {
        return e;
    }
    // Seed with NonDet to make accidental recursion (rejected upstream by
    // SL0126, but the lattice should not hang on unchecked input)
    // conservative instead of divergent.
    memo[idx] = Some(Effect::NonDet);
    let fx: Vec<Effect> = memo.iter().map(|e| e.unwrap_or(Effect::NonDet)).collect();
    let e = effect_of_stmts(&te.helpers[idx].body, &HashSet::new(), &fx, is_write);
    memo[idx] = Some(e);
    e
}

fn effect_of_stmts(
    stmts: &[CStmt],
    nondet_slots: &HashSet<u32>,
    helper_fx: &[Effect],
    is_write: &dyn Fn(&str, &str) -> Option<bool>,
) -> Effect {
    let mut e = Effect::Pure;
    for stmt in stmts {
        e = e.join(effect_of_stmt(stmt, nondet_slots, helper_fx, is_write));
    }
    e
}

fn effect_of_stmt(
    stmt: &CStmt,
    nondet_slots: &HashSet<u32>,
    helper_fx: &[Effect],
    is_write: &dyn Fn(&str, &str) -> Option<bool>,
) -> Effect {
    match stmt {
        CStmt::Assign { expr, .. } | CStmt::Expr(expr) | CStmt::Emit(expr) => {
            effect_of_cexpr(expr, helper_fx, is_write)
        }
        CStmt::Return(expr) => expr
            .as_ref()
            .map(|e| effect_of_cexpr(e, helper_fx, is_write))
            .unwrap_or(Effect::Pure),
        CStmt::If {
            cond,
            then_block,
            else_block,
        } => effect_of_cexpr(cond, helper_fx, is_write)
            .join(effect_of_stmts(
                then_block,
                nondet_slots,
                helper_fx,
                is_write,
            ))
            .join(effect_of_stmts(
                else_block,
                nondet_slots,
                helper_fx,
                is_write,
            )),
        CStmt::While { cond, body } => effect_of_cexpr(cond, helper_fx, is_write)
            .join(effect_of_stmts(body, nondet_slots, helper_fx, is_write)),
        CStmt::Foreach { iter, body, .. } => {
            let mut e = effect_of_cexpr(iter, helper_fx, is_write).join(effect_of_stmts(
                body,
                nondet_slots,
                helper_fx,
                is_write,
            ));
            if reads_nondet_slot(iter, nondet_slots) && order_sensitive_body(body) {
                e = e.join(Effect::NonDet);
            }
            e
        }
    }
}

fn effect_of_cexpr(
    expr: &CExpr,
    helper_fx: &[Effect],
    is_write: &dyn Fn(&str, &str) -> Option<bool>,
) -> Effect {
    match expr {
        CExpr::Const(_) | CExpr::Slot(_) => Effect::Pure,
        CExpr::Unary { operand, .. } => effect_of_cexpr(operand, helper_fx, is_write),
        CExpr::Binary { lhs, rhs, .. }
        | CExpr::Index {
            base: lhs,
            idx: rhs,
        } => effect_of_cexpr(lhs, helper_fx, is_write)
            .join(effect_of_cexpr(rhs, helper_fx, is_write)),
        CExpr::ListLit(items) => items.iter().fold(Effect::Pure, |e, i| {
            e.join(effect_of_cexpr(i, helper_fx, is_write))
        }),
        // Builtins are pure and deterministic by construction (time- and
        // randomness-dependent functions are deliberately absent).
        CExpr::CallBuiltin { args, .. } => args.iter().fold(Effect::Pure, |e, a| {
            e.join(effect_of_cexpr(a, helper_fx, is_write))
        }),
        CExpr::CallHelper { helper, args } => {
            let base = helper_fx
                .get(*helper as usize)
                .copied()
                .unwrap_or(Effect::NonDet);
            args.iter()
                .fold(base, |e, a| e.join(effect_of_cexpr(a, helper_fx, is_write)))
        }
        CExpr::StateCall {
            field,
            method,
            args,
        } => {
            let access = match is_write(field, method) {
                Some(true) => Effect::WritesState,
                Some(false) => Effect::ReadsState,
                None => Effect::WritesState,
            };
            args.iter().fold(access, |e, a| {
                e.join(effect_of_cexpr(a, helper_fx, is_write))
            })
        }
    }
}

fn reads_nondet_slot(expr: &CExpr, nondet_slots: &HashSet<u32>) -> bool {
    match expr {
        CExpr::Slot(s) => nondet_slots.contains(s),
        CExpr::Const(_) => false,
        CExpr::Unary { operand, .. } => reads_nondet_slot(operand, nondet_slots),
        CExpr::Binary { lhs, rhs, .. }
        | CExpr::Index {
            base: lhs,
            idx: rhs,
        } => reads_nondet_slot(lhs, nondet_slots) || reads_nondet_slot(rhs, nondet_slots),
        CExpr::ListLit(args)
        | CExpr::CallBuiltin { args, .. }
        | CExpr::CallHelper { args, .. }
        | CExpr::StateCall { args, .. } => args.iter().any(|a| reads_nondet_slot(a, nondet_slots)),
    }
}

/// `true` when the loop body accumulates in an order-sensitive way: a
/// self-referential accumulator update through a non-commutative
/// operator, or an order-preserving constructor.
fn order_sensitive_body(body: &[CStmt]) -> bool {
    body.iter().any(|stmt| match stmt {
        CStmt::Assign { slot, expr } => {
            let self_ref = cexpr_reads_slot(expr, *slot);
            let sensitive = match expr {
                CExpr::Binary { op, .. } => {
                    matches!(op, BinOp::Sub | BinOp::Div | BinOp::Rem)
                }
                CExpr::CallBuiltin { name, .. } => ORDER_PRESERVING.contains(&name.as_ref()),
                _ => false,
            };
            self_ref && sensitive
        }
        CStmt::If {
            then_block,
            else_block,
            ..
        } => order_sensitive_body(then_block) || order_sensitive_body(else_block),
        CStmt::While { body, .. } | CStmt::Foreach { body, .. } => order_sensitive_body(body),
        _ => false,
    })
}

fn cexpr_reads_slot(expr: &CExpr, slot: u32) -> bool {
    match expr {
        CExpr::Slot(s) => *s == slot,
        CExpr::Const(_) => false,
        CExpr::Unary { operand, .. } => cexpr_reads_slot(operand, slot),
        CExpr::Binary { lhs, rhs, .. }
        | CExpr::Index {
            base: lhs,
            idx: rhs,
        } => cexpr_reads_slot(lhs, slot) || cexpr_reads_slot(rhs, slot),
        CExpr::ListLit(args)
        | CExpr::CallBuiltin { args, .. }
        | CExpr::CallHelper { args, .. }
        | CExpr::StateCall { args, .. } => args.iter().any(|a| cexpr_reads_slot(a, slot)),
    }
}

// ---------------------------------------------------------------------
// Small AST walkers.
// ---------------------------------------------------------------------

/// Variables bound by `@Collection` gathers in `method` (the `@Partial`
/// let bindings that are later collected).
fn gathered_vars(method: &Method) -> HashSet<String> {
    let mut out = HashSet::new();
    for stmt in &method.body {
        visit_exprs_deep(stmt, &mut |e| {
            if let ExprKind::Collection(var) = &e.kind {
                out.insert(var.clone());
            }
        });
    }
    out
}

fn consumes_collection(stmt: &Stmt) -> bool {
    let mut found = false;
    visit_exprs_deep(stmt, &mut |e| {
        if matches!(&e.kind, ExprKind::Collection(_)) {
            found = true;
        }
    });
    found
}

/// Adds every variable `stmt` defines — at top level or in nested blocks,
/// including loop variables — to `out`.
fn collect_assigned(stmt: &Stmt, out: &mut HashSet<String>) {
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
            collect_assigned(inner, out);
        }
    }
}

/// Visits every expression in `stmt`, including nested blocks, walking
/// into sub-expressions.
fn visit_exprs_deep(stmt: &Stmt, f: &mut impl FnMut(&Expr)) {
    stmt.visit_exprs(&mut |e| e.walk(f));
    for block in stmt.child_blocks() {
        for inner in block {
            visit_exprs_deep(inner, f);
        }
    }
}

/// Visits every state call in `stmt` in (approximate) evaluation order.
fn visit_state_calls(stmt: &Stmt, f: &mut impl FnMut(&str, &str, bool, Span)) {
    visit_exprs_deep(stmt, &mut |e| {
        if let ExprKind::StateCall {
            field,
            method,
            global,
            ..
        } = &e.kind
        {
            f(field, method, *global, e.span);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn report(src: &str) -> VerifyReport {
        verify_program(&parse_program(src).unwrap())
    }

    fn codes(r: &VerifyReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_partitioned_program_certifies() {
        let r = report(
            "@Partitioned Table kv;\n\
             void put(int k, string v) { kv.put(k, v); }\n\
             string get(int k) { let v = kv.get(k); emit v; }",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        let c = r.se("kv").unwrap();
        assert!(c.key_local && c.replay_safe && c.merge_sound && c.holds());
        assert!(r.deterministic("put") && r.deterministic("get"));
        assert_eq!(r.te("put").unwrap().effect, Effect::WritesState);
        assert_eq!(r.te("get").unwrap().effect, Effect::ReadsState);
    }

    #[test]
    fn key_mutating_write_is_flagged() {
        let r = report(
            "@Partitioned Table t;\n\
             void f(int k, int v) {\n\
               t.put(k, v);\n\
               k = k + 1;\n\
               t.put(k, v);\n\
             }",
        );
        assert_eq!(codes(&r), vec![KEY_MUTATED_WRITE]);
        let c = r.se("t").unwrap();
        assert!(!c.key_local);
        assert!(!c.holds());
        assert_eq!(c.violations, vec![KEY_MUTATED_WRITE]);
        // Determinism is unaffected: the program is wrong for striping,
        // not for replay.
        assert!(c.replay_safe);
        let span = r.diagnostics[0].span.unwrap();
        assert_eq!(span.line, 5);
    }

    #[test]
    fn cross_key_read_is_flagged() {
        let r = report(
            "@Partitioned Table t;\n\
             int f(int k, int v) {\n\
               t.put(k, v);\n\
               k = k + 1;\n\
               let x = t.get(k);\n\
               emit x;\n\
             }",
        );
        assert_eq!(codes(&r), vec![CROSS_KEY_READ]);
        assert!(!r.key_local("t"));
    }

    #[test]
    fn key_mutation_in_nested_block_is_caught() {
        let r = report(
            "@Partitioned Table t;\n\
             int f(int k, int n) {\n\
               t.put(k, n);\n\
               if (n > 0) { k = n; }\n\
               let x = t.get(k);\n\
               emit x;\n\
             }",
        );
        assert_eq!(codes(&r), vec![CROSS_KEY_READ]);
    }

    #[test]
    fn reassignment_before_a_fresh_segment_is_fine() {
        // The reassignment happens before any keyed access: the segment
        // (and its dispatch) form after the mutation, so routing agrees.
        let r = report(
            "@Partitioned Table t;\n\
             void f(int k, int v) {\n\
               k = k + 1;\n\
               t.put(k, v);\n\
             }",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert!(r.key_local("t"));
    }

    #[test]
    fn key_change_through_new_variable_is_fine() {
        // A different key root cuts a new TE re-dispatched on it — the
        // segmenter handles this; no verifier finding.
        let r = report(
            "@Partitioned Table t;\n\
             int f(int a, int b) {\n\
               let x = t.get(a);\n\
               let y = t.get(b);\n\
               emit x + y;\n\
             }",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn commutative_merge_certifies() {
        let r = report(
            "@Partial Vector w;\n\
             void train(list x, float label) { w.axpy(label, x); }\n\
             Vector getW() {\n\
               @Partial let wl = @Global w.toList();\n\
               let m = mergeAvg(@Collection wl);\n\
               emit m;\n\
             }\n\
             Vector mergeAvg(@Collection Vector all) {\n\
               let acc = [];\n\
               foreach (cur : all) { acc = vec_add(acc, cur); }\n\
               let m = vec_scale(acc, 1.0 / to_float(len(all)));\n\
               return m;\n\
             }",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        let c = r.se("w").unwrap();
        assert!(c.merge_sound && c.replay_safe);
        assert!(r.deterministic("getW"));
    }

    #[test]
    fn order_preserving_fold_is_flagged() {
        let r = report(
            "@Partial Vector w;\n\
             void train(list x) { w.axpy(1.0, x); }\n\
             list snap() {\n\
               @Partial let s = @Global w.toList();\n\
               let all = collect(@Collection s);\n\
               emit all;\n\
             }\n\
             list collect(@Collection list xs) {\n\
               let out = [];\n\
               foreach (x : xs) { out = append(out, x); }\n\
               return out;\n\
             }",
        );
        assert_eq!(codes(&r), vec![ORDER_SENSITIVE_GATHER]);
        let c = r.se("w").unwrap();
        assert!(!c.merge_sound && !c.replay_safe);
        assert!(!r.deterministic("snap"));
        // The flagged loop carries a multi-line span.
        assert!(r.diagnostics[0].end.is_some());
    }

    #[test]
    fn one_sided_merge_is_flagged() {
        let r = report(
            "@Partial Vector w;\n\
             void train(int i, float x) { w.add(i, x); }\n\
             float peek(int i) {\n\
               @Partial let s = @Global w.get(i);\n\
               let m = pick(@Collection s);\n\
               emit m;\n\
             }\n\
             float pick(@Collection float xs) {\n\
               return first(xs);\n\
             }",
        );
        assert_eq!(codes(&r), vec![MERGE_ONE_SIDED]);
        assert!(!r.se("w").unwrap().merge_sound);
    }

    #[test]
    fn noncommutative_merge_is_witnessed() {
        let r = report(
            "@Partial Vector w;\n\
             void train(int i, float x) { w.add(i, x); }\n\
             float peek(int i) {\n\
               @Partial let s = @Global w.get(i);\n\
               let m = fold(@Collection s);\n\
               emit m;\n\
             }\n\
             float fold(@Collection float xs) {\n\
               let acc = 0.0;\n\
               foreach (x : xs) { acc = acc * 0.5 + x; }\n\
               return acc;\n\
             }",
        );
        assert_eq!(codes(&r), vec![MERGE_NONCOMMUTATIVE]);
        assert!(!r.se("w").unwrap().merge_sound);
        assert!(!r.deterministic("peek"));
    }

    #[test]
    fn subtraction_fold_passes_the_smoke_check() {
        // fold(-, [a, b]) = -a - b in either order: commutative as a whole
        // even though `-` is not — the smoke-check gets this right where a
        // syntactic rule would not.
        let r = report(
            "@Partial Vector w;\n\
             void train(int i, float x) { w.add(i, x); }\n\
             float peek(int i) {\n\
               @Partial let s = @Global w.get(i);\n\
               let m = negsum(@Collection s);\n\
               emit m;\n\
             }\n\
             float negsum(@Collection float xs) {\n\
               let acc = 0.0;\n\
               foreach (x : xs) { acc = acc - x; }\n\
               return acc;\n\
             }",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert!(r.se("w").unwrap().merge_sound);
    }

    #[test]
    fn global_read_after_write_in_same_pipeline_races() {
        let r = report(
            "@Partial Vector w;\n\
             list peek(int i, float x) {\n\
               w.add(i, x);\n\
               @Partial let s = @Global w.toList();\n\
               let m = mergeSum(@Collection s);\n\
               emit m;\n\
             }\n\
             list mergeSum(@Collection list xs) {\n\
               let out = [];\n\
               foreach (x : xs) { out = vec_add(out, x); }\n\
               return out;\n\
             }",
        );
        assert_eq!(codes(&r), vec![GLOBAL_RACE]);
        let c = r.se("w").unwrap();
        assert!(!c.replay_safe);
        assert!(c.merge_sound, "the merge itself is fine");
        assert!(!r.deterministic("peek"));
    }

    #[test]
    fn global_read_in_separate_method_is_fine() {
        let r = report(
            "@Partial Vector w;\n\
             void train(list x, float label) { w.axpy(label, x); }\n\
             list peek() {\n\
               @Partial let s = @Global w.toList();\n\
               let m = mergeSum(@Collection s);\n\
               emit m;\n\
             }\n\
             list mergeSum(@Collection list xs) {\n\
               let out = [];\n\
               foreach (x : xs) { out = vec_add(out, x); }\n\
               return out;\n\
             }",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert!(r.se("w").unwrap().replay_safe);
    }

    #[test]
    fn effect_lattice_orders_and_joins() {
        assert!(Effect::Pure < Effect::ReadsState);
        assert!(Effect::ReadsState < Effect::WritesState);
        assert!(Effect::WritesState < Effect::NonDet);
        assert_eq!(Effect::Pure.join(Effect::WritesState), Effect::WritesState);
        assert_eq!(Effect::NonDet.join(Effect::Pure), Effect::NonDet);
    }

    #[test]
    fn stateless_method_is_pure() {
        let r = report("void f(int x) { emit x * 2; }");
        assert_eq!(r.te("f").unwrap().effect, Effect::Pure);
    }

    #[test]
    fn read_only_method_reads_state() {
        let r = report(
            "Table t;\n\
             int g(int k) { let v = t.get(k); emit v; }",
        );
        assert_eq!(r.te("g").unwrap().effect, Effect::ReadsState);
    }
}
