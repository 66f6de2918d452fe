//! `sdgc` — the StateLang compiler and runner CLI.
//!
//! The command-line face of the java2sdg pipeline:
//!
//! ```text
//! sdgc check <file.sl>                 # parse + semantic checks
//! sdgc lint <file.sl>                  # all diagnostics, program and graph
//! sdgc verify <file.sl> [--dot]        # effect/replay-safety certificates
//! sdgc dot <file.sl>                   # translated SDG as Graphviz DOT
//! sdgc explain <file.sl>               # tasks, state, dispatch, allocation
//! sdgc run <file.sl> 'put k=1 v=hi' 'get k=1'   # deploy, fire requests
//! sdgc run <file.sl> 'put k=1 v=hi' --metrics json  # + metrics snapshot
//! ```
//!
//! `lint` runs the whole static-analysis pipeline without deploying:
//! program-level `SL01xx` diagnostics (rendered with source spans), then
//! the graph-level `SL02xx` lints of the graph `check`, `dot` and `run`
//! translate. A program with neither prints `ok: no diagnostics`.
//!
//! `verify` runs the interprocedural effect and replay-safety verifier
//! (`SL03xx`), prints any violations with source spans, and summarises the
//! per-element certificates the runtime uses to gate striping, delta
//! checkpointing and edge batching. `--dot` additionally emits the graph
//! with violations drawn onto the offending state elements.
//!
//! Each quoted request is `entry name=value ...`; values parse as
//! integers, floats, `true`/`false`, or fall back to strings. All requests
//! run against one deployment, in order.

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

use sdg::common::record;
use sdg::common::value::{Record, Value};
use sdg::graph::model::{Distribution, TaskKind};
use sdg::ir::ast::Method;
use sdg::prelude::RuntimeConfig;
use sdg::SdgProgram;

/// Why a command stopped early.
enum Failure {
    /// A diagnostic for the user (exit 1).
    Message(String),
    /// Standard output could not be written.
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::Message(message.to_owned())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Stdout(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = run(&args, &mut out).and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`sdgc explain … | head -1`): it has all
        // the output it wanted.
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("sdgc: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(message)) => {
            eprintln!("sdgc: {message}");
            ExitCode::FAILURE
        }
    }
}

/// How `run` reports the deployment's metrics snapshot on exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    Json,
    Text,
}

fn parse_metrics_mode(v: &str) -> Result<MetricsMode, String> {
    match v {
        "json" => Ok(MetricsMode::Json),
        "text" => Ok(MetricsMode::Text),
        other => Err(format!("--metrics expects `json` or `text`, got `{other}`")),
    }
}

fn run(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let usage = "usage: sdgc <check|lint|verify|dot|explain|run> <file> [entry] [name=value ...] \
                 [--metrics json|text] [--dot]";
    let mut metrics: Option<MetricsMode> = None;
    let mut dot = false;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--dot" {
            dot = true;
        } else if let Some(v) = a.strip_prefix("--metrics=") {
            metrics = Some(parse_metrics_mode(v)?);
        } else if a == "--metrics" {
            i += 1;
            metrics = Some(parse_metrics_mode(
                args.get(i).map(String::as_str).unwrap_or(""),
            )?);
        } else if a.starts_with("--") {
            return Err(format!("unknown flag `{a}`; {usage}").into());
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }
    let args = positional;
    let command = args.first().ok_or(usage)?;
    let path = args.get(1).ok_or(usage)?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // `lint` wants to show *all* diagnostics, not stop at the first
    // compile error, so it handles the source itself.
    if command == "lint" {
        return lint_cmd(&source, out);
    }
    if command == "verify" {
        return verify_cmd(&source, dot, out);
    }
    let program = SdgProgram::compile(&source).map_err(|e| e.to_string())?;

    match command.as_str() {
        "check" => {
            writeln!(
                out,
                "ok: {} state element(s), {} task element(s), {} dataflow(s)",
                program.graph().states.len(),
                program.graph().tasks.len(),
                program.graph().flows.len()
            )?;
            Ok(())
        }
        "dot" => {
            write!(out, "{}", program.to_dot_with_lints())?;
            Ok(())
        }
        "explain" => {
            explain(&program, out)?;
            Ok(())
        }
        "run" => {
            if args.len() < 3 {
                return Err("run needs at least one request: 'entry name=value ...'".into());
            }
            run_requests(program, &args[2..], metrics, out)
        }
        other => Err(format!("unknown command `{other}`; {usage}").into()),
    }
}

/// The `lint` subcommand: run every analysis layer and render everything
/// it found — program-level diagnostics first, then, when those include no
/// errors, the graph-level lints of the translated graph.
fn lint_cmd(source: &str, out: &mut impl Write) -> Result<(), Failure> {
    use sdg::ir::diag::{render_diagnostics, Severity};

    let program = sdg::ir::parser::parse_program(source).map_err(|e| e.to_string())?;
    let diags = sdg::ir::analysis::lint_program(&program);
    write!(out, "{}", render_diagnostics(source, &diags))?;
    if diags.iter().any(|d| d.severity == Severity::Error) {
        return Err("program has lint errors; skipping translation".into());
    }

    let compiled = SdgProgram::compile(source).map_err(|e| e.to_string())?;
    let graph_diags = sdg::graph::lint(compiled.graph());
    write!(out, "{}", render_diagnostics(source, &graph_diags))?;
    if graph_diags.iter().any(|d| d.severity == Severity::Error) {
        return Err("graph has lint errors".into());
    }
    if diags.is_empty() && graph_diags.is_empty() {
        writeln!(out, "ok: no diagnostics")?;
    }
    Ok(())
}

/// The `verify` subcommand: run the `SL03xx` effect and replay-safety
/// verifier and show which runtime optimizations each element is certified
/// for.
fn verify_cmd(source: &str, dot: bool, out: &mut impl Write) -> Result<(), Failure> {
    use sdg::ir::diag::{render_diagnostics, Severity};

    // Surface semantic errors with spans before attempting translation.
    let parsed = sdg::ir::parser::parse_program(source).map_err(|e| e.to_string())?;
    let diags = sdg::ir::analysis::lint_program(&parsed);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        write!(out, "{}", render_diagnostics(source, &diags))?;
        return Err("program has lint errors; skipping verification".into());
    }

    let program = SdgProgram::compile(source).map_err(|e| e.to_string())?;
    let report = program
        .verify_report()
        .ok_or("translation did not attach a verify report")?;
    write!(out, "{}", render_diagnostics(source, &report.diagnostics))?;

    writeln!(out, "state element certificates:")?;
    for state in &program.graph().states {
        let Some(cert) = report.se(&state.name) else {
            continue;
        };
        let verdict = if cert.holds() {
            "certified".to_string()
        } else {
            format!("uncertified [{}]", cert.violations.join(", "))
        };
        writeln!(
            out,
            "  {:<12} key-local={} replay-safe={} merge-sound={} — {verdict}",
            state.name,
            yn(cert.key_local),
            yn(cert.replay_safe),
            yn(cert.merge_sound),
        )?;
    }
    writeln!(out, "task element certificates:")?;
    for task in &program.graph().tasks {
        let Some(cert) = report.te(&task.name) else {
            continue;
        };
        writeln!(
            out,
            "  {:<14} effect={} deterministic={}",
            task.name,
            cert.effect,
            yn(cert.deterministic),
        )?;
    }
    if report.is_clean() {
        writeln!(
            out,
            "ok: all elements certified; runtime optimizations fully enabled"
        )?;
    } else {
        writeln!(
            out,
            "{} verification finding(s); affected optimizations run in safe mode",
            report.diagnostics.len()
        )?;
    }
    if dot {
        write!(out, "{}", program.to_dot_with_verify())?;
    }
    Ok(())
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn explain(program: &SdgProgram, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "state elements:")?;
    for state in &program.graph().states {
        let dist = match state.dist {
            Distribution::Local => "local".to_string(),
            Distribution::Partitioned { dim } => format!("partitioned by {dim}"),
            Distribution::Partial => "partial (replicated, merge to reconcile)".to_string(),
        };
        writeln!(out, "  {:<12} {} — {dist}", state.name, state.ty)?;
    }
    writeln!(out, "task elements:")?;
    for task in &program.graph().tasks {
        let role = match &task.kind {
            TaskKind::Entry { method } => format!("entry point of {method}()"),
            TaskKind::Compute => "pipeline stage".to_string(),
        };
        let access = match &task.access {
            None => "stateless".to_string(),
            Some(a) => {
                let state = program
                    .graph()
                    .state(a.state)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|_| a.state.to_string());
                let rw = if a.writes { "read/write" } else { "read" };
                format!("{rw} {state} ({:?})", a.mode)
            }
        };
        writeln!(out, "  {:<14} {role}; {access}", task.name)?;
    }
    writeln!(out, "dataflows:")?;
    for flow in &program.graph().flows {
        let from = &program.graph().task(flow.from).expect("valid").name;
        let to = &program.graph().task(flow.to).expect("valid").name;
        writeln!(
            out,
            "  {from} -> {to}  [{}] carrying {{{}}}",
            flow.dispatch,
            flow.live_vars.join(", ")
        )?;
    }
    let allocation = sdg::graph::allocate(program.graph());
    writeln!(out, "allocation: {} node(s)", allocation.num_nodes)?;
    for task in &program.graph().tasks {
        writeln!(
            out,
            "  {:<14} -> {}",
            task.name,
            allocation.node_of_task(task.id)
        )?;
    }
    Ok(())
}

fn parse_payload(pairs: &[String]) -> Result<Record, String> {
    let mut payload = record! {};
    for pair in pairs {
        let (name, raw) = pair
            .split_once('=')
            .ok_or_else(|| format!("argument `{pair}` is not name=value"))?;
        let value = if let Ok(i) = raw.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(x) = raw.parse::<f64>() {
            Value::Float(x)
        } else if raw == "true" || raw == "false" {
            Value::Bool(raw == "true")
        } else {
            Value::str(raw)
        };
        payload.set(name, value);
    }
    Ok(payload)
}

/// Parses one quoted request and checks it against the signature of the
/// entry method it names, so a typo fails before anything is deployed.
fn parse_request(entries: &[&Method], request: &str) -> Result<(String, Record), String> {
    let mut parts = request.split_whitespace();
    let entry = parts.next().ok_or("empty request")?;
    let pairs: Vec<String> = parts.map(str::to_owned).collect();
    let payload = parse_payload(&pairs)?;
    let method = entries.iter().find(|m| m.name == entry).ok_or_else(|| {
        let names: Vec<&str> = entries.iter().map(|m| m.name.as_str()).collect();
        format!("no entry method '{entry}' (entries: {})", names.join(", "))
    })?;
    let params: Vec<&str> = method.params.iter().map(|p| p.name.as_str()).collect();
    let signature = format!("{entry}({})", params.join(", "));
    if let Some(missing) = params.iter().find(|p| payload.get(p).is_none()) {
        return Err(format!("entry {signature} is missing field '{missing}'"));
    }
    if let Some((extra, _)) = payload.iter().find(|(name, _)| !params.contains(&&**name)) {
        return Err(format!("entry {signature} has no field '{extra}'"));
    }
    Ok((entry.to_owned(), payload))
}

fn run_requests(
    program: SdgProgram,
    requests: &[String],
    metrics: Option<MetricsMode>,
    out: &mut impl Write,
) -> Result<(), Failure> {
    let entries = program.ast().entry_points();
    let requests = requests
        .iter()
        .map(|r| parse_request(&entries, r).map_err(|e| format!("request '{r}': {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let deployment = program
        .deploy(RuntimeConfig::default())
        .map_err(|e| e.to_string())?;
    for (entry, payload) in requests {
        deployment
            .submit(&entry, payload)
            .map_err(|e| e.to_string())?;
        if !deployment.quiesce(Duration::from_secs(30)) {
            return Err("deployment did not drain within 30s".into());
        }
        while let Ok(event) = deployment.outputs().try_recv() {
            writeln!(
                out,
                "{entry} -> {} (latency {:?})",
                event.value,
                event.latency.unwrap_or_default()
            )?;
        }
    }
    match metrics {
        Some(MetricsMode::Json) => writeln!(out, "{}", deployment.metrics().to_json())?,
        Some(MetricsMode::Text) => write!(out, "{}", deployment.metrics().to_text())?,
        None => {}
    }
    let errors = deployment.stats().errors;
    deployment.shutdown();
    if errors > 0 {
        return Err(format!("{errors} task error(s) during execution").into());
    }
    Ok(())
}
