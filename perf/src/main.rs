//! `perf`: one noise-robust benchmark of the SDG runtime — four workloads,
//! five gated end-to-end metrics, layer probes and a traced run. See
//! `perf/README.md`.

mod gen;
mod host;
mod pacer;
mod probe;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use report::Verdict;
use workload::{err, Res};

const USAGE: &str = "\
usage:
  perf --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
        one run; the last line of standard output is its result as JSON
  perf run [--runs <n>] [--seed <n>] [--seconds <s>] [--out <file>]
        every workload: n untraced runs and one traced run, one process each
  perf check
        every workload at 1/20 size with every oracle on; no timings
  perf compare <a.json> <b.json>
        b against base a, per workload and end-to-end metric
  perf aa [--runs <n>] [--seconds <s>]
        two sets of runs of this binary; fails unless they agree
  perf manifest
        the contents of BENCHMARK.json
workloads: kv-write kv-read-zipf cf-mixed wc-zipf";

/// Flags of the form `--name value`, each at most once, nothing else.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Res<Flags> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            if !allowed.contains(&name.as_str()) {
                return Err(format!("unexpected argument `{name}`"));
            }
            let value = it.next().ok_or_else(|| format!("`{name}` needs a value"))?;
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!("`{name}` given twice"));
            }
            flags.push((name.clone(), value.clone()));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Res<T> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`{name} {v}` is not a valid number")),
        }
    }

    fn seconds(&self) -> Res<u32> {
        match self.number("--seconds", spec::NOMINAL_SECONDS)? {
            0 => Err("`--seconds` must be positive".into()),
            s => Ok(s),
        }
    }
}

/// `perf --workload …`: one run, one JSON line.
fn single(args: &[String]) -> Res<ExitCode> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload").ok_or("`--workload` is required")?;
    let spec = spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = flags.number("--seed", 1u64)?;
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    let spec = spec.scaled_to(flags.seconds()?);
    let result = run::run(run::RunArgs {
        spec: if trace { spec.traced() } else { spec },
        seed,
        trace,
    })?;
    for note in &result.notes {
        eprintln!("perf: {note}");
    }
    if trace {
        eprintln!(
            "perf: trace written to {}",
            run::write_trace(name, seed, &result.spans)?
        );
    }
    println!("{}", run::result_line(&result));
    Ok(ExitCode::SUCCESS)
}

fn run_many(args: &[String]) -> Res<ExitCode> {
    let flags = Flags::parse(args, &["--runs", "--seed", "--seconds", "--out"])?;
    let seconds = flags.seconds()?;
    let (set, correct) = report::run_all(
        flags.number("--runs", 5)?,
        flags.number("--seed", 1)?,
        seconds,
    )?;
    print!("{}", report::render_table(&set));
    let out = flags.get("--out").unwrap_or("perf/out/result.json");
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    std::fs::write(out, report::to_json(&set, seconds)).map_err(err)?;
    println!("\nresults written to {out}");
    if !correct {
        eprintln!("perf: an oracle failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn check() -> Res<ExitCode> {
    let mut ok = true;
    for w in &spec::WORKLOADS {
        // Traced, so the probes and the busy paced windows run too.
        let result = run::run(run::RunArgs {
            spec: w.check_sized(),
            seed: 1,
            trace: true,
        })?;
        println!(
            "{:<14} attempted {:>8} failed {:>3}  {}",
            w.name,
            result.attempted,
            result.failed,
            if result.failed == 0 { "PASS" } else { "FAIL" }
        );
        ok &= result.failed == 0;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_results(path: &str) -> Res<report::ResultSet> {
    report::from_json(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
}

fn compare(args: &[String]) -> Res<ExitCode> {
    let [a, b] = args else {
        return Err("`compare` takes two result files".into());
    };
    let rows = report::compare(&read_results(a)?, &read_results(b)?);
    print!("{}", report::render_comparison(&rows));
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Two sets of runs of the same binary must agree within the benchmark's
/// own bounds: every row `ok`, which needs both sets steadier than the
/// bound and their medians closer than it.
fn aa(args: &[String]) -> Res<ExitCode> {
    let flags = Flags::parse(args, &["--runs", "--seconds"])?;
    let runs = flags.number("--runs", 5usize)?.max(5);
    let seconds = flags.seconds()?;
    let (a, ok_a) = report::run_all(runs, 1, seconds)?;
    let (b, ok_b) = report::run_all(runs, 1 + runs as u64 + 1, seconds)?;
    let rows = report::compare(&a, &b);
    print!("{}", report::render_comparison(&rows));
    // Agreement is symmetric: neither set may be worse than the other.
    let agree = rows
        .iter()
        .chain(&report::compare(&b, &a))
        .all(|r| r.verdict == Verdict::Ok);
    println!(
        "A/A: {}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(if agree && ok_a && ok_b {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Res<ExitCode> {
    match args.first().map(String::as_str) {
        Some("run") => run_many(&args[1..]),
        Some("check") if args.len() == 1 => check(),
        Some("compare") => compare(&args[1..]),
        Some("aa") => aa(&args[1..]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", spec::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => single(args),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    // Defaults are what is measured: no ambient override of the engine or
    // the scheduler.
    std::env::remove_var("SDG_ENGINE");
    std::env::remove_var("SDG_SCHED");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
