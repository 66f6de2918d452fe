//! Many runs: `perf run`, `perf compare`, `perf aa`, and the result file
//! they share.
//!
//! Every run is its own process (`perf --workload …` re-executed), so runs
//! share no allocator state, thread pool or page cache of their own, and a
//! set of runs here is what the acceptance driver would measure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use sdg_common::obs::json::{self, Json};

use crate::host;
use crate::spec::{metric_def, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{quartiles, relative_iqr};
use crate::workload::{err, Res};

/// What one set of runs measured for one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    /// One value per untraced run, by end-to-end metric.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// The traced run's value, by per-layer metric.
    pub per_layer: BTreeMap<String, f64>,
}

/// Results by workload name.
pub type ResultSet = BTreeMap<String, WorkloadResult>;

/// The parsed last line of one run.
struct RunLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn parse_run_line(line: &str) -> Res<RunLine> {
    let j = json::parse(line)?;
    let field = |k: &str| j.get(k).ok_or_else(|| format!("result line lacks `{k}`"));
    let Json::Obj(metrics) = field("metrics")? else {
        return Err("`metrics` is not an object".into());
    };
    Ok(RunLine {
        correct: field("correct")? == &Json::Bool(true),
        attempted: field("attempted")?
            .as_u64()
            .ok_or("`attempted` is not a count")?,
        failed: field("failed")?.as_u64().ok_or("`failed` is not a count")?,
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Runs one workload once in a child process and parses its result line.
fn spawn_run(workload: &str, seed: u64, seconds: u32, trace: bool) -> Res<RunLine> {
    let exe = std::env::current_exe().map_err(err)?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(err)?;
    if !out.status.success() {
        return Err(format!("run of `{workload}` exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_run_line(stdout.lines().last().ok_or("run printed no result")?)
}

/// `runs` untraced runs and one traced run of every workload, seeds
/// counting up from `seed`. Returns the results and whether every oracle
/// held.
pub fn run_all(runs: usize, seed: u64, seconds: u32) -> Res<(ResultSet, bool)> {
    let mut set = ResultSet::new();
    let mut correct = true;
    for w in &WORKLOADS {
        let result = set.entry(w.name.to_owned()).or_default();
        for r in 0..=runs {
            let trace = r == runs;
            eprintln!(
                "perf: {} {} seed {}",
                w.name,
                if trace {
                    "traced".to_owned()
                } else {
                    format!("run {}/{runs}", r + 1)
                },
                seed + r as u64
            );
            let line = spawn_run(w.name, seed + r as u64, seconds, trace)?;
            correct &= line.correct;
            result.attempted += line.attempted;
            result.failed += line.failed;
            for (name, value) in line.metrics {
                if trace {
                    result.per_layer.insert(name, value);
                } else {
                    result.end_to_end.entry(name).or_default().push(value);
                }
            }
        }
    }
    Ok((set, correct))
}

fn unit_of(metric: &str) -> &'static str {
    metric_def(metric).map_or("", |m| m.unit)
}

/// Every metric by name with its unit, median, quartiles and sample count.
pub fn render_table(set: &ResultSet) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "cores: {}", host::cores());
    for (workload, r) in set {
        let _ = writeln!(
            out,
            "\n{workload}: attempted {} failed {}",
            r.attempted, r.failed
        );
        let _ = writeln!(
            out,
            "  {:<30} {:>8} {:>14} {:>14} {:>14} {:>3}",
            "end-to-end metric", "unit", "median", "q1", "q3", "n"
        );
        for m in &END_TO_END {
            let Some(values) = r.end_to_end.get(m.name) else {
                continue;
            };
            let (q1, q2, q3) = quartiles(values);
            let _ = writeln!(
                out,
                "  {:<30} {:>8} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>3}",
                m.name,
                m.unit,
                values.len()
            );
        }
        let _ = writeln!(
            out,
            "  {:<30} {:>8} {:>14}",
            "per-layer metric", "unit", "traced run"
        );
        for m in &PER_LAYER {
            if let Some(v) = r.per_layer.get(m.name) {
                let _ = writeln!(out, "  {:<30} {:>8} {v:>14.4}", m.name, m.unit);
            }
        }
    }
    out
}

/// The result file.
pub fn to_json(set: &ResultSet, seconds: u32) -> String {
    let mut out = format!(
        "{{\n\"schema\": 1,\n\"cores\": {},\n\"seconds\": {seconds},\n\"workloads\": {{",
        host::cores()
    );
    for (i, (workload, r)) in set.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n\"{workload}\": {{\"attempted\": {}, \"failed\": {},\n  \"end_to_end\": {{",
            if i == 0 { "" } else { "," },
            r.attempted,
            r.failed
        );
        for (k, (name, values)) in r.end_to_end.iter().enumerate() {
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(
                out,
                "{}\n    \"{name}\": {{\"unit\": \"{}\", \"values\": [{}]}}",
                if k == 0 { "" } else { "," },
                unit_of(name),
                list.join(", ")
            );
        }
        out.push_str("},\n  \"per_layer\": {");
        for (k, (name, value)) in r.per_layer.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{name}\": {{\"unit\": \"{}\", \"value\": {value}}}",
                if k == 0 { "" } else { "," },
                unit_of(name)
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n}\n}\n");
    out
}

/// Reads a result file written by [`to_json`].
pub fn from_json(text: &str) -> Res<ResultSet> {
    let j = json::parse(text)?;
    let Some(Json::Obj(workloads)) = j.get("workloads") else {
        return Err("result file lacks `workloads`".into());
    };
    let mut set = ResultSet::new();
    for (name, w) in workloads {
        let mut r = WorkloadResult {
            attempted: w.get("attempted").and_then(Json::as_u64).unwrap_or(0),
            failed: w.get("failed").and_then(Json::as_u64).unwrap_or(0),
            ..WorkloadResult::default()
        };
        if let Some(Json::Obj(metrics)) = w.get("end_to_end") {
            for (m, v) in metrics {
                let values = v
                    .get("values")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("`{name}`.`{m}` lacks `values`"))?;
                r.end_to_end
                    .insert(m.clone(), values.iter().filter_map(Json::as_f64).collect());
            }
        }
        if let Some(Json::Obj(metrics)) = w.get("per_layer") {
            for (m, v) in metrics {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    r.per_layer.insert(m.clone(), value);
                }
            }
        }
        set.insert(name.clone(), r);
    }
    Ok(set)
}

/// How `b` stands against base `a` on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound.
    Ok,
    /// Worse than the bound, and both sets are steadier than the bound.
    Regressed,
    /// A set's own inter-quartile range is wider than the bound: the
    /// data cannot tell an unchanged metric from a regressed one.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Share of `a`'s median by which `b`'s is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' relative inter-quartile ranges.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compares every workload × end-to-end metric of `b` against base `a`
/// and the bound in the schema. `setup_s` is judged on its median alone:
/// its spread is exempt by contract.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, ra) in a {
        let Some(rb) = b.get(workload) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (ra.end_to_end.get(m.name), rb.end_to_end.get(m.name))
            else {
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let change = if qa.1 == 0.0 {
                0.0
            } else {
                (qb.1 - qa.1) / qa.1.abs()
            };
            let worse_by = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let spread = relative_iqr(va).max(relative_iqr(vb));
            let verdict = if spread > m.bound && m.name != "setup_s" {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: qa,
                b: qb,
                worse_by,
                spread,
                verdict,
            });
        }
    }
    rows
}

pub fn render_comparison(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>12} {:>12} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "a iqr", "b median", "b iqr", "b/a", "spread", "bound"
    );
    for r in rows {
        let bound = metric_def(r.metric).map_or(0.0, |m| m.bound);
        let _ = writeln!(
            out,
            "{:<14} {:<16} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>9.4} {:>8.4} {:>7.2}  {}",
            r.workload,
            r.metric,
            r.a.1,
            r.a.2 - r.a.0,
            r.b.1,
            r.b.2 - r.b.0,
            if r.a.1 == 0.0 { 0.0 } else { r.b.1 / r.a.1 },
            r.spread,
            bound,
            r.verdict.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(throughput: &[f64], setup: &[f64]) -> ResultSet {
        let mut r = WorkloadResult {
            attempted: 10,
            failed: 0,
            ..WorkloadResult::default()
        };
        r.end_to_end
            .insert("throughput_rps".into(), throughput.to_vec());
        r.end_to_end.insert("setup_s".into(), setup.to_vec());
        r.per_layer.insert("ir.parse_ms".into(), 0.25);
        ResultSet::from([("kv-write".to_owned(), r)])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn result_files_round_trip() {
        let s = set(&[100.5, 101.25, 99.0], &[0.5, 0.625]);
        assert_eq!(from_json(&to_json(&s, 28)).unwrap(), s);
    }

    #[test]
    fn run_lines_parse() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let parsed = parse_run_line(line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (5, 0));
        assert_eq!(parsed.metrics, vec![("setup_s".to_owned(), 0.5)]);
        assert!(parse_run_line("{}").is_err());
    }

    #[test]
    fn comparison_respects_direction_bound_and_spread() {
        let base = set(&[100.0, 101.0, 99.0, 100.0, 100.0], &[1.0, 1.0, 1.0]);
        // 5 % lower throughput is within the 25 % bound; 40 % is not.
        let ok = compare(
            &base,
            &set(&[95.0, 96.0, 94.0, 95.0, 95.0], &[1.1, 1.1, 1.1]),
        );
        assert_eq!(verdict_of(&ok, "throughput_rps"), Verdict::Ok);
        assert_eq!(verdict_of(&ok, "setup_s"), Verdict::Ok);
        let bad = compare(
            &base,
            &set(&[60.0, 61.0, 59.0, 60.0, 60.0], &[1.3, 1.3, 1.3]),
        );
        assert_eq!(verdict_of(&bad, "throughput_rps"), Verdict::Regressed);
        assert_eq!(verdict_of(&bad, "setup_s"), Verdict::Regressed);
        let row = bad.iter().find(|r| r.metric == "throughput_rps").unwrap();
        assert!((row.worse_by - 0.4).abs() < 1e-9);
        // Higher throughput is better, however large the change.
        let better = compare(
            &base,
            &set(&[150.0, 151.0, 149.0, 150.0, 150.0], &[0.5, 0.5, 0.5]),
        );
        assert_eq!(verdict_of(&better, "throughput_rps"), Verdict::Ok);
        // A set noisier than the bound resolves nothing; set-up's spread
        // is exempt.
        let noisy = compare(
            &base,
            &set(&[60.0, 100.0, 140.0, 80.0, 120.0], &[0.5, 1.0, 1.5]),
        );
        assert_eq!(verdict_of(&noisy, "throughput_rps"), Verdict::Unresolved);
        assert_eq!(verdict_of(&noisy, "setup_s"), Verdict::Ok);
    }
}
