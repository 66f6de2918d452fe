//! SDG-level lints (`SL02xx`).
//!
//! [`validate`](crate::validate()) rejects graphs that cannot execute at all;
//! the lints here catch graphs that execute but are probably wrong or
//! needlessly slow — dead elements, reconciliation gaps, synchronisation
//! hazards. They run on any [`Sdg`], including ones assembled with
//! [`SdgBuilder::build_unchecked`](crate::model::SdgBuilder::build_unchecked),
//! and report [`Diagnostic`]s with stable codes instead of failing fast.
//!
//! Graph elements have no source spans, so every diagnostic is span-less;
//! [`lint_findings`] additionally names the offending task or state element
//! so front-ends (such as the DOT exporter) can annotate it.

use std::collections::HashSet;

use sdg_common::ids::{StateId, TaskId};
use sdg_ir::diag::Diagnostic;

use crate::model::{AccessMode, Dispatch, Sdg};

/// A task element cannot be reached from any entry point.
pub const UNREACHABLE_TASK: &str = "SL0201";
/// A state element has no access edge from any task element.
pub const UNACCESSED_STATE: &str = "SL0202";
/// A task inside a dataflow cycle performs global (all-instance) state
/// access, paying a synchronisation barrier on every iteration.
pub const GLOBAL_IN_CYCLE: &str = "SL0203";
/// The dataflow edges into one key-partitioned task element disagree on
/// dispatch semantics.
pub const CONFLICTING_DISPATCH: &str = "SL0204";
/// A task element reads per-instance (partial) values globally, but no
/// downstream task gathers them with an all-to-one edge.
pub const UNMERGED_PARTIAL_READ: &str = "SL0205";

/// The graph element a lint finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintSubject {
    /// A task element.
    Task(TaskId),
    /// A state element.
    State(StateId),
}

/// One lint finding: the diagnostic plus the element it concerns.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// The offending graph element.
    pub subject: LintSubject,
    /// The reported problem.
    pub diag: Diagnostic,
}

/// Runs every SDG-level lint and returns the diagnostics.
pub fn lint(sdg: &Sdg) -> Vec<Diagnostic> {
    lint_findings(sdg).into_iter().map(|f| f.diag).collect()
}

/// Runs every SDG-level lint, keeping the association between each
/// diagnostic and the graph element it concerns.
pub fn lint_findings(sdg: &Sdg) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    unreachable_tasks(sdg, &mut findings);
    unaccessed_states(sdg, &mut findings);
    global_access_in_cycles(sdg, &mut findings);
    conflicting_dispatch(sdg, &mut findings);
    unmerged_partial_reads(sdg, &mut findings);
    findings
}

/// Projects the verifier's certificate violations (the `SL03xx` codes from
/// [`sdg_ir::analysis::verify`]) onto the state elements they concern, so
/// the DOT exporter can draw them alongside the `SL02xx` lints.
///
/// Hand-built graphs carry no report and yield no findings.
pub fn verify_findings(sdg: &Sdg) -> Vec<LintFinding> {
    let Some(report) = sdg.verify.as_deref() else {
        return Vec::new();
    };
    let mut findings = Vec::new();
    for (field, cert) in &report.se_certs {
        let Some(state) = sdg.state_by_name(field) else {
            continue;
        };
        for &code in &cert.violations {
            findings.push(LintFinding {
                subject: LintSubject::State(state.id),
                diag: Diagnostic::warning_nospan(
                    code,
                    format!("state element `{field}` failed verification check {code}"),
                ),
            });
        }
    }
    findings
}

fn unreachable_tasks(sdg: &Sdg, findings: &mut Vec<LintFinding>) {
    let reachable = sdg.reachable_from_entries();
    for task in &sdg.tasks {
        if !reachable.contains(&task.id) {
            findings.push(LintFinding {
                subject: LintSubject::Task(task.id),
                diag: Diagnostic::error_nospan(
                    UNREACHABLE_TASK,
                    format!(
                        "task element `{}` is unreachable from every entry point",
                        task.name
                    ),
                )
                .with_note("no dataflow path delivers items to it, so it never runs"),
            });
        }
    }
}

fn unaccessed_states(sdg: &Sdg, findings: &mut Vec<LintFinding>) {
    for state in &sdg.states {
        if sdg.tasks_accessing(state.id).is_empty() {
            findings.push(LintFinding {
                subject: LintSubject::State(state.id),
                diag: Diagnostic::warning_nospan(
                    UNACCESSED_STATE,
                    format!(
                        "state element `{}` has no access edge from any task element",
                        state.name
                    ),
                )
                .with_note("it occupies memory on every node but can never change or be read"),
            });
        }
    }
}

fn global_access_in_cycles(sdg: &Sdg, findings: &mut Vec<LintFinding>) {
    let cyclic: HashSet<TaskId> = sdg.tasks_in_cycles().into_iter().collect();
    for task in &sdg.tasks {
        if !cyclic.contains(&task.id) {
            continue;
        }
        if let Some(access) = &task.access {
            if access.mode == AccessMode::PartialGlobal {
                let state = sdg
                    .state(access.state)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|_| access.state.to_string());
                findings.push(LintFinding {
                    subject: LintSubject::Task(task.id),
                    diag: Diagnostic::warning_nospan(
                        GLOBAL_IN_CYCLE,
                        format!(
                            "task element `{}` performs global access to `{state}` inside \
                             a dataflow cycle",
                            task.name
                        ),
                    )
                    .with_note(
                        "every iteration broadcasts to all instances and waits for them; \
                         consider hoisting the access out of the loop or using local \
                         access with a final merge",
                    ),
                });
            }
        }
    }
}

fn conflicting_dispatch(sdg: &Sdg, findings: &mut Vec<LintFinding>) {
    for task in &sdg.tasks {
        let Some(AccessMode::Partitioned { key, .. }) = task.access.as_ref().map(|a| &a.mode)
        else {
            continue;
        };
        let incoming = sdg.flows_to(task.id);
        let mut kinds: Vec<String> = incoming
            .iter()
            .map(|f| f.dispatch.to_string())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        if kinds.len() > 1 {
            kinds.sort();
            findings.push(LintFinding {
                subject: LintSubject::Task(task.id),
                diag: Diagnostic::error_nospan(
                    CONFLICTING_DISPATCH,
                    format!(
                        "task element `{}` accesses partitioned state by `{key}` but its \
                         incoming edges disagree on dispatch: {}",
                        task.name,
                        kinds.join(" vs ")
                    ),
                )
                .with_note(
                    "items routed under different semantics land on different instances \
                     than the state partitions they need",
                ),
            });
        }
    }
}

fn unmerged_partial_reads(sdg: &Sdg, findings: &mut Vec<LintFinding>) {
    for task in &sdg.tasks {
        let Some(access) = &task.access else { continue };
        if access.mode != AccessMode::PartialGlobal || access.writes {
            continue;
        }
        // Walk forward: some transitive successor must be fed by an
        // all-to-one gather, otherwise the per-instance results diverge.
        let mut seen = HashSet::from([task.id]);
        let mut stack = vec![task.id];
        let mut gathered = false;
        'walk: while let Some(t) = stack.pop() {
            for flow in sdg.flows_from(t) {
                if matches!(flow.dispatch, Dispatch::AllToOne { .. }) {
                    gathered = true;
                    break 'walk;
                }
                if seen.insert(flow.to) {
                    stack.push(flow.to);
                }
            }
        }
        if !gathered {
            let state = sdg
                .state(access.state)
                .map(|s| s.name.clone())
                .unwrap_or_else(|_| access.state.to_string());
            findings.push(LintFinding {
                subject: LintSubject::Task(task.id),
                diag: Diagnostic::warning_nospan(
                    UNMERGED_PARTIAL_READ,
                    format!(
                        "task element `{}` reads partial state `{state}` on every \
                         instance, but no downstream edge gathers the results",
                        task.name
                    ),
                )
                .with_note(
                    "each instance computes its own answer; without an all-to-one \
                     merge they are never reconciled",
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Distribution, SdgBuilder, StateAccessEdge, TaskCode, TaskKind};
    use sdg_ir::diag::Severity;
    use sdg_state::partition::PartitionDim;
    use sdg_state::store::StateType;

    fn entry() -> TaskKind {
        TaskKind::Entry { method: "m".into() }
    }

    fn codes(sdg: &Sdg) -> Vec<&'static str> {
        lint(sdg).iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_pipeline_has_no_findings() {
        // Entry -> partial-global reader -> all-to-one merge, one state.
        let mut b = SdgBuilder::new();
        let s = b.add_state("coOcc", StateType::Matrix, Distribution::Partial);
        let t0 = b.add_task("entry", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task(
            "multiply",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::PartialGlobal,
                writes: false,
            }),
        );
        let t2 = b.add_task("merge", TaskKind::Compute, TaskCode::Passthrough, None);
        b.connect(t0, t1, Dispatch::OneToAll, vec!["row".into()]);
        b.connect(
            t1,
            t2,
            Dispatch::AllToOne {
                collect_var: "rec".into(),
            },
            vec!["rec".into()],
        );
        assert!(codes(&b.build_unchecked()).is_empty());
    }

    #[test]
    fn unreachable_task_is_reported() {
        let mut b = SdgBuilder::new();
        let t0 = b.add_task("entry", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task("used", TaskKind::Compute, TaskCode::Passthrough, None);
        b.add_task("orphan", TaskKind::Compute, TaskCode::Passthrough, None);
        b.connect(t0, t1, Dispatch::OneToAny, vec![]);
        let diags = lint(&b.build_unchecked());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, UNREACHABLE_TASK);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("orphan"));
    }

    #[test]
    fn unaccessed_state_is_a_warning() {
        let mut b = SdgBuilder::new();
        b.add_state("ghost", StateType::Table, Distribution::Local);
        b.add_task("entry", entry(), TaskCode::Passthrough, None);
        let diags = lint(&b.build_unchecked());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, UNACCESSED_STATE);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("ghost"));
    }

    #[test]
    fn global_access_in_a_cycle_is_flagged() {
        let mut b = SdgBuilder::new();
        let s = b.add_state("weights", StateType::Vector, Distribution::Partial);
        let t0 = b.add_task("entry", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task(
            "iterate",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::PartialGlobal,
                writes: true,
            }),
        );
        let t2 = b.add_task("check", TaskKind::Compute, TaskCode::Passthrough, None);
        b.connect(t0, t1, Dispatch::OneToAll, vec![]);
        b.connect(t1, t2, Dispatch::OneToAny, vec![]);
        b.connect(t2, t1, Dispatch::OneToAll, vec![]); // Convergence loop.
        let diags = lint(&b.build_unchecked());
        assert!(diags.iter().any(|d| d.code == GLOBAL_IN_CYCLE));
    }

    // A minimal self-loop graph with global access, for subject assertions.
    fn global_self_loop() -> Sdg {
        let mut b = SdgBuilder::new();
        let s = b.add_state("weights", StateType::Vector, Distribution::Partial);
        let t0 = b.add_task("entry", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task(
            "iterate",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::PartialGlobal,
                writes: true,
            }),
        );
        b.connect(t0, t1, Dispatch::OneToAll, vec![]);
        b.connect(t1, t1, Dispatch::OneToAll, vec![]);
        b.build_unchecked()
    }

    #[test]
    fn findings_name_their_subject() {
        let sdg = global_self_loop();
        let findings = lint_findings(&sdg);
        let cycle = findings
            .iter()
            .find(|f| f.diag.code == GLOBAL_IN_CYCLE)
            .expect("cycle finding");
        assert_eq!(cycle.subject, LintSubject::Task(sdg.tasks[1].id));
    }

    #[test]
    fn conflicting_dispatch_into_partitioned_task() {
        let mut b = SdgBuilder::new();
        let s = b.add_state(
            "counts",
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let t0 = b.add_task("a", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task("b", entry(), TaskCode::Passthrough, None);
        let t2 = b.add_task(
            "count",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::Partitioned {
                    key: "w".into(),
                    dim: PartitionDim::Row,
                },
                writes: true,
            }),
        );
        b.connect(
            t0,
            t2,
            Dispatch::Partitioned { key: "w".into() },
            vec!["w".into()],
        );
        b.connect(t1, t2, Dispatch::OneToAny, vec!["w".into()]);
        let diags = lint(&b.build_unchecked());
        let conflict = diags
            .iter()
            .find(|d| d.code == CONFLICTING_DISPATCH)
            .expect("conflict finding");
        assert_eq!(conflict.severity, Severity::Error);
        assert!(conflict.message.contains("one-to-any"));
        assert!(conflict.message.contains("partitioned(w)"));
    }

    #[test]
    fn partial_read_without_gather_is_flagged() {
        let mut b = SdgBuilder::new();
        let s = b.add_state("coOcc", StateType::Matrix, Distribution::Partial);
        let t0 = b.add_task("entry", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task(
            "multiply",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::PartialGlobal,
                writes: false,
            }),
        );
        let t2 = b.add_task("sink", TaskKind::Compute, TaskCode::Passthrough, None);
        b.connect(t0, t1, Dispatch::OneToAll, vec![]);
        b.connect(t1, t2, Dispatch::OneToAny, vec![]); // No gather.
        let diags = lint(&b.build_unchecked());
        assert!(diags.iter().any(|d| d.code == UNMERGED_PARTIAL_READ));
    }
}
