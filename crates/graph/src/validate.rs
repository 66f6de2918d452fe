//! Structural validation of SDGs.
//!
//! The paper imposes several well-formedness rules scattered through §3 and
//! §4; this module checks them all before a graph can be deployed:
//!
//! - every access edge references a declared SE, and the access mode is
//!   compatible with the SE's distribution;
//! - TEs cannot access a partitioned SE with *conflicting partitioning
//!   strategies* (e.g. by row and by column, §3.2);
//! - dataflow edges into a TE with partitioned access must be partitioned
//!   on the same key so items reach the instance holding their state;
//! - TEs with global access to a partial SE must be fed by one-to-all
//!   edges (the broadcast that reaches every instance);
//! - entry TEs have no incoming dataflows, internal TEs have at least one,
//!   and every TE is reachable from some entry;
//! - dense-vector SEs cannot be partitioned (they are partial-only).

use sdg_common::error::{SdgError, SdgResult};
use sdg_state::store::StateType;

use crate::model::{AccessMode, Dispatch, Distribution, Sdg, TaskKind};

/// Validates `sdg`, returning the first violated invariant.
pub fn validate(sdg: &Sdg) -> SdgResult<()> {
    check_edges_reference_elements(sdg)?;
    check_access_modes(sdg)?;
    check_partitioning_consistency(sdg)?;
    check_dispatch_compatibility(sdg)?;
    check_entries_and_reachability(sdg)?;
    Ok(())
}

fn err(msg: impl Into<String>) -> SdgError {
    SdgError::InvalidGraph(msg.into())
}

fn check_edges_reference_elements(sdg: &Sdg) -> SdgResult<()> {
    for flow in &sdg.flows {
        sdg.task(flow.from).map_err(|_| {
            err(format!(
                "flow {} starts at unknown task {}",
                flow.id, flow.from
            ))
        })?;
        sdg.task(flow.to)
            .map_err(|_| err(format!("flow {} ends at unknown task {}", flow.id, flow.to)))?;
        if flow.from == flow.to {
            return Err(err(format!(
                "flow {} is a self-loop on {}; express iteration with an explicit cycle \
                 through distinct TEs",
                flow.id, flow.from
            )));
        }
    }
    for task in &sdg.tasks {
        if let Some(access) = &task.access {
            sdg.state(access.state).map_err(|_| {
                err(format!(
                    "task `{}` accesses unknown state {}",
                    task.name, access.state
                ))
            })?;
        }
    }
    Ok(())
}

fn check_access_modes(sdg: &Sdg) -> SdgResult<()> {
    for task in &sdg.tasks {
        let Some(access) = &task.access else {
            continue;
        };
        let state = sdg.state(access.state)?;
        if state.ty == StateType::Vector {
            if let Distribution::Partitioned { .. } = state.dist {
                return Err(err(format!(
                    "state `{}` is a dense vector and cannot be partitioned",
                    state.name
                )));
            }
        }
        let compatible = matches!(
            (&access.mode, &state.dist),
            (AccessMode::Local, Distribution::Local)
                | (
                    AccessMode::Partitioned { .. },
                    Distribution::Partitioned { .. }
                )
                | (AccessMode::PartialLocal, Distribution::Partial)
                | (AccessMode::PartialGlobal, Distribution::Partial)
        );
        if !compatible {
            return Err(err(format!(
                "task `{}` accesses `{}` with mode {:?}, incompatible with its \
                 distribution {:?}",
                task.name, state.name, access.mode, state.dist
            )));
        }
        if let (AccessMode::Partitioned { dim, .. }, Distribution::Partitioned { dim: sdim }) =
            (&access.mode, &state.dist)
        {
            if dim != sdim {
                return Err(err(format!(
                    "task `{}` accesses `{}` by {dim} but the state is partitioned by {sdim} \
                     (conflicting partitioning strategies)",
                    task.name, state.name
                )));
            }
        }
    }
    Ok(())
}

fn check_partitioning_consistency(sdg: &Sdg) -> SdgResult<()> {
    for state in &sdg.states {
        let Distribution::Partitioned { dim } = state.dist else {
            continue;
        };
        for task in sdg.tasks_accessing(state.id) {
            match &task.access.as_ref().expect("filtered by accessor").mode {
                AccessMode::Partitioned { dim: d, .. } if *d == dim => {}
                other => {
                    return Err(err(format!(
                        "task `{}` must access partitioned state `{}` with a \
                         partitioned({dim}) access, found {other:?}",
                        task.name, state.name
                    )))
                }
            }
        }
    }
    Ok(())
}

fn check_dispatch_compatibility(sdg: &Sdg) -> SdgResult<()> {
    for task in &sdg.tasks {
        let incoming = sdg.flows_to(task.id);
        match task.access.as_ref().map(|a| &a.mode) {
            Some(AccessMode::Partitioned { key, .. }) => {
                // §3.2: "multiple TE instances with an access edge to a
                // partitioned SE must use the same partitioning key on the
                // dataflow so that they access SE instances locally".
                for flow in &incoming {
                    match &flow.dispatch {
                        Dispatch::Partitioned { key: k } if k == key => {}
                        other => {
                            return Err(err(format!(
                                "flow {} into `{}` must be partitioned({key}) to match the \
                                 task's state access, found {other}",
                                flow.id, task.name
                            )))
                        }
                    }
                    if !flow.live_vars.contains(key) {
                        return Err(err(format!(
                            "flow {} into `{}` is partitioned on `{key}` but does not carry \
                             that variable",
                            flow.id, task.name
                        )));
                    }
                }
            }
            Some(AccessMode::PartialGlobal) => {
                for flow in &incoming {
                    if flow.dispatch != Dispatch::OneToAll {
                        return Err(err(format!(
                            "flow {} into `{}` must be one-to-all because the task performs \
                             @Global access, found {}",
                            flow.id, task.name, flow.dispatch
                        )));
                    }
                }
            }
            _ => {}
        }
        // Gather edges must carry the variable they collect.
        for flow in &incoming {
            if let Dispatch::AllToOne { collect_var } = &flow.dispatch {
                if !flow.live_vars.contains(collect_var) {
                    return Err(err(format!(
                        "flow {} gathers `{collect_var}` but does not list it as a live variable",
                        flow.id
                    )));
                }
            }
        }
    }
    Ok(())
}

fn check_entries_and_reachability(sdg: &Sdg) -> SdgResult<()> {
    if sdg.tasks.is_empty() {
        return Err(err("an SDG must contain at least one task element"));
    }
    if sdg.entry_tasks().is_empty() {
        return Err(err("an SDG must contain at least one entry task"));
    }
    for task in &sdg.tasks {
        let incoming = sdg.flows_to(task.id).len();
        match task.kind {
            TaskKind::Entry { .. } if incoming > 0 => {
                return Err(err(format!(
                    "entry task `{}` cannot have incoming dataflows",
                    task.name
                )))
            }
            TaskKind::Compute if incoming == 0 => {
                return Err(err(format!(
                    "task `{}` is unreachable: it has no incoming dataflow",
                    task.name
                )))
            }
            _ => {}
        }
    }
    let reachable = sdg.reachable_from_entries();
    for task in &sdg.tasks {
        if !reachable.contains(&task.id) {
            return Err(err(format!(
                "task `{}` is not reachable from any entry task",
                task.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SdgBuilder, StateAccessEdge, TaskCode};
    use sdg_state::partition::PartitionDim;

    fn entry() -> TaskKind {
        TaskKind::Entry { method: "m".into() }
    }

    fn check_err(sdg: &Sdg, needle: &str) {
        let e = validate(sdg).unwrap_err();
        assert!(
            e.to_string().contains(needle),
            "expected `{needle}` in `{e}`"
        );
    }

    #[test]
    fn accepts_a_valid_partitioned_pipeline() {
        let mut b = SdgBuilder::new();
        let s = b.add_state(
            "userItem",
            StateType::Matrix,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let t0 = b.add_task("ingest", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task(
            "update",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::Partitioned {
                    key: "user".into(),
                    dim: PartitionDim::Row,
                },
                writes: true,
            }),
        );
        b.connect(
            t0,
            t1,
            Dispatch::Partitioned { key: "user".into() },
            vec!["user".into(), "item".into()],
        );
        validate(&b.build_unchecked()).unwrap();
    }

    #[test]
    fn rejects_self_loops() {
        let mut b = SdgBuilder::new();
        let t0 = b.add_task("a", entry(), TaskCode::Passthrough, None);
        b.connect(t0, t0, Dispatch::OneToAny, vec![]);
        check_err(&b.build_unchecked(), "self-loop");
    }

    #[test]
    fn rejects_incompatible_access_mode() {
        let mut b = SdgBuilder::new();
        let s = b.add_state("kv", StateType::Table, Distribution::Partial);
        let t = b.add_task(
            "a",
            entry(),
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::Local,
                writes: false,
            }),
        );
        let _ = t;
        check_err(&b.build_unchecked(), "incompatible");
    }

    #[test]
    fn rejects_partitioned_dense_vector() {
        let mut b = SdgBuilder::new();
        let s = b.add_state(
            "weights",
            StateType::Vector,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        b.add_task(
            "a",
            entry(),
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::Partitioned {
                    key: "k".into(),
                    dim: PartitionDim::Row,
                },
                writes: true,
            }),
        );
        check_err(&b.build_unchecked(), "cannot be partitioned");
    }

    #[test]
    fn rejects_conflicting_partition_dims() {
        let mut b = SdgBuilder::new();
        let s = b.add_state(
            "m",
            StateType::Matrix,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        b.add_task(
            "byCol",
            entry(),
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::Partitioned {
                    key: "c".into(),
                    dim: PartitionDim::Col,
                },
                writes: true,
            }),
        );
        check_err(&b.build_unchecked(), "conflicting partitioning");
    }

    #[test]
    fn rejects_wrong_dispatch_into_partitioned_task() {
        let mut b = SdgBuilder::new();
        let s = b.add_state(
            "kv",
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let t0 = b.add_task("src", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task(
            "upd",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::Partitioned {
                    key: "k".into(),
                    dim: PartitionDim::Row,
                },
                writes: true,
            }),
        );
        b.connect(t0, t1, Dispatch::OneToAny, vec!["k".into()]);
        check_err(&b.build_unchecked(), "must be partitioned(k)");
    }

    #[test]
    fn rejects_partition_key_missing_from_live_vars() {
        let mut b = SdgBuilder::new();
        let s = b.add_state(
            "kv",
            StateType::Table,
            Distribution::Partitioned {
                dim: PartitionDim::Row,
            },
        );
        let t0 = b.add_task("src", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task(
            "upd",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::Partitioned {
                    key: "k".into(),
                    dim: PartitionDim::Row,
                },
                writes: true,
            }),
        );
        b.connect(
            t0,
            t1,
            Dispatch::Partitioned { key: "k".into() },
            vec!["v".into()],
        );
        check_err(&b.build_unchecked(), "does not carry");
    }

    #[test]
    fn rejects_global_task_without_broadcast() {
        let mut b = SdgBuilder::new();
        let s = b.add_state("coOcc", StateType::Matrix, Distribution::Partial);
        let t0 = b.add_task("src", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task(
            "mult",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::PartialGlobal,
                writes: false,
            }),
        );
        b.connect(t0, t1, Dispatch::OneToAny, vec![]);
        check_err(&b.build_unchecked(), "one-to-all");
    }

    #[test]
    fn rejects_gather_without_live_var() {
        let mut b = SdgBuilder::new();
        let t0 = b.add_task("src", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task("merge", TaskKind::Compute, TaskCode::Passthrough, None);
        b.connect(
            t0,
            t1,
            Dispatch::AllToOne {
                collect_var: "rec".into(),
            },
            vec!["other".into()],
        );
        check_err(&b.build_unchecked(), "does not list it");
    }

    #[test]
    fn rejects_entry_with_incoming_and_orphans() {
        let mut b = SdgBuilder::new();
        let t0 = b.add_task("a", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task("b", entry(), TaskCode::Passthrough, None);
        b.connect(t0, t1, Dispatch::OneToAny, vec![]);
        check_err(&b.build_unchecked(), "cannot have incoming");

        let mut b = SdgBuilder::new();
        b.add_task("a", entry(), TaskCode::Passthrough, None);
        b.add_task("orphan", TaskKind::Compute, TaskCode::Passthrough, None);
        check_err(&b.build_unchecked(), "no incoming dataflow");
    }

    #[test]
    fn rejects_empty_and_entryless_graphs() {
        check_err(&Sdg::default(), "at least one task");
        let mut b = SdgBuilder::new();
        let t0 = b.add_task("a", TaskKind::Compute, TaskCode::Passthrough, None);
        let t1 = b.add_task("b", TaskKind::Compute, TaskCode::Passthrough, None);
        b.connect(t0, t1, Dispatch::OneToAny, vec![]);
        b.connect(t1, t0, Dispatch::OneToAny, vec![]);
        check_err(&b.build_unchecked(), "at least one entry");
    }

    #[test]
    fn builder_build_runs_validation() {
        let mut b = SdgBuilder::new();
        let t0 = b.add_task("a", entry(), TaskCode::Passthrough, None);
        b.connect(t0, t0, Dispatch::OneToAny, vec![]);
        assert!(b.build().is_err());
    }
}
