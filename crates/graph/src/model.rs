//! Graph structure: task elements, state elements, access and dataflow edges.

use std::fmt;
use std::sync::Arc;

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, IdGen, StateId, TaskId};
use sdg_common::value::Record;
use sdg_ir::te::TeProgram;
use sdg_state::partition::PartitionDim;
use sdg_state::store::{StateStore, StateType};

/// Dispatching semantics of a dataflow edge (§4.2 step 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dispatch {
    /// Hash-partition items by the named record field: a key goes to the
    /// consumer instance [`sdg_state::partition::KeyLayout::instance`]
    /// picks from its stable hash.
    Partitioned {
        /// Record field carrying the partition key.
        key: String,
    },
    /// Deliver each item to exactly one consumer instance (round-robin).
    OneToAny,
    /// Broadcast each item to every consumer instance (global access to a
    /// partial SE).
    OneToAll,
    /// Gather one item from every *producer* instance into a single item at
    /// one consumer instance (synchronisation barrier; merge input).
    AllToOne {
        /// Record field under which the gathered list of values is exposed.
        collect_var: String,
    },
}

impl fmt::Display for Dispatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dispatch::Partitioned { key } => write!(f, "partitioned({key})"),
            Dispatch::OneToAny => write!(f, "one-to-any"),
            Dispatch::OneToAll => write!(f, "one-to-all"),
            Dispatch::AllToOne { collect_var } => write!(f, "all-to-one({collect_var})"),
        }
    }
}

/// How a task element accesses its state element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessMode {
    /// The SE has a single local instance.
    Local,
    /// Keyed access to a partitioned SE.
    Partitioned {
        /// Record field carrying the access key.
        key: String,
        /// Which structure axis the key selects.
        dim: PartitionDim,
    },
    /// Access to the local instance of a partial SE.
    PartialLocal,
    /// Access applied at every instance of a partial SE (the TE runs on all
    /// instances; reached via a one-to-all dataflow).
    PartialGlobal,
}

/// The access edge from a task element to its (single) state element.
#[derive(Debug, Clone, PartialEq)]
pub struct StateAccessEdge {
    /// The accessed SE.
    pub state: StateId,
    /// Access classification.
    pub mode: AccessMode,
    /// `true` if the TE mutates the SE.
    pub writes: bool,
}

/// The role of a task element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskKind {
    /// An entry point receiving external requests; `method` names the
    /// source-program method it came from.
    Entry {
        /// Originating method name.
        method: String,
    },
    /// An internal pipeline stage.
    Compute,
}

/// Host-side execution context handed to native tasks.
///
/// The runtime implements this; tasks use it to reach their local SE
/// instance and to produce output.
pub trait TaskContext {
    /// Returns the task's local SE instance, if it has an access edge.
    fn state(&mut self) -> Option<&mut StateStore>;

    /// Sends a record to the SDG's external output sink.
    fn emit(&mut self, record: Record);

    /// Forwards a record on the task's outgoing dataflow edge(s).
    fn forward(&mut self, record: Record);

    /// Returns this instance's replica index.
    fn replica(&self) -> u32;
}

/// A task implemented in Rust rather than in StateLang.
///
/// Hand-built SDGs (such as the key/value store benchmark) implement this
/// trait; the runtime calls [`NativeTask::process`] once per input item.
pub trait NativeTask: Send + Sync {
    /// Processes one input record.
    fn process(&self, input: &Record, ctx: &mut dyn TaskContext) -> SdgResult<()>;
}

/// The executable payload of a task element.
#[derive(Clone)]
pub enum TaskCode {
    /// Forwards its input unchanged (used by pure routing/barrier TEs).
    Passthrough,
    /// Interpreted StateLang block produced by the translator.
    Interpreted(TeProgram),
    /// Native Rust implementation.
    Native(Arc<dyn NativeTask>),
}

impl fmt::Debug for TaskCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskCode::Passthrough => write!(f, "Passthrough"),
            TaskCode::Interpreted(p) => write!(f, "Interpreted({p})"),
            TaskCode::Native(_) => write!(f, "Native(..)"),
        }
    }
}

/// A task element declaration.
#[derive(Debug, Clone)]
pub struct TaskDecl {
    /// Identifier.
    pub id: TaskId,
    /// Human-readable name (e.g. `addRating_1`).
    pub name: String,
    /// Role.
    pub kind: TaskKind,
    /// Executable payload.
    pub code: TaskCode,
    /// The at-most-one state access edge (§3.1: `A` is a partial function).
    pub access: Option<StateAccessEdge>,
}

/// How a state element is distributed (§3.2, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Single instance on one node.
    Local,
    /// Disjoint partitions across instances.
    Partitioned {
        /// Partitioned axis (rows or columns for matrices; keys for tables).
        dim: PartitionDim,
    },
    /// Independent full copies reconciled by merge computation.
    Partial,
}

/// A state element declaration.
#[derive(Debug, Clone)]
pub struct StateDecl {
    /// Identifier.
    pub id: StateId,
    /// Field name from the source program.
    pub name: String,
    /// Data structure type.
    pub ty: StateType,
    /// Distribution.
    pub dist: Distribution,
}

/// A dataflow edge between two task elements.
#[derive(Debug, Clone)]
pub struct FlowDecl {
    /// Identifier.
    pub id: EdgeId,
    /// Producer TE.
    pub from: TaskId,
    /// Consumer TE.
    pub to: TaskId,
    /// Dispatching semantics.
    pub dispatch: Dispatch,
    /// Record fields carried on this edge (the live variables at the cut).
    pub live_vars: Vec<String>,
}

/// A complete stateful dataflow graph.
#[derive(Debug, Clone, Default)]
pub struct Sdg {
    /// Task elements, indexed by `TaskId::raw()`.
    pub tasks: Vec<TaskDecl>,
    /// State elements, indexed by `StateId::raw()`.
    pub states: Vec<StateDecl>,
    /// Dataflow edges, indexed by `EdgeId::raw()`.
    pub flows: Vec<FlowDecl>,
    /// The `sdg-verify` certificates of the source program, when the
    /// graph came through the translator. Hand-built graphs carry `None`
    /// and the runtime falls back to trusting annotations, preserving
    /// their pre-verifier behavior.
    pub verify: Option<Arc<sdg_ir::analysis::verify::VerifyReport>>,
}

impl Sdg {
    /// Looks up a task element.
    pub fn task(&self, id: TaskId) -> SdgResult<&TaskDecl> {
        self.tasks
            .get(id.raw() as usize)
            .ok_or_else(|| SdgError::NotFound(format!("task {id}")))
    }

    /// Looks up a state element.
    pub fn state(&self, id: StateId) -> SdgResult<&StateDecl> {
        self.states
            .get(id.raw() as usize)
            .ok_or_else(|| SdgError::NotFound(format!("state {id}")))
    }

    /// Looks up a dataflow edge.
    pub fn flow(&self, id: EdgeId) -> SdgResult<&FlowDecl> {
        self.flows
            .get(id.raw() as usize)
            .ok_or_else(|| SdgError::NotFound(format!("flow {id}")))
    }

    /// Looks up a task by name.
    pub fn task_by_name(&self, name: &str) -> Option<&TaskDecl> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Looks up a state element by name.
    pub fn state_by_name(&self, name: &str) -> Option<&StateDecl> {
        self.states.iter().find(|s| s.name == name)
    }

    /// Returns the outgoing dataflow edges of `task`.
    pub fn flows_from(&self, task: TaskId) -> Vec<&FlowDecl> {
        self.flows.iter().filter(|f| f.from == task).collect()
    }

    /// Returns the incoming dataflow edges of `task`.
    pub fn flows_to(&self, task: TaskId) -> Vec<&FlowDecl> {
        self.flows.iter().filter(|f| f.to == task).collect()
    }

    /// Returns the entry-point task elements.
    pub fn entry_tasks(&self) -> Vec<&TaskDecl> {
        self.tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Entry { .. }))
            .collect()
    }

    /// Returns the tasks that access `state`.
    pub fn tasks_accessing(&self, state: StateId) -> Vec<&TaskDecl> {
        self.tasks
            .iter()
            .filter(|t| t.access.as_ref().is_some_and(|a| a.state == state))
            .collect()
    }

    /// Returns the task ids that belong to a dataflow cycle.
    ///
    /// Iteration in SDGs is expressed as cycles (§3.1); the allocator
    /// colocates the SEs accessed inside a cycle (§3.3 step 1).
    pub fn tasks_in_cycles(&self) -> Vec<TaskId> {
        // Kosaraju-style: a task is in a cycle iff it can reach itself via
        // at least one edge. With the small graphs SDGs have, a per-task
        // DFS is simple and fast enough.
        let n = self.tasks.len();
        let mut result = Vec::new();
        for start in 0..n {
            let start_id = TaskId(start as u32);
            let mut stack: Vec<TaskId> = self.flows_from(start_id).iter().map(|f| f.to).collect();
            let mut seen = vec![false; n];
            let mut found = false;
            while let Some(t) = stack.pop() {
                if t == start_id {
                    found = true;
                    break;
                }
                let idx = t.raw() as usize;
                if idx >= n || seen[idx] {
                    continue;
                }
                seen[idx] = true;
                stack.extend(self.flows_from(t).iter().map(|f| f.to));
            }
            if found {
                result.push(start_id);
            }
        }
        result
    }
}

/// Incremental builder for [`Sdg`] graphs.
#[derive(Debug, Default)]
pub struct SdgBuilder {
    sdg: Sdg,
    task_ids: IdGen,
    state_ids: IdGen,
    edge_ids: IdGen,
}

impl SdgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a state element.
    pub fn add_state(
        &mut self,
        name: impl Into<String>,
        ty: StateType,
        dist: Distribution,
    ) -> StateId {
        let id = StateId(self.state_ids.next_raw());
        self.sdg.states.push(StateDecl {
            id,
            name: name.into(),
            ty,
            dist,
        });
        id
    }

    /// Declares a task element.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        kind: TaskKind,
        code: TaskCode,
        access: Option<StateAccessEdge>,
    ) -> TaskId {
        let id = TaskId(self.task_ids.next_raw());
        self.sdg.tasks.push(TaskDecl {
            id,
            name: name.into(),
            kind,
            code,
            access,
        });
        id
    }

    /// Connects two task elements with a dataflow edge.
    pub fn connect(
        &mut self,
        from: TaskId,
        to: TaskId,
        dispatch: Dispatch,
        live_vars: Vec<String>,
    ) -> EdgeId {
        let id = EdgeId(self.edge_ids.next_raw());
        self.sdg.flows.push(FlowDecl {
            id,
            from,
            to,
            dispatch,
            live_vars,
        });
        id
    }

    /// Finalises the graph after validating it.
    pub fn build(self) -> SdgResult<Sdg> {
        crate::validate::validate(&self.sdg)?;
        Ok(self.sdg)
    }

    /// Finalises the graph without validation (for tests of the validator).
    pub fn build_unchecked(self) -> Sdg {
        self.sdg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> TaskKind {
        TaskKind::Entry { method: "m".into() }
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = SdgBuilder::new();
        let s = b.add_state("kv", StateType::Table, Distribution::Local);
        let t0 = b.add_task("a", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task(
            "b",
            TaskKind::Compute,
            TaskCode::Passthrough,
            Some(StateAccessEdge {
                state: s,
                mode: AccessMode::Local,
                writes: true,
            }),
        );
        let e = b.connect(t0, t1, Dispatch::OneToAny, vec!["x".into()]);
        let sdg = b.build_unchecked();
        assert_eq!(sdg.task(t0).unwrap().name, "a");
        assert_eq!(sdg.state(s).unwrap().name, "kv");
        assert_eq!(sdg.flow(e).unwrap().live_vars, vec!["x"]);
        assert_eq!(sdg.flows_from(t0).len(), 1);
        assert_eq!(sdg.flows_to(t1).len(), 1);
        assert_eq!(sdg.entry_tasks().len(), 1);
        assert_eq!(sdg.tasks_accessing(s).len(), 1);
    }

    #[test]
    fn lookup_errors_are_reported() {
        let sdg = Sdg::default();
        assert!(sdg.task(TaskId(0)).is_err());
        assert!(sdg.state(StateId(3)).is_err());
        assert!(sdg.flow(EdgeId(1)).is_err());
        assert!(sdg.task_by_name("nope").is_none());
    }

    #[test]
    fn cycle_detection_finds_loops() {
        let mut b = SdgBuilder::new();
        let t0 = b.add_task("src", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task("a", TaskKind::Compute, TaskCode::Passthrough, None);
        let t2 = b.add_task("b", TaskKind::Compute, TaskCode::Passthrough, None);
        let t3 = b.add_task("out", TaskKind::Compute, TaskCode::Passthrough, None);
        b.connect(t0, t1, Dispatch::OneToAny, vec![]);
        b.connect(t1, t2, Dispatch::OneToAny, vec![]);
        b.connect(t2, t1, Dispatch::OneToAny, vec![]); // Iteration loop.
        b.connect(t2, t3, Dispatch::OneToAny, vec![]);
        let sdg = b.build_unchecked();
        let mut cyclic = sdg.tasks_in_cycles();
        cyclic.sort();
        assert_eq!(cyclic, vec![t1, t2]);
    }

    #[test]
    fn acyclic_graph_has_no_cycle_tasks() {
        let mut b = SdgBuilder::new();
        let t0 = b.add_task("a", entry(), TaskCode::Passthrough, None);
        let t1 = b.add_task("b", TaskKind::Compute, TaskCode::Passthrough, None);
        b.connect(t0, t1, Dispatch::OneToAny, vec![]);
        assert!(b.build_unchecked().tasks_in_cycles().is_empty());
    }

    #[test]
    fn dispatch_displays() {
        assert_eq!(
            Dispatch::Partitioned { key: "user".into() }.to_string(),
            "partitioned(user)"
        );
        assert_eq!(Dispatch::OneToAny.to_string(), "one-to-any");
        assert_eq!(Dispatch::OneToAll.to_string(), "one-to-all");
        assert_eq!(
            Dispatch::AllToOne {
                collect_var: "rec".into()
            }
            .to_string(),
            "all-to-one(rec)"
        );
    }
}
