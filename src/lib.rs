//! # sdg — Stateful Dataflow Graphs
//!
//! A from-scratch Rust reproduction of *"Making State Explicit for
//! Imperative Big Data Processing"* (Fernandez, Migliavacca, Kalyvianaki,
//! Pietzuch — USENIX ATC 2014).
//!
//! Imperative programs with annotated mutable state (`@Partitioned`,
//! `@Partial`, `@Global`, `@Collection`) are statically analysed and
//! translated into **stateful dataflow graphs**: pipelined task elements
//! with explicit, distributed state elements, executed on a simulated
//! cluster with reactive scaling and asynchronous checkpoint-based failure
//! recovery.
//!
//! This umbrella crate re-exports the whole workspace and adds the
//! high-level entry point [`SdgProgram`]: parse an annotated StateLang
//! program, check and translate it into an SDG (§4), and deploy it on the
//! simulated cluster runtime (§3.3) with asynchronous fault tolerance
//! (§5). [`apps`] holds the paper's applications (collaborative
//! filtering, key/value store, wordcount, logistic regression).
//!
//! ```
//! use sdg::SdgProgram;
//! use sdg::runtime::config::RuntimeConfig;
//! use sdg::common::value::Value;
//! use sdg::common::record;
//! use std::time::Duration;
//!
//! let program = SdgProgram::compile(
//!     "@Partitioned Table kv;\n\
//!      void put(int k, int v) { kv.put(k, v); }\n\
//!      int get(int k) { let v = kv.get(k); emit v; }",
//! ).unwrap();
//! let deployment = program.deploy(RuntimeConfig::default()).unwrap();
//! deployment
//!     .submit("put", record! {"k" => Value::Int(1), "v" => Value::Int(42)})
//!     .unwrap();
//! deployment.quiesce(Duration::from_secs(5));
//! deployment
//!     .submit("get", record! {"k" => Value::Int(1)})
//!     .unwrap();
//! let out = deployment.outputs().recv_timeout(Duration::from_secs(5)).unwrap();
//! assert_eq!(out.value, Value::Int(42));
//! deployment.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdg_common::error::SdgResult;
use sdg_common::ids::StateId;
use sdg_graph::model::Sdg;
use sdg_ir::ast::Program;
use sdg_runtime::config::RuntimeConfig;
use sdg_runtime::deploy::Deployment;

/// The paper's applications, ready to deploy.
pub use sdg_apps as apps;

/// Comparison engines (micro-batch, Naiad-like, Spark-like).
pub use sdg_baselines as baselines;

/// Failure recovery: checkpoints, buffers, m-to-n restore.
pub use sdg_checkpoint as checkpoint;

/// Shared data model and utilities.
pub use sdg_common as common;

/// SDG structure, validation and allocation.
pub use sdg_graph as graph;

/// StateLang language and analyses.
pub use sdg_ir as ir;

/// The pipelined execution engine.
pub use sdg_runtime as runtime;

/// State element data structures.
pub use sdg_state as state;

/// Program-to-SDG translation.
pub use sdg_translate as translate;

/// A compiled StateLang program: parsed, checked and translated to an SDG.
#[derive(Debug, Clone)]
pub struct SdgProgram {
    program: Program,
    sdg: Sdg,
}

impl SdgProgram {
    /// Parses, checks and translates `source`.
    pub fn compile(source: &str) -> SdgResult<SdgProgram> {
        let program = sdg_ir::parser::parse_program(source)?;
        let sdg = sdg_translate::translate(&program)?;
        Ok(SdgProgram { program, sdg })
    }

    /// The parsed AST.
    pub fn ast(&self) -> &Program {
        &self.program
    }

    /// The translated stateful dataflow graph.
    pub fn graph(&self) -> &Sdg {
        &self.sdg
    }

    /// Looks up a state element id by field name.
    pub fn state(&self, name: &str) -> Option<StateId> {
        self.sdg.state_by_name(name).map(|s| s.id)
    }

    /// Renders the graph in Graphviz DOT format (like Fig. 1).
    pub fn to_dot(&self) -> String {
        sdg_graph::dot::to_dot(&self.sdg)
    }

    /// Renders the graph as DOT with `SL02xx` lint findings drawn onto
    /// the offending task and state elements.
    pub fn to_dot_with_lints(&self) -> String {
        sdg_graph::dot::to_dot_with_lints(&self.sdg, &sdg_graph::lint_findings(&self.sdg))
    }

    /// The verifier's certificate report, attached at translation time.
    ///
    /// Always `Some` for compiled programs; graphs assembled by hand carry
    /// no report (and the runtime trusts their annotations).
    pub fn verify_report(&self) -> Option<&sdg_ir::analysis::verify::VerifyReport> {
        self.sdg.verify.as_deref()
    }

    /// Renders the graph as DOT with both the `SL02xx` lint findings and
    /// the verifier's `SL03xx` certificate violations drawn onto the
    /// offending elements.
    pub fn to_dot_with_verify(&self) -> String {
        let mut findings = sdg_graph::lint_findings(&self.sdg);
        findings.extend(sdg_graph::verify_findings(&self.sdg));
        sdg_graph::dot::to_dot_with_lints(&self.sdg, &findings)
    }

    /// Deploys the program on the simulated cluster.
    pub fn deploy(self, cfg: RuntimeConfig) -> SdgResult<Deployment> {
        Deployment::start(self.sdg, cfg)
    }

    /// Deploys after letting `configure` adjust the runtime configuration
    /// with access to the graph (e.g. to set SE instance counts by name).
    pub fn deploy_with(
        self,
        mut cfg: RuntimeConfig,
        configure: impl FnOnce(&Sdg, &mut RuntimeConfig),
    ) -> SdgResult<Deployment> {
        configure(&self.sdg, &mut cfg);
        Deployment::start(self.sdg, cfg)
    }
}

/// Commonly used items for downstream code.
pub mod prelude {
    pub use crate::SdgProgram;
    pub use sdg_checkpoint::config::{CheckpointConfig, CheckpointConfigBuilder};
    pub use sdg_checkpoint::StoreFaultSpec;
    pub use sdg_common::error::{SdgError, SdgResult};
    pub use sdg_common::obs::{
        DeploymentStats, EventKind, MetricsSnapshot, ObsEvent, ReconfigStats, StateStats, TaskStats,
    };
    pub use sdg_common::record;
    pub use sdg_common::value::{Key, Record, Value};
    pub use sdg_graph::model::{Dispatch, Distribution, Sdg, SdgBuilder, TaskCode, TaskKind};
    pub use sdg_runtime::config::{
        ClusterSpec, NodeSpec, RuntimeConfig, RuntimeConfigBuilder, ScalingConfig, SupervisorConfig,
    };
    pub use sdg_runtime::deploy::{Deployment, OutputEvent};
    pub use sdg_runtime::fault::{FaultAction, FaultPlan, Health, WorkerFault};
    pub use sdg_runtime::reconfig::{ReconfigReport, ReconfigRequest};
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::record;
    use sdg_common::value::Value;
    use std::time::Duration;

    const SRC: &str = "@Partitioned Table kv;\n\
                       void put(int k, int v) { kv.put(k, v); }\n\
                       int get(int k) { let v = kv.get(k); emit v; }";

    #[test]
    fn compile_exposes_ast_graph_and_dot() {
        let p = SdgProgram::compile(SRC).unwrap();
        assert_eq!(p.ast().methods.len(), 2);
        assert_eq!(p.graph().states.len(), 1);
        assert!(p.state("kv").is_some());
        assert!(p.state("nope").is_none());
        assert!(p.to_dot().contains("digraph sdg"));
    }

    #[test]
    fn compile_reports_errors() {
        assert!(SdgProgram::compile("void f() { emit x; }").is_err());
        assert!(SdgProgram::compile("not a program").is_err());
    }

    #[test]
    fn deploy_with_configures_by_state_name() {
        let p = SdgProgram::compile(SRC).unwrap();
        let d = p
            .deploy_with(RuntimeConfig::default(), |sdg, cfg| {
                let kv = sdg.state_by_name("kv").unwrap().id;
                cfg.se_instances.insert(kv, 3);
            })
            .unwrap();
        d.submit("put", record! {"k" => Value::Int(7), "v" => Value::Int(1)})
            .unwrap();
        assert!(d.quiesce(Duration::from_secs(5)));
        d.submit("get", record! {"k" => Value::Int(7)}).unwrap();
        let out = d.outputs().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(out.value, Value::Int(1));
        d.shutdown();
    }
}
